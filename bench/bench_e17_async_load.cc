// E17 — Async vs threaded serving under concurrent load.
//
// The same mixed-protocol TCP burst is served twice at equal total thread
// count: once by the thread-per-connection SyncServer with 2 workers
// (connections queue; at most 2 sessions are ever live) and once by the
// epoll-sharded AsyncSyncServer with 2 shards (every connection is live at
// once). Per (host × clients) configuration the table reports `ok` (syncs
// bit-identical to the driver) and `decoded` (protocol-level successes) as
// separate columns — fidelity and decode success are different claims, see
// bench_e16 — plus syncs/sec over the whole burst, the burst wall clock,
// `peak_active` — the high-water mark of concurrently open sessions, the
// column that shows the threaded host serializing (peak_active <= workers)
// while the async host sustains the burst — and `match_driver` =
// ok / clients, which must be 1 everywhere.
//
// Expected shape: equal match_driver and broadly comparable syncs/sec on
// a warm loopback (the work is protocol CPU either way), but peak_active
// pinned at 2 for the threaded host vs the full burst for the async one —
// the difference between a pool that blocks per client and a reactor that
// scales concurrency to fd limits.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/tcp.h"
#include "recon/driver.h"
#include "server/async_sync_server.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "workload/generator.h"

namespace rsr {
namespace {

constexpr size_t kSetSize = 128;
constexpr size_t kOutliers = 4;
constexpr double kNoise = 1.0;
constexpr size_t kThreadsPerHost = 2;  // 2 workers vs 2 shards

const std::vector<std::string>& Protocols() {
  static const std::vector<std::string> protocols = {
      "quadtree", "exact-iblt", "full-transfer", "gap-lattice",
      "riblt-oneshot"};
  return protocols;
}

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 1717;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  // Per-family budgets, as in E16: the one-shot RIBLT is exact-key, so its
  // table must be sized for the full per-point drift, not the outlier
  // budget (undersizing produced the ok: 0 / match_driver: 1 rows this
  // bench used to publish).
  params.quadtree.k = 8;
  params.mlsh.k = 8;
  params.riblt.k = 2 * (kSetSize + kOutliers);
  return params;
}

PointSet Canonical() {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = kSetSize;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(1991);
  return workload::GenerateCloud(spec, &rng);
}

PointSet DriftedReplica(const PointSet& base, uint64_t seed) {
  const Universe universe = Ctx().universe;
  Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(workload::PerturbPoint(
        p, universe, workload::NoiseKind::kGaussian, kNoise, &rng));
  }
  for (size_t i = 0; i < kOutliers; ++i) {
    Point fresh(universe.d);
    for (int j = 0; j < universe.d; ++j) {
      fresh[j] = static_cast<int64_t>(rng.Below(universe.delta));
    }
    replica[rng.Below(replica.size())] = std::move(fresh);
  }
  return replica;
}

/// Client i always gets the same replica and protocol, so the in-process
/// reference result is computed once and reused across hosts and rows.
/// The caches are plain static maps: main() warms every entry up front
/// (WarmCaches) so the concurrent client threads only ever read them.
const PointSet& Replica(size_t i) {
  static std::map<size_t, PointSet> cache;
  auto it = cache.find(i);
  if (it == cache.end()) {
    const PointSet canonical = Canonical();
    it = cache.emplace(i, DriftedReplica(canonical, 40000 + 13 * i)).first;
  }
  return it->second;
}

const recon::ReconResult& Expected(size_t i) {
  static std::map<size_t, recon::ReconResult> cache;
  auto it = cache.find(i);
  if (it == cache.end()) {
    const PointSet canonical = Canonical();
    const std::string& protocol = Protocols()[i % Protocols().size()];
    const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
    transport::Channel channel;
    it = cache.emplace(i, reconciler->Run(Replica(i), canonical, &channel))
             .first;
  }
  return it->second;
}

void WarmCaches(size_t max_clients) {
  for (size_t i = 0; i < max_clients; ++i) {
    Replica(i);
    Expected(i);
  }
}

struct BurstOutcome {
  size_t matched = 0;  ///< Bit-identical to the driver ("ok" column).
  size_t decoded = 0;  ///< Protocol-level success ("decoded" column).
  size_t peak_active = 0;
  double wall_seconds = 0.0;
};

/// Fires `clients` concurrent mixed-protocol syncs at `port` and settles
/// the burst against the cached driver references.
BurstOutcome RunClients(uint16_t port, size_t clients) {
  std::vector<server::SyncOutcome> outcomes(clients);
  const auto burst_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      server::SyncClientOptions options;
      options.context = Ctx();
      options.params = Params();
      const server::SyncClient client(options);
      auto stream = net::TcpStream::Connect("127.0.0.1", port);
      if (stream == nullptr) return;
      outcomes[i] = client.Sync(
          stream.get(), Protocols()[i % Protocols().size()], Replica(i));
    });
  }
  for (std::thread& t : threads) t.join();

  BurstOutcome out;
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - burst_start)
                         .count();
  for (size_t i = 0; i < clients; ++i) {
    if (outcomes[i].result.success) ++out.decoded;
    if (bench::MatchesDriver(outcomes[i], Expected(i))) ++out.matched;
  }
  return out;
}

/// Event-loop probe extras for the async host's rows (DESIGN.md §12):
/// loop-iteration and epoll-wait p99, pending-task depth p99, and the
/// timer-fire count, all from the host's shared shard instruments.
std::vector<std::pair<std::string, std::string>> LoopExtras(
    const obs::MetricsRegistry& registry) {
  std::vector<std::pair<std::string, std::string>> extras;
  const auto quantile_extra = [&](const char* metric, const char* key,
                                  double scale) {
    const std::optional<obs::HistogramSnapshot> snap =
        registry.SnapshotHistogram(metric);
    if (snap.has_value() && snap->count > 0) {
      extras.emplace_back(key, bench::Num(scale * snap->Quantile(0.99)));
    }
  };
  quantile_extra("rsr_loop_iteration_seconds", "loop_iter_p99_us", 1e6);
  quantile_extra("rsr_loop_epoll_wait_seconds", "epoll_wait_p99_us", 1e6);
  quantile_extra("rsr_loop_pending_tasks", "loop_pending_tasks_p99", 1.0);
  extras.emplace_back(
      "loop_timer_fires",
      std::to_string(registry.CounterValue("rsr_loop_timer_fires_total")));
  return extras;
}

void EmitRow(const std::string& host, size_t clients,
             const BurstOutcome& outcome,
             std::vector<std::pair<std::string, std::string>> extras) {
  const double wall_ms = 1e3 * outcome.wall_seconds;
  const double syncs_per_sec =
      static_cast<double>(clients) / outcome.wall_seconds;
  // "syncs_per_sec" / "wall_ms" are table columns here, so the JSON rows
  // already carry the standard field names; the extras add the latency
  // quantiles (and, on the async host, the event-loop probes).
  bench::RowExtras(std::move(extras));
  bench::Row({host, std::to_string(clients), std::to_string(outcome.matched),
              std::to_string(outcome.decoded), bench::Num(syncs_per_sec),
              bench::Num(wall_ms), std::to_string(outcome.peak_active),
              bench::Num(static_cast<double>(outcome.matched) /
                         static_cast<double>(clients))});
}

void RunThreadedBurst(const PointSet& canonical, size_t clients) {
  server::SyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.worker_threads = kThreadsPerHost;
  server::SyncServer server(canonical, options);
  if (!server.Start(net::TcpListener::Listen("127.0.0.1", 0))) {
    std::fprintf(stderr, "E17: failed to bind a loopback listener\n");
    return;
  }
  BurstOutcome outcome = RunClients(server.port(), clients);
  server.Stop();
  outcome.peak_active = static_cast<size_t>(
      server.metrics_registry().GaugeValue("rsr_sync_active_sessions_peak"));
  EmitRow("threaded-2w", clients, outcome,
          bench::LatencyExtras(server.metrics_registry()));
}

void RunAsyncBurst(const PointSet& canonical, size_t clients) {
  server::AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.shards = kThreadsPerHost;
  server::AsyncSyncServer server(canonical, options);
  if (!server.Start(net::TcpListener::Listen("127.0.0.1", 0))) {
    std::fprintf(stderr, "E17: failed to bind a loopback listener\n");
    return;
  }
  BurstOutcome outcome = RunClients(server.port(), clients);
  server.Stop();
  outcome.peak_active = static_cast<size_t>(
      server.metrics_registry().GaugeValue("rsr_sync_active_sessions_peak"));
  std::vector<std::pair<std::string, std::string>> extras =
      bench::LatencyExtras(server.metrics_registry());
  for (auto& extra : LoopExtras(server.metrics_registry())) {
    extras.push_back(std::move(extra));
  }
  EmitRow("async-2s", clients, outcome, std::move(extras));
}

/// The 512-client burst needs ~1k fds plus headroom; lift the soft
/// RLIMIT_NOFILE toward the hard limit so the bench does not depend on
/// shell defaults.
void RaiseFdLimit() {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  rlim_t wanted = 4096;
  if (limit.rlim_max != RLIM_INFINITY && wanted > limit.rlim_max) {
    wanted = limit.rlim_max;
  }
  if (limit.rlim_cur < wanted) {
    limit.rlim_cur = wanted;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

}  // namespace
}  // namespace rsr

int main() {
  using namespace rsr;
  RaiseFdLimit();
  bench::Banner(
      "E17", "async vs threaded sync serving: concurrent TCP bursts",
      "at equal thread count (2 workers vs 2 shards) the threaded host "
      "serializes (peak_active <= 2) while the async host sustains the "
      "whole burst; every served result matches the in-process driver "
      "(match_driver = 1)");
  bench::Row({"host", "clients", "ok", "decoded", "syncs_per_sec",
              "wall_ms", "peak_active", "match_driver"});

  const PointSet canonical = Canonical();
  const std::vector<size_t> burst_sizes = {64, 256, 512};
  WarmCaches(*std::max_element(burst_sizes.begin(), burst_sizes.end()));
  for (const size_t clients : burst_sizes) {
    RunThreadedBurst(canonical, clients);
    RunAsyncBurst(canonical, clients);
  }
  return 0;
}
