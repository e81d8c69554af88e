// E16 — Serving-layer load: many concurrent clients over real sockets.
//
// One SyncServer holds a canonical clustered cloud; N client threads each
// connect over loopback TCP, negotiate a registry protocol, and sync a
// drifted replica. Per (clients × protocol) configuration the table
// reports two separate success columns — `ok`, syncs whose served outcome
// is bit-identical to recon::DrivePair on the same inputs (the fidelity
// count), and `decoded`, syncs whose protocol-level result succeeded (the
// availability count) — plus throughput (syncs/sec across the whole
// burst), framed bytes per sync in each direction, the server's mean
// per-session wall time, and `match_driver` = ok / clients, which must be
// 1. Keeping ok and decoded separate is what makes a row like the old
// riblt-oneshot one (an undersized sketch failing to decode on every sync,
// reported as ok: 0 / match_driver: 1) impossible to misread: fidelity and
// decode success are different claims. The one-shot RIBLT is sized for the
// drift actually configured here (every point perturbed plus the planted
// outliers — an exact-key delta of up to 2·(n + outliers)), so its rows
// now decode. Expected shape: syncs/sec scales with the burst size until
// the worker pool saturates.

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recon/driver.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace rsr {
namespace {

constexpr size_t kSetSize = 256;
constexpr size_t kOutliers = 6;
constexpr double kNoise = 1.0;

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 616;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  // Per-family budgets instead of the shared k override: the EMD-model
  // sketches are sized for the k planted outliers as before, but the
  // exact-key one-shot RIBLT must be sized for its *exact-key* delta —
  // with per-point noise, every perturbed point differs, so the table has
  // to budget for both sides of the whole set or decode is guaranteed to
  // fail (the old ok: 0 rows).
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
  Rng rng(991);
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

/// One burst: `clients` concurrent TCP clients, client i negotiating
/// protocols[i % protocols.size()]. Emits one table row labelled `label`.
/// `latency_probes=false` serves with the optional probes off — the
/// overhead-comparison arm of the metrics layer (DESIGN.md §12). A
/// non-null `trace_sink` serves with per-session trace spans on (every
/// span emitted — the worst-case tracing arm).
void RunBurst(const PointSet& canonical, const std::string& label,
              const std::vector<std::string>& protocols, size_t clients,
              bool latency_probes = true,
              obs::TraceSink* trace_sink = nullptr) {
  server::SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.worker_threads = 8;
  server_options.latency_probes = latency_probes;
  server_options.trace_sink = trace_sink;
  server::SyncServer server(canonical, server_options);
  if (!server.Start(net::TcpListener::Listen("127.0.0.1", 0))) {
    std::fprintf(stderr, "E16: failed to bind a loopback listener\n");
    return;
  }

  std::vector<PointSet> replicas(clients);
  for (size_t i = 0; i < clients; ++i) {
    replicas[i] = DriftedReplica(canonical, 3000 + 31 * i);
  }

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
      auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
      if (stream == nullptr) return;
      outcomes[i] = client.Sync(stream.get(), protocols[i % protocols.size()],
                                replicas[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  const double burst_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    burst_start)
          .count();
  server.Stop();

  size_t matched = 0, decoded = 0;
  for (size_t i = 0; i < clients; ++i) {
    const auto reconciler = recon::MakeReconciler(
        protocols[i % protocols.size()], Ctx(), Params());
    transport::Channel channel;
    const recon::ReconResult expected =
        reconciler->Run(replicas[i], canonical, &channel);
    if (bench::MatchesDriver(outcomes[i], expected)) ++matched;
    if (outcomes[i].result.success) ++decoded;
  }

  const obs::MetricsRegistry& registry = server.metrics_registry();
  // Every counted session, ok or failed, observes its wall time once.
  const std::optional<obs::HistogramSnapshot> session_seconds =
      registry.SnapshotHistogramSum("rsr_sync_session_seconds");
  const double mean_wall_ms =
      session_seconds.has_value() && session_seconds->count > 0
          ? 1e3 * session_seconds->sum /
                static_cast<double>(session_seconds->count)
          : 0.0;

  // Standard machine-comparable wall-clock field (shared with E12/E17;
  // "syncs_per_sec" is already a table column here, so only "wall_ms"
  // needs the extras path), plus the registry's session-latency
  // quantiles.
  std::vector<std::pair<std::string, std::string>> extras =
      bench::LatencyExtras(server.metrics_registry());
  extras.emplace_back("wall_ms", bench::Num(1e3 * burst_seconds));
  extras.emplace_back("latency_probes", latency_probes ? "1" : "0");
  extras.emplace_back("traced", trace_sink != nullptr ? "1" : "0");
  // Registry-side session accounting, published so CI can catch drift
  // between the metrics registry and the bench's own client counting.
  extras.emplace_back(
      "sessions_total",
      std::to_string(
          registry.SumCounters("rsr_sync_sessions_total")));
  bench::RowExtras(std::move(extras));
  bench::Row({label, std::to_string(clients), std::to_string(matched),
              std::to_string(decoded),
              bench::Num(static_cast<double>(clients) / burst_seconds),
              bench::Num(static_cast<double>(registry.CounterValue(
                             "rsr_sync_bytes_total", {{"direction", "in"}})) /
                         static_cast<double>(clients)),
              bench::Num(static_cast<double>(registry.CounterValue(
                             "rsr_sync_bytes_total", {{"direction", "out"}})) /
                         static_cast<double>(clients)),
              bench::Num(mean_wall_ms),
              bench::Num(static_cast<double>(matched) /
                         static_cast<double>(clients))});
}

}  // namespace
}  // namespace rsr

int main() {
  using namespace rsr;
  bench::Banner("E16", "sync-server load: concurrent clients over TCP",
                "syncs/sec grows with the burst until workers saturate; "
                "every served result is bit-identical to the in-process "
                "driver (ok = clients, match_driver = 1) and every "
                "right-sized sketch decodes (decoded = clients)");
  bench::Row({"protocol", "clients", "ok", "decoded", "syncs_per_sec",
              "bytes_in_per", "bytes_out_per", "wall_ms_mean",
              "match_driver"});

  const PointSet canonical = Canonical();
  const std::vector<std::string> kSingles[] = {{"quadtree"},
                                               {"exact-iblt"},
                                               {"full-transfer"},
                                               {"gap-lattice"},
                                               {"riblt-oneshot"}};
  for (const auto& protocols : kSingles) {
    for (const size_t clients : {8, 32}) {
      RunBurst(canonical, protocols[0], protocols, clients);
    }
  }
  // Mixed burst: 32 clients round-robin over five protocols at once.
  RunBurst(canonical, "mixed-5",
           {"quadtree", "exact-iblt", "full-transfer", "gap-lattice",
            "riblt-oneshot"},
           32);
  // Overhead arm: the same mixed 32-client burst with the optional
  // latency probes off. Comparing syncs_per_sec between this row and
  // "mixed-5" bounds the metrics hot-path cost (target: <= 2%).
  RunBurst(canonical, "mixed-5-noprobe",
           {"quadtree", "exact-iblt", "full-transfer", "gap-lattice",
            "riblt-oneshot"},
           32, /*latency_probes=*/false);
  // Tracing arm: the same burst with per-session spans on and every span
  // emitted (sample_rate 1, a file sink) — the worst case of the tracing
  // layer. Comparing syncs_per_sec against "mixed-5-noprobe" re-pins the
  // observability hot-path overhead bound (target: <= 2%, DESIGN.md §12);
  // one span serialization per multi-round session is noise next to the
  // session's framing and sketch work.
  {
    obs::FileTraceSink trace_sink("/dev/null");
    RunBurst(canonical, "mixed-5-traced",
             {"quadtree", "exact-iblt", "full-transfer", "gap-lattice",
              "riblt-oneshot"},
             32, /*latency_probes=*/true, &trace_sink);
  }
  return 0;
}
