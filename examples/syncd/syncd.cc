// syncd — many-client sync server demo over real loopback sockets.
//
// Starts a sync server holding a canonical clustered point cloud, then
// simulates a fleet of drifting replicas: each client thread connects over
// TCP, negotiates a protocol from the registry, and reconciles its replica
// against the canonical set. Prints one line per client and the server's
// aggregate metrics. Usage:
//
//   syncd [num_clients] [worker_threads] [--async] [--shards N]
//         [--metrics-port P] [--hold-seconds S]
//
// By default the threaded SyncServer hosts the fleet (one blocked worker
// per in-flight client); --async selects the epoll-sharded AsyncSyncServer
// instead, with --shards N event-loop shards (default 2). The served
// results are identical either way — compare the metrics line to watch
// peak_active change from the worker count to the whole fleet.
// --metrics-port P additionally serves the host's metrics registry as
// Prometheus text on http://127.0.0.1:P/metrics (P=0 picks an ephemeral
// port, printed at startup); --hold-seconds S keeps the server and the
// metrics endpoint up for S seconds after the client fleet finishes so an
// external scraper (e.g. CI's curl check) can read the settled counters.
// See examples/syncd/README.md for a walkthrough.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "recon/driver.h"
#include "server/async_sync_server.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "workload/generator.h"

namespace {

using namespace rsr;

constexpr size_t kSetSize = 200;

recon::ProtocolContext Context() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 2014;  // shared public coins: both parties must agree
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  // The EMD-model sketches budget for the k planted outliers; the
  // exact-key one-shot RIBLT must budget for the exact-key delta, which
  // per-point noise drives toward both whole sets (see bench_e16).
  params.quadtree.k = 8;
  params.mlsh.k = 8;
  params.riblt.k = 2 * kSetSize;
  return params;
}

PointSet CanonicalCloud() {
  workload::CloudSpec spec;
  spec.universe = Context().universe;
  spec.n = kSetSize;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(99);
  return workload::GenerateCloud(spec, &rng);
}

PointSet Drift(const PointSet& base, uint64_t seed) {
  const Universe universe = Context().universe;
  Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(workload::PerturbPoint(
        p, universe, workload::NoiseKind::kGaussian, 1.5, &rng));
  }
  for (int i = 0; i < 5; ++i) {  // a few genuinely divergent points
    Point fresh(universe.d);
    for (int j = 0; j < universe.d; ++j) {
      fresh[j] = static_cast<int64_t>(rng.Below(universe.delta));
    }
    replica[rng.Below(replica.size())] = std::move(fresh);
  }
  return replica;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_clients = 12;
  size_t workers = 4;
  size_t shards = 2;
  bool use_async = false;
  bool serve_metrics = false;
  long metrics_port = 0;
  long hold_seconds = 0;
  size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--async") == 0) {
      use_async = true;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "syncd: --shards needs a value\n");
        return 1;
      }
      shards = std::strtoul(argv[++i], nullptr, 10);
      use_async = true;
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "syncd: --metrics-port needs a value\n");
        return 1;
      }
      serve_metrics = true;
      metrics_port = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--hold-seconds") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "syncd: --hold-seconds needs a value\n");
        return 1;
      }
      hold_seconds = std::strtol(argv[++i], nullptr, 10);
    } else if (argv[i][0] == '-' || positional >= 2) {
      std::fprintf(stderr,
                   "usage: syncd [num_clients] [worker_threads] [--async] "
                   "[--shards N] [--metrics-port P] [--hold-seconds S]\n");
      return 1;
    } else if (positional++ == 0) {
      num_clients = std::strtoul(argv[i], nullptr, 10);
    } else {
      workers = std::strtoul(argv[i], nullptr, 10);
    }
  }

  const PointSet canonical = CanonicalCloud();
  // Both hosts serve the identical wire protocol; pick one.
  std::unique_ptr<server::SyncServer> threaded;
  std::unique_ptr<server::AsyncSyncServer> async;
  if (use_async) {
    server::AsyncSyncServerOptions options;
    options.context = Context();
    options.params = Params();
    options.shards = shards;
    async = std::make_unique<server::AsyncSyncServer>(canonical, options);
  } else {
    server::SyncServerOptions options;
    options.context = Context();
    options.params = Params();
    options.worker_threads = workers;
    threaded = std::make_unique<server::SyncServer>(canonical, options);
  }
  const bool started =
      use_async ? async->Start(net::TcpListener::Listen("127.0.0.1", 0))
                : threaded->Start(net::TcpListener::Listen("127.0.0.1", 0));
  if (!started) {
    std::fprintf(stderr, "syncd: could not bind a loopback listener\n");
    return 1;
  }
  const uint16_t port = use_async ? async->port() : threaded->port();
  const auto start_time = std::chrono::steady_clock::now();
  obs::MetricsHttpServer metrics_http(
      [&]() {
        return use_async ? async->RenderMetrics() : threaded->RenderMetrics();
      },
      [&]() {
        // /healthz: one line a load balancer (or a human) can eyeball —
        // liveness, uptime, and the replication position.
        const double uptime =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_time)
                .count();
        const uint64_t seq =
            use_async ? async->replica_seq() : threaded->replica_seq();
        const bool dirty = use_async ? false : threaded->repair_dirty();
        char line[128];
        std::snprintf(line, sizeof line,
                      "ok uptime_seconds=%.1f replica_seq=%llu dirty=%d\n",
                      uptime, static_cast<unsigned long long>(seq),
                      dirty ? 1 : 0);
        return std::string(line);
      });
  if (serve_metrics) {
    if (metrics_port < 0 || metrics_port > 65535 ||
        !metrics_http.Start(net::TcpListener::Listen(
            "127.0.0.1", static_cast<uint16_t>(metrics_port)))) {
      std::fprintf(stderr, "syncd: could not bind the metrics port\n");
      return 1;
    }
    std::printf("syncd: metrics on http://127.0.0.1:%u/metrics "
                "(health on /healthz)\n",
                metrics_http.port());
  }
  if (use_async) {
    std::printf("syncd: serving %zu canonical points on 127.0.0.1:%u with "
                "%zu async shards\n\n",
                canonical.size(), port, shards);
  } else {
    std::printf("syncd: serving %zu canonical points on 127.0.0.1:%u with "
                "%zu workers\n\n",
                canonical.size(), port, workers);
  }

  const std::vector<std::string> protocols = {
      "quadtree", "exact-iblt", "full-transfer", "riblt-oneshot"};
  std::vector<std::thread> clients;
  std::mutex print_mu;
  clients.reserve(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    clients.emplace_back([&, i] {
      const std::string& protocol = protocols[i % protocols.size()];
      server::SyncClientOptions options;
      options.context = Context();
      options.params = Params();
      const server::SyncClient client(options);
      auto stream = net::TcpStream::Connect("127.0.0.1", port);
      if (stream == nullptr) {
        std::fprintf(stderr, "client %zu: connect failed\n", i);
        return;
      }
      const server::SyncOutcome outcome =
          client.Sync(stream.get(), protocol, Drift(canonical, 100 + 7 * i));
      // success=false with error=kNone is a protocol-level failure (e.g. a
      // sketch sized for k differences meeting far more), not a transport one.
      const char* status =
          outcome.result.success
              ? "ok"
              : (outcome.result.error == recon::SessionError::kNone
                     ? "no-decode"
                     : recon::SessionErrorName(outcome.result.error));
      std::lock_guard<std::mutex> lock(print_mu);
      std::printf(
          "client %2zu  %-15s %-9s recovered=%4zu pts  %6zu B up  %6zu B "
          "down  %.1f ms\n",
          i, protocol.c_str(), status,
          outcome.result.bob_final.size(), outcome.bytes_sent,
          outcome.bytes_received, 1e3 * outcome.wall_seconds);
    });
  }
  for (std::thread& t : clients) t.join();
  if (hold_seconds > 0) {
    // Keep the host (and the /metrics endpoint) up with the fleet's
    // counters settled, so an external scraper can read them.
    std::printf("\nsyncd: holding for %lds for scrapes\n", hold_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(hold_seconds));
  }
  metrics_http.Stop();  // the renderer borrows the host: stop it first
  if (use_async) {
    async->Stop();
  } else {
    threaded->Stop();
  }

  // The summary reads the host's metrics registry (what /metrics serves).
  const obs::MetricsRegistry& registry =
      use_async ? async->metrics_registry() : threaded->metrics_registry();
  const auto count = [&registry](const char* name,
                                 const obs::LabelSet& labels) {
    return static_cast<unsigned long long>(
        registry.SumCounters(name, labels));
  };
  std::printf(
      "\nserver: %llu accepted, %llu ok, %llu failed, %llu rejected, "
      "peak %lld concurrent, %llu B in, %llu B out\n",
      count("rsr_sync_connections_accepted_total", {}),
      count("rsr_sync_sessions_total", {{"outcome", "ok"}}),
      count("rsr_sync_sessions_total", {{"outcome", "fail"}}),
      count("rsr_sync_handshakes_rejected_total", {}),
      static_cast<long long>(
          registry.GaugeValue("rsr_sync_active_sessions_peak")),
      count("rsr_sync_bytes_total", {{"direction", "in"}}),
      count("rsr_sync_bytes_total", {{"direction", "out"}}));
  for (const std::string& name : protocols) {
    const std::optional<obs::HistogramSnapshot> seconds =
        registry.SnapshotHistogram("rsr_sync_session_seconds",
                                   {{"protocol", name}});
    if (!seconds.has_value() || seconds->count == 0) continue;
    std::printf(
        "  %-15s %llu syncs, %llu failures, mean %.1f ms, "
        "%llu B in, %llu B out\n",
        name.c_str(),
        count("rsr_sync_sessions_total",
              {{"protocol", name}, {"outcome", "ok"}}),
        count("rsr_sync_sessions_total",
              {{"protocol", name}, {"outcome", "fail"}}),
        1e3 * seconds->sum / static_cast<double>(seconds->count),
        count("rsr_sync_protocol_bytes_total",
              {{"protocol", name}, {"direction", "in"}}),
        count("rsr_sync_protocol_bytes_total",
              {{"protocol", name}, {"direction", "out"}}));
  }
  return 0;
}
