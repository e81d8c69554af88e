// E19 — Replicated canonical set under churn: changelog tail vs protocol
// repair.
//
// Three replicas of one canonical set (DESIGN.md §10): node 0 is the
// writer absorbing churn batches, nodes 1 and 2 are followers pulling via
// anti-entropy rounds over in-process pipes. The bench drives the mesh
// through the regimes the subsystem distinguishes:
//
//   churn-tail    small steady churn, followers inside the writer's ring —
//                 every round is a cheap changelog tail (cost ∝ delta).
//   burst-repair  a write burst larger than the ring: the followers fall
//                 off the log and must repair by full pairwise
//                 reconciliation, self-hosting the protocols this repo
//                 reproduces ("@pull", Bob run locally by the puller).
//   quiesce       no more writes; rounds (including follower-to-follower)
//                 until the mesh reaches EXACT zero set divergence.
//   bytes         a controlled pair: the SAME small delta (kCompareDelta
//                 batches) caught up once by tail and once by protocol
//                 repair (ring capacity 1 forces it), so the row pair
//                 quantifies why the log is the cheap path.
//   serve         ordinary clients sync against every replica; each served
//                 result is compared bit-for-bit against the in-process
//                 driver on that replica's set (match_driver), and the
//                 "@accept" replica_seq gives the replica's staleness in
//                 mutation batches behind the writer.
//
// Expected shape: the mesh converges to divergence 0 at quiescence with
// both catch-up paths exercised; for the same small delta the tail bytes
// are below the repair bytes; every client row has match_driver = 1.
//
// CI asserts exactly those four claims on BENCH_E19.json, plus — via the
// observability flags below — that a meshmon scrape of the held mesh
// reports convergence_watermark == writer seq.
//
// Flags (all optional; defaults reproduce the historical bench):
//   --trace-out PATH     emit every node's trace spans (replica rounds,
//                        served sessions) and the serve-phase client
//                        spans as JSON lines into PATH
//   --ports-file PATH    run the mesh over loopback TCP and write one
//                        host:port line per node (meshmon's argument
//                        format) once the mesh is converged
//   --hold-seconds S     keep the converged mesh serving for S seconds
//                        after the ports file is written, so an external
//                        scraper (CI's meshmon --expect-converged) can
//                        read the settled gauges
//
// Each round row also carries the puller's per-peer append→apply lag
// quantiles (lag_p50_ms/lag_p99_ms, -1 before the first tail apply from
// that peer) — the replication-lag telemetry of DESIGN.md §12.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "net/pipe_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recon/registry.h"
#include "replica/mesh.h"
#include "replica/replica_node.h"
#include "server/sync_client.h"
#include "transport/channel.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rsr {
namespace {

constexpr size_t kSetSize = 1024;
constexpr size_t kRingCapacity = 24;
constexpr size_t kChurnPhases = 6;   // churn-tail rounds
constexpr size_t kBurstBatches = 64; // > kRingCapacity: falls off the log
constexpr size_t kCompareDelta = 4;  // batches of the controlled pair

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 1919;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.k = 16;
  return params;
}

PointSet Canonical() {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = kSetSize;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(3131);
  return workload::GenerateCloud(spec, &rng);
}

workload::ChurnSpec Churn(size_t updates) {
  workload::ChurnSpec spec;
  spec.fraction = 0.0;
  spec.min_updates = updates;
  return spec;
}

void ApplyChurn(replica::ReplicaNode* writer, const workload::ChurnSpec& spec,
                size_t batches, Rng* rng) {
  for (size_t i = 0; i < batches; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        writer->points(), Ctx().universe, spec, rng);
    writer->Apply(batch.inserts, batch.erases);
  }
}

/// The puller's per-peer append→apply lag quantiles, in milliseconds
/// ({-1, -1} before the first tail apply from that peer).
std::pair<std::string, std::string> LagCells(
    const replica::ReplicaNode& puller, const std::string& peer_name) {
  const auto lag = puller.host().metrics_registry().SnapshotHistogram(
      "rsr_replica_propagation_lag_seconds", {{"peer", peer_name}});
  if (!lag.has_value() || lag->count == 0) return {"-1", "-1"};
  return {bench::Num(1e3 * lag->Quantile(0.5)),
          bench::Num(1e3 * lag->Quantile(0.99))};
}

/// One table row per anti-entropy round (plus the summary/serve rows).
void RoundRow(const std::string& phase, size_t round, size_t node,
              size_t peer, const replica::RoundRecord& record,
              size_t divergence_after, uint64_t staleness,
              std::pair<std::string, std::string> lag = {"-1", "-1"}) {
  bench::Row({phase, std::to_string(round), std::to_string(node),
              std::to_string(peer), replica::RoundPathName(record.path),
              std::to_string(record.entries_applied),
              std::to_string(record.est_delta),
              std::to_string(record.bytes_sent + record.bytes_received),
              std::to_string(divergence_after), std::to_string(staleness),
              lag.first, lag.second, record.ok ? "1" : "0"});
}

uint64_t Staleness(const replica::ReplicaMesh& mesh, size_t node) {
  const uint64_t writer = mesh.node(0).applied_seq();
  const uint64_t mine = mesh.node(node).applied_seq();
  return writer > mine ? writer - mine : 0;
}

/// The controlled tail-vs-repair pair: a fresh 2-node mesh, the writer
/// applies kCompareDelta one-point batches, and the follower catches up in
/// one round. With `ring` >= kCompareDelta that round is a tail; with
/// ring = 1 the follower has fallen off and repairs. Same initial set,
/// same churn seed — the delta crossing the wire is identical.
replica::RoundRecord CatchUpOnce(const PointSet& initial, size_t ring) {
  replica::ReplicaMeshOptions options;
  options.nodes = 2;
  options.node.server.context = Ctx();
  options.node.server.params = Params();
  options.node.changelog.capacity = ring;
  options.node.exact_budget = 4 * kCompareDelta;  // keep the repair exact
  replica::ReplicaMesh mesh(initial, options);
  Rng rng(4242);
  ApplyChurn(&mesh.node(0), Churn(1), kCompareDelta, &rng);
  replica::RoundRecord record = mesh.RunRound(1, 0);
  if (mesh.Divergence(0, 1) != 0) record.ok = false;
  mesh.StopSchedulers();
  return record;
}

}  // namespace
}  // namespace rsr

int main(int argc, char** argv) {
  using namespace rsr;
  std::string trace_out;
  std::string ports_file;
  long hold_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--ports-file") == 0 && i + 1 < argc) {
      ports_file = argv[++i];
    } else if (std::strcmp(argv[i], "--hold-seconds") == 0 && i + 1 < argc) {
      hold_seconds = std::strtol(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_e19_replication [--trace-out PATH] "
                   "[--ports-file PATH] [--hold-seconds S]\n");
      return 2;
    }
  }

  bench::Banner(
      "E19",
      "replicated canonical set: changelog tail vs protocol repair",
      "3-replica mesh under churn converges to exact zero divergence at "
      "quiescence with both catch-up paths exercised; tail catch-up ships "
      "fewer bytes than protocol repair for the same small delta; every "
      "replica-served client result matches the in-process driver");
  bench::Row({"phase", "round", "node", "peer", "path", "entries",
              "est_delta", "bytes", "divergence", "staleness", "lag_p50_ms",
              "lag_p99_ms", "ok"});

  std::unique_ptr<obs::FileTraceSink> trace_sink;
  if (!trace_out.empty()) {
    trace_sink = std::make_unique<obs::FileTraceSink>(trace_out);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "e19: cannot open %s\n", trace_out.c_str());
      return 2;
    }
  }

  const PointSet canonical = Canonical();
  replica::ReplicaMeshOptions options;
  options.nodes = 3;
  options.node.server.context = Ctx();
  options.node.server.params = Params();
  options.node.server.trace_sink = trace_sink.get();
  options.node.changelog.capacity = kRingCapacity;
  options.use_tcp = !ports_file.empty();  // meshmon needs dialable hosts
  replica::ReplicaMesh mesh(canonical, options);
  Rng churn_rng(5151);
  size_t round = 0;

  // Phase 1: steady churn inside the ring — followers tail the log.
  for (size_t phase = 0; phase < kChurnPhases; ++phase) {
    ApplyChurn(&mesh.node(0), Churn(2), 2, &churn_rng);
    for (const size_t node : {size_t{1}, size_t{2}}) {
      const replica::RoundRecord record = mesh.RunRound(node, 0);
      RoundRow("churn-tail", round++, node, 0, record,
               mesh.Divergence(0, node), Staleness(mesh, node),
               LagCells(mesh.node(node), "node0"));
    }
  }

  // Phase 2: a burst larger than the ring — followers fall off the log
  // and must repair via full pairwise reconciliation.
  ApplyChurn(&mesh.node(0), Churn(2), kBurstBatches, &churn_rng);
  for (const size_t node : {size_t{1}, size_t{2}}) {
    const replica::RoundRecord record = mesh.RunRound(node, 0);
    RoundRow("burst-repair", round++, node, 0, record,
             mesh.Divergence(0, node), Staleness(mesh, node),
             LagCells(mesh.node(node), "node0"));
  }

  // Phase 3: quiescence — keep pulling (node 2 also from node 1, the
  // follower-to-follower path) until the whole mesh is exactly converged.
  size_t sweeps = 0;
  while (mesh.MaxDivergence() > 0 && sweeps < 16) {
    ++sweeps;
    for (const auto& [node, peer] : std::vector<std::pair<size_t, size_t>>{
             {1, 0}, {2, 1}, {2, 0}}) {
      const replica::RoundRecord record = mesh.RunRound(node, peer);
      RoundRow("quiesce", round++, node, peer, record,
               mesh.Divergence(0, node), Staleness(mesh, node),
               LagCells(mesh.node(node), "node" + std::to_string(peer)));
    }
  }
  for (const size_t node : {size_t{1}, size_t{2}}) {
    // JSON-only: the node's convergence watermark against the writer's
    // position — CI's quiescence assert, readable straight off the rows.
    bench::RowExtras(
        {{"watermark",
          std::to_string(mesh.node(node).host().metrics_registry().GaugeValue(
              "rsr_replica_convergence_watermark"))},
         {"writer_seq", std::to_string(mesh.node(0).applied_seq())}});
    bench::Row({"final", std::to_string(round), std::to_string(node), "0",
                "summary", "0", "0", "0",
                std::to_string(mesh.Divergence(0, node)),
                std::to_string(Staleness(mesh, node)), "-1", "-1", "1"});
  }

  // Phase 4: the controlled byte comparison (same delta, both paths).
  {
    const replica::RoundRecord tail = CatchUpOnce(canonical, kRingCapacity);
    const replica::RoundRecord repair = CatchUpOnce(canonical, 1);
    RoundRow("bytes", round++, 1, 0, tail, 0, 0);
    RoundRow("bytes", round++, 1, 0, repair, 0, 0);
    std::printf("bytes: tail=%zu repair=%zu (same %zu-batch delta)\n",
                tail.bytes_sent + tail.bytes_received,
                repair.bytes_sent + repair.bytes_received, kCompareDelta);
  }

  // Phase 5: replica-aware serving — a drifted client syncs against every
  // replica; each result must be bit-identical to the in-process driver
  // against that replica's set, and staleness comes from "@accept".
  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  client_options.trace_sink = trace_sink.get();
  client_options.propagate_trace = trace_sink != nullptr;
  const server::SyncClient client(client_options);
  Rng client_rng(6161);
  for (size_t node = 0; node < mesh.size(); ++node) {
    PointSet client_points = mesh.node(node).points();
    for (size_t i = 0; i < 8 && i < client_points.size(); ++i) {
      client_points[i] = workload::PerturbPoint(
          client_points[i], Ctx().universe, workload::NoiseKind::kGaussian,
          2.0, &client_rng);
    }
    const PointSet replica_set = mesh.node(node).points();
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    std::thread serve([&mesh, node, end = std::move(server_end)]() mutable {
      mesh.node(node).host().ServeConnection(end.get());
    });
    const server::SyncOutcome outcome =
        client.Sync(client_end.get(), "riblt-oneshot", client_points);
    serve.join();

    const auto reconciler =
        recon::MakeReconciler("riblt-oneshot", Ctx(), Params());
    transport::Channel channel;
    const recon::ReconResult expected =
        reconciler->Run(client_points, replica_set, &channel);
    const bool match = bench::MatchesDriver(outcome, expected);
    const uint64_t staleness =
        mesh.node(0).applied_seq() > outcome.server_replica_seq
            ? mesh.node(0).applied_seq() - outcome.server_replica_seq
            : 0;
    // Per-node session-latency quantiles from the serving host's registry
    // (JSON-only; the printed table keeps its columns).
    bench::RowExtras(
        bench::LatencyExtras(mesh.node(node).host().metrics_registry()));
    bench::Row({"serve", std::to_string(round++), std::to_string(node),
                std::to_string(node), "client-sync", "0", "0",
                std::to_string(outcome.bytes_sent + outcome.bytes_received),
                "0", std::to_string(staleness), "-1", "-1",
                match ? "1" : "0"});
  }

  const obs::MetricsRegistry& node0 = mesh.node(0).host().metrics_registry();
  std::printf(
      "node0: replica_seq=%lld sessions ok=%llu failed=%llu "
      "malformed=%llu\n",
      static_cast<long long>(node0.GaugeValue("rsr_replica_seq")),
      static_cast<unsigned long long>(node0.SumCounters(
          "rsr_sync_sessions_total", {{"outcome", "ok"}})),
      static_cast<unsigned long long>(node0.SumCounters(
          "rsr_sync_sessions_total", {{"outcome", "fail"}})),
      static_cast<unsigned long long>(node0.SumCounters(
          "rsr_sync_sessions_total", {{"outcome", "malformed"}})));

  // Scrape window: publish the nodes' endpoints for meshmon, then keep
  // the converged mesh serving so the external scraper reads settled
  // gauges (watermark == writer seq).
  if (!ports_file.empty()) {
    std::FILE* f = std::fopen(ports_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "e19: cannot write %s\n", ports_file.c_str());
      mesh.StopSchedulers();
      return 2;
    }
    for (size_t node = 0; node < mesh.size(); ++node) {
      std::fprintf(f, "127.0.0.1:%u\n", mesh.node(node).host().port());
    }
    std::fclose(f);
    if (hold_seconds > 0) {
      std::printf("e19: holding %lds for scrapes\n", hold_seconds);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(hold_seconds));
    }
  }
  mesh.StopSchedulers();
  return 0;
}
