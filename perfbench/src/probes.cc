// Isolated per-layer probes, run on the workload's own data after the
// traced window. Each probe times one public call boundary; the README
// maps every probe to the end-to-end metric it should move.

#include <memory>
#include <utility>

#include "net/frame.h"
#include "net/pipe_stream.h"
#include "recon/session.h"
#include "replica/replica_node.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kCheapReps = 15;
constexpr size_t kCostlyReps = 3;
constexpr size_t kFrameReps = 50;
constexpr size_t kReplayReps = 20;

void ProbeReplay(const ProbeInputs& in, Report* report) {
  SpanBuffer spans(true, 99);
  for (size_t i = 0; i < kReplayReps; ++i) {
    const uint64_t op = spans.NewOp();
    const ReplayedSync sync =
        ReplaySync(in.replay_port, in.replay_protocol, in.replay_frame,
                   in.replay_set_size, in.ctx.universe, &spans, op);
    if (!sync.outcome.handshake_ok || !sync.outcome.error_detail.empty()) {
      report->Fail("probe: replayed sync failed: " +
                   sync.outcome.error_detail);
    }
  }
  Tracer local;
  local.Adopt(spans);
  const std::pair<const char*, const char*> metrics[] = {
      {"net.connect_ms", "net.connect"},
      {"server.accept_wait_ms", "server.accept_wait"},
      {"server.session_ms", "server.session"}};
  for (const auto& [metric, span] : metrics) {
    if (!report->Has(metric)) {
      report->Set(metric, 1e3 * local.Durations(span).Median(), "ms");
    }
  }
}

void ProbeReplica(const ProbeInputs& in, Report* report) {
  rsr::replica::ReplicaNodeOptions options;
  options.server.context = in.ctx;
  options.server.params = in.params;
  options.server.worker_threads = 1;
  options.changelog.capacity = in.batches.size() + 1;
  rsr::replica::ReplicaNode writer(*in.canonical, options);
  rsr::replica::ReplicaNode follower(*in.canonical, options);
  Samples apply, replicated;
  for (const rsr::workload::ChurnBatch& b : in.batches) {
    const double t0 = WallSeconds();
    writer.Apply(b.inserts, b.erases);
    apply.Add(WallSeconds() - t0);
  }
  const rsr::replica::FetchedEntries fetched = writer.changelog().Fetch(0);
  for (const rsr::replica::ChangeEntry& entry : fetched.entries) {
    const double t0 = WallSeconds();
    follower.host().ApplyReplicated(entry);
    replicated.Add(WallSeconds() - t0);
  }
  if (!fetched.ok || fetched.entries.size() != in.batches.size() ||
      rsr::replica::SetDivergence(writer.points(), follower.points()) != 0) {
    report->Fail("probe: replayed changelog did not reproduce the writer");
  }
  report->Set("replica.apply_ms", 1e3 * apply.Median(), "ms");
  report->Set("replica.apply_replicated_ms", 1e3 * replicated.Median(), "ms");
}

}  // namespace

void RunProbes(const ProbeInputs& in, Report* report) {
  if (in.replay_port != 0) ProbeReplay(in, report);

  // Store: from-scratch build; its writes come after the session probes.
  rsr::server::SketchStoreOptions store_options;
  store_options.context = in.ctx;
  store_options.params = in.params;
  std::unique_ptr<rsr::server::SketchStore> store;
  report->Set("store.build_s", MedianSeconds(kCostlyReps, [&] {
                store.reset();
                store = std::make_unique<rsr::server::SketchStore>(
                    *in.canonical, store_options);
              }),
              "s");
  // Sessions, before the store takes writes: Bob against the cached
  // canonical sketches, Bob rebuilding them, and Alice's opening frame.
  const std::shared_ptr<const rsr::server::SketchSnapshot> snapshot =
      store->Snapshot();
  const auto reconciler =
      rsr::recon::MakeReconciler(in.protocol, in.ctx, in.params);
  const double make_s = MedianSeconds(kCheapReps, [&] {
    auto bob = reconciler->MakeBobSession(*in.canonical, snapshot.get());
  });
  const double cached_s = MedianSeconds(kCheapReps, [&] {
    auto bob = reconciler->MakeBobSession(*in.canonical, snapshot.get());
    bob->Start();
    bob->OnMessage(in.alice_frame);
  });
  const double rebuild_s = MedianSeconds(kCostlyReps, [&] {
    auto bob = reconciler->MakeBobSession(*in.canonical);
    bob->Start();
    bob->OnMessage(in.alice_frame);
  });
  report->Set("recon.bob_make_ms", 1e3 * make_s, "ms");
  report->Set("recon.bob_cached_ms", 1e3 * cached_s, "ms");
  report->Set("recon.bob_rebuild_ms", 1e3 * rebuild_s, "ms");
  report->Set("recon.cached_over_rebuild", cached_s / rebuild_s, "ratio");
  report->Set("recon.alice_start_ms",
              1e3 * MedianSeconds(kCostlyReps, [&] {
                reconciler->MakeAliceSession(*in.alice)->Start();
              }),
              "ms");
  // The hosts build Bob before "@accept", so the session span (frame sent
  // to "@result") holds Bob's decode but not his construction.
  if (report->Has("server.session_ms")) {
    report->Set("server.session_self_ms",
                report->Get("server.session_ms") - 1e3 * (cached_s - make_s),
                "ms");
  }

  Samples apply;
  for (const rsr::workload::ChurnBatch& b : in.batches) {
    const double t0 = WallSeconds();
    store->ApplyUpdate(b.inserts, b.erases);
    apply.Add(WallSeconds() - t0);
  }
  report->Set("store.apply_ms", 1e3 * apply.Median(), "ms");

  // Framing: one send + receive of Alice's frame over an in-process pipe.
  {
    auto [left, right] = rsr::net::PipeStream::CreatePair();
    rsr::net::FramedStream sender(left.get());
    rsr::net::FramedStream receiver(right.get());
    rsr::transport::Message received;
    const double frame_s = MedianSeconds(kFrameReps, [&] {
      sender.Send(in.alice_frame);
      receiver.Receive(&received);
    });
    if (received.payload != in.alice_frame.payload) {
      report->Fail("probe: framed message did not round-trip");
    }
    report->Set("net.frame_us", 1e6 * frame_s, "us");
  }

  // Exact-key repair at the workload's delta (what mesh repairs run).
  {
    rsr::recon::ReconResult result;
    report->Set("recon.riblt_repair_ms",
                1e3 * MedianSeconds(kCostlyReps, [&] {
                  result = DriverResult("riblt-oneshot", in.ctx, in.params,
                                        *in.repair_alice, *in.repair_bob);
                }),
                "ms");
    // Workloads without a quadtree sync report the repair's counts.
    if (!report->Has("recon.chosen_level")) {
      report->Set("recon.chosen_level", result.chosen_level, "level");
      report->Set("recon.decoded_entries",
                  static_cast<double>(result.decoded_entries), "count");
    }
    if (!result.success || rsr::replica::SetDivergence(
                               result.bob_final, *in.repair_alice) != 0) {
      report->Fail("probe: riblt-oneshot repair was not exact");
    }
  }

  ProbeReplica(in, report);
}

}  // namespace perfbench
