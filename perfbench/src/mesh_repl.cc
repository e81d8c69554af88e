// mesh-repl: replication without timers.
//
// A ReplicaMesh of 3 nodes over loopback TCP, n = 2^14 each, one worker
// thread per host and no anti-entropy scheduler. One driver thread
// repeats one step: the writer (node 0) applies a 0.1 % churn batch,
// follower 1 pulls (a changelog tail), and every 8th step follower 2 pulls
// too. Its 8 batches behind overrun the writer's 4-entry ring, so it
// repairs by riblt-oneshot (riblt.k = 1024): the paper's IBLT mechanism,
// checked to take the exact-key path every time. The delta, 256 differing
// points, keeps the headroom-scaled strata estimate inside the exact band
// (d̂ ≤ k) despite the estimator's ±40 % error; at twice the delta the
// estimate crossed k in about 1 repair in 35 and the node fell back to
// full-transfer. The batch sequence is drawn from the seed before set-up,
// and the writer's clock is fixed, so the bytes of the first cycle repeat
// exactly. A store's write cost grows with the batches it has taken, so a
// slice is bounded by work, not time: each slice builds a fresh mesh
// (SetUpSlice) and replays the same warm-up cycle and kStepsPerSlice
// steps, the same on every commit, with the rate taken as rounds over wall
// time.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "replica/mesh.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rsr::replica::RoundRecord;

constexpr size_t kSetSize = size_t{1} << 14;
constexpr size_t kNodes = 3;
constexpr size_t kRing = 4;
constexpr size_t kRepairEvery = 8;
// Steps per slice: 10 repair cycles, about kSliceSeconds on a 4-core VM.
constexpr size_t kStepsPerSlice = 10 * kRepairEvery;
constexpr char kRepairProtocol[] = "riblt-oneshot";

rsr::recon::ProtocolParams Params() {
  rsr::recon::ProtocolParams params;
  params.riblt.k = 1024;
  return params;
}

struct Inputs {
  rsr::recon::ProtocolContext ctx;
  rsr::recon::ProtocolParams params;
  PointSet initial;
  PointSet after_cycle;  ///< initial after the first kRepairEvery batches
  std::vector<rsr::workload::ChurnBatch> batches;
};

Inputs MakeInputs(uint64_t seed, size_t steps) {
  Inputs in;
  in.ctx = Context(seed);
  in.params = Params();
  in.initial = Canonical(in.ctx, kSetSize, seed * 7919 + 3);
  rsr::workload::ChurnSpec spec;
  spec.fraction = 0.001;
  rsr::Rng rng(seed * 31 + 7);
  PointSet mirror = in.initial;
  in.batches.reserve(steps);
  for (size_t i = 0; i < steps; ++i) {
    in.batches.push_back(
        rsr::workload::MakeChurnBatch(mirror, in.ctx.universe, spec, &rng));
    rsr::workload::ApplyChurnBatch(in.batches.back(), &mirror);
    if (i + 1 == kRepairEvery) in.after_cycle = mirror;
  }
  return in;
}

/// The mesh and the driver's position in the batch sequence.
struct Driver {
  std::unique_ptr<rsr::replica::ReplicaMesh> mesh;
  size_t step = 0;
  double last_end = 0.0;
};

struct StepTally {
  Window* window;
  Report* report;
  SpanBuffer* spans;
  uint64_t tail_rounds = 0, repair_rounds = 0, exact_repairs = 0;
  size_t up = 0, down = 0;
};

void CheckRound(const RoundRecord& record, RoundRecord::Path want,
                const char* what, StepTally* tally) {
  const bool ok = record.ok && record.path == want &&
                  (want != RoundRecord::Path::kRepairExact ||
                   record.protocol == kRepairProtocol);
  tally->report->Attempt(ok);
  if (!ok) {
    tally->report->Note(std::string("mesh-repl: ") + what + " took path " +
                        rsr::replica::RoundPathName(record.path) + " " +
                        record.error_detail);
  }
}

/// One driver step; false when the batch pool is exhausted.
bool Step(Driver* d, const Inputs& in, StepTally* tally) {
  if (d->step >= in.batches.size()) return false;
  rsr::replica::ReplicaMesh& mesh = *d->mesh;
  const rsr::workload::ChurnBatch& batch = in.batches[d->step];
  SpanBuffer& spans = *tally->spans;
  const uint64_t op = spans.NewOp();
  const double t0 = WallSeconds();
  mesh.node(0).Apply(batch.inserts, batch.erases);
  const double t1 = WallSeconds();
  spans.Record("write", op, spans.NewId(), op, t0, t1);
  tally->window->write_s.Add(t1 - t0);
  tally->window->write_late_s.Add(d->last_end > 0 ? t0 - d->last_end : 0.0);

  const RoundRecord tail = mesh.RunRound(1, 0);
  const double t2 = WallSeconds();
  spans.Record("replica.tail_round", op, spans.NewId(), op, t1, t2);
  tally->window->sync_s.Add(t2 - t1);
  ++tally->tail_rounds;
  tally->up += tail.bytes_sent;
  tally->down += tail.bytes_received;
  CheckRound(tail, RoundRecord::Path::kTail, "follower 1 tail", tally);
  if (tail.entries_applied != 1) tally->report->Fail("mesh-repl: tail size");
  double end = t2;

  if ((d->step + 1) % kRepairEvery == 0) {
    const RoundRecord repair = mesh.RunRound(2, 0);
    end = WallSeconds();
    spans.Record("replica.repair_round", op, spans.NewId(), op, t2, end);
    tally->window->repair_s.Add(end - t2);
    ++tally->repair_rounds;
    if (repair.path == RoundRecord::Path::kRepairExact && repair.ok) {
      ++tally->exact_repairs;
    }
    tally->up += repair.bytes_sent;
    tally->down += repair.bytes_received;
    CheckRound(repair, RoundRecord::Path::kRepairExact, "follower 2 repair",
               tally);
  }
  spans.Record("step", op, op, 0, t0, end);
  d->last_end = end;
  ++d->step;
  return true;
}

struct WindowCounts {
  uint64_t tail_rounds = 0, repair_rounds = 0, exact_repairs = 0;
  uint64_t seqs_served = 0;
};

Window RunWindow(Driver* d, const Inputs& in, bool trace, Report* report,
                 Tracer* tracer, WindowCounts* counts) {
  Phase phase(1);
  Window w;
  SpanBuffer spans(trace, 1);
  StepTally tally{&w, report, &spans};
  const uint64_t seq0 = d->mesh->node(0).applied_seq();
  std::thread driver([&] {
    phase.WaitOpen();
    const double cpu0 = ThreadCpuSeconds();
    for (size_t i = 0; i < kStepsPerSlice; ++i) {
      if (!Step(d, in, &tally)) {
        report->Fail("mesh-repl: batch pool exhausted");
        break;
      }
    }
    phase.WorkerDone(ThreadCpuSeconds() - cpu0, 0.0);
  });
  phase.RunUntilDone();
  driver.join();
  phase.Finish();
  w.wall_s = phase.wall();
  w.syncs = tally.tail_rounds + tally.repair_rounds;
  w.TakeCpu(phase, phase.worker_cpu());
  counts->tail_rounds += tally.tail_rounds;
  counts->repair_rounds += tally.repair_rounds;
  counts->exact_repairs += tally.exact_repairs;
  counts->seqs_served += d->mesh->node(0).applied_seq() - seq0;
  tracer->Adopt(spans);
  return w;
}

/// `slices` slices, each on a freshly built mesh (SetUpSlice; the previous
/// mesh is torn down before the clock starts): the warm-up cycle,
/// whose bytes are the byte metrics, kStepsPerSlice measured steps, and a
/// final catch-up after which the mesh must hold one multiset. Every slice
/// replays the same batches, so its write cost is the same on every slice.
Windows MeasureSlices(Driver* d, const Inputs& in,
                      const rsr::replica::ReplicaMeshOptions& options,
                      size_t slices, bool trace, Report* report,
                      Tracer* tracer, Samples* setups, WindowCounts* counts) {
  Windows out;
  for (size_t i = 0; i < slices; ++i) {
    SetUpSlice(&d->mesh, [&] {
      return std::make_unique<rsr::replica::ReplicaMesh>(in.initial, options);
    }, setups);
    d->step = 0;
    d->last_end = 0.0;

    Window first;
    SpanBuffer idle(false, 0);
    StepTally warm{&first, report, &idle};
    for (size_t j = 0; j < kRepairEvery; ++j) {
      if (!Step(d, in, &warm)) report->Fail("mesh-repl: batch pool exhausted");
    }
    const double rounds =
        static_cast<double>(warm.tail_rounds + warm.repair_rounds);
    Window w = RunWindow(d, in, trace, report, tracer, counts);
    w.up_bytes = static_cast<double>(warm.up) / rounds;
    w.down_bytes = static_cast<double>(warm.down) / rounds;
    w.rss_mb = ProgramPeakMb();
    out.push_back(std::move(w));

    // Final catch-up: follower 2 repairs (or tails) to the writer.
    rsr::replica::ReplicaMesh& mesh = *d->mesh;
    const RoundRecord last = mesh.RunRound(2, 0);
    const bool last_ok =
        last.ok && (last.path == RoundRecord::Path::kTail ||
                    last.path == RoundRecord::Path::kInSync ||
                    (last.path == RoundRecord::Path::kRepairExact &&
                     last.protocol == kRepairProtocol));
    report->Attempt(last_ok);
    if (!last_ok) report->Note("mesh-repl: final catch-up was not exact");
    if (mesh.MaxDivergence() != 0) {
      report->Fail("mesh-repl: mesh diverged after the final catch-up");
    }
  }
  std::printf("# mesh-repl: %zu slices, %llu tail + %llu repair rounds\n",
              slices, static_cast<unsigned long long>(counts->tail_rounds),
              static_cast<unsigned long long>(counts->repair_rounds));
  return out;
}

}  // namespace

int RunMeshRepl(const Args& args, Report* report, Tracer* tracer) {
  if (!CheckThreadBudget(1, 2)) return 2;
  const Inputs in = MakeInputs(args.seed, kRepairEvery + kStepsPerSlice);
  if (!StartMemoryMeter()) {
    std::fprintf(stderr, "mesh-repl: cannot reset the peak RSS mark\n");
    return 2;
  }
  rsr::obs::FakeClock clock;  // fixed changelog stamps: exact bytes

  rsr::replica::ReplicaMeshOptions options;
  options.nodes = kNodes;
  options.use_tcp = true;
  options.node.server.context = in.ctx;
  options.node.server.params = in.params;
  options.node.server.worker_threads = 1;
  options.node.server.clock = &clock;
  options.node.changelog.capacity = kRing;
  options.node.propagate_trace = false;

  Driver d;
  Samples setups;
  WindowCounts counts;
  if (!args.trace) {
    const Windows windows =
        MeasureSlices(&d, in, options, SliceCount(args.seconds), false, report,
                      tracer, &setups, &counts);
    SetEndToEnd(windows, setups, report);
    return 0;
  }

  // Trace mode: untraced and traced slices of half the run each, so their
  // difference is the tracing overhead; then the probes.
  const size_t half = SliceCount(args.seconds / 2);
  WindowCounts plain_counts;
  const Windows plain = MeasureSlices(&d, in, options, half, false, report,
                                      tracer, &setups, &plain_counts);
  const Windows traced = MeasureSlices(&d, in, options, half, true, report,
                                       tracer, &setups, &counts);
  SetOverhead(plain, traced, report);
  SetWriterLayer(traced, report);
  report->Set("server.generations_served",
              static_cast<double>(counts.seqs_served), "count");
  report->Set("replica.tail_rounds", static_cast<double>(counts.tail_rounds),
              "count");
  report->Set("replica.repair_rounds",
              static_cast<double>(counts.repair_rounds), "count");
  report->Set("replica.repair_exact_share",
              counts.repair_rounds > 0
                  ? static_cast<double>(counts.exact_repairs) /
                        static_cast<double>(counts.repair_rounds)
                  : 0.0,
              "ratio");

  ProbeInputs probe;
  probe.ctx = in.ctx;
  probe.params = in.params;
  probe.canonical = &in.initial;
  probe.protocol = kRepairProtocol;
  probe.alice = &in.after_cycle;
  probe.alice_frame =
      AliceFrame(kRepairProtocol, in.ctx, in.params, in.after_cycle);
  probe.batches.assign(in.batches.begin(),
                       in.batches.begin() + kRepairEvery);
  probe.repair_alice = &in.after_cycle;
  probe.repair_bob = &in.initial;
  probe.replay_port = d.mesh->node(1).host().port();
  probe.replay_protocol = kRepairProtocol;
  probe.replay_frame = AliceFrame(kRepairProtocol, in.ctx, in.params,
                                  d.mesh->node(0).points());
  probe.replay_set_size = kSetSize;
  RunProbes(probe, report);
  return 0;
}

}  // namespace perfbench
