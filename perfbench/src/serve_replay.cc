// serve-replay: server-bound reads at paper scale.
//
// The async host holds n = 2^15 clustered points. One closed-loop client
// replays pre-encoded quadtree "qt-levels" frames from 16 drifted replicas,
// so almost all the work is the host's session (snapshot fetch, per-session
// point copies, Bob's decode and repair, result encoding) plus the
// net/handshake path; the client only frames bytes and decodes the result.
// Every slice starts on a freshly built host, so set-up is sampled across
// the run like every other metric; the previous host is torn down before
// the set-up clock starts. The reads come first, on the built snapshot.
// Then the host, with no reader in the way, takes 10 back-to-back 1 % write
// batches (the batch and its inverse in turn): the store's write latency at
// this size.

#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/tcp.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kSetSize = size_t{1} << 15;
constexpr size_t kReplicas = 16;
constexpr size_t kClients = 1;
constexpr size_t kShards = 2;
constexpr size_t kWarmupSyncs = 2;  // per client, on each fresh host
constexpr size_t kWritesPerSlice = 10;
constexpr char kProtocol[] = "quadtree";

rsr::recon::ProtocolParams Params() {
  rsr::recon::ProtocolParams params;
  params.quadtree.k = 16;
  params.riblt.k = 1024;  // probes: riblt-oneshot at a 1 % batch delta
  return params;
}

struct Inputs {
  rsr::recon::ProtocolContext ctx;
  rsr::recon::ProtocolParams params;
  Alternation alt;
  std::vector<PointSet> replicas;
  std::vector<rsr::transport::Message> frames;
  /// expected[replica]: the driver against the canonical set, which every
  /// read sees, since each slice's reads precede its writes.
  std::vector<rsr::recon::ReconResult> expected;
  const PointSet& canonical() const { return alt.states[0]; }
};

bool MakeInputs(uint64_t seed, Inputs* in) {
  in->ctx = Context(seed);
  in->params = Params();
  if (!MakeAlternation(Canonical(in->ctx, kSetSize, seed * 7919 + 1),
                       in->ctx.universe, seed * 31 + 5, &in->alt)) {
    return false;
  }
  in->replicas.resize(kReplicas);
  in->frames.resize(kReplicas);
  ParallelFor(kReplicas, 2, [&](size_t i) {
    in->replicas[i] = DriftedReplica(in->canonical(), in->ctx.universe,
                                     seed * 104729 + 17 * i);
    in->frames[i] = AliceFrame(kProtocol, in->ctx, in->params, in->replicas[i]);
  });
  in->expected.resize(kReplicas);
  ParallelFor(kReplicas, 2, [&](size_t r) {
    in->expected[r] = DriverResult(kProtocol, in->ctx, in->params,
                                   in->replicas[r], in->canonical());
  });
  return true;
}

std::unique_ptr<rsr::server::AsyncSyncServer> StartHost(const Inputs& in) {
  rsr::server::AsyncSyncServerOptions options;
  options.context = in.ctx;
  options.params = in.params;
  options.shards = kShards;
  auto host = std::make_unique<rsr::server::AsyncSyncServer>(in.canonical(),
                                                             options);
  if (!host->Start(rsr::net::TcpListener::Listen("127.0.0.1", 0))) {
    return nullptr;
  }
  return host;
}

/// Per-client tallies of one slice.
struct ClientTally {
  Samples sync_s;
  uint64_t ok = 0, failed = 0;
  double up = 0.0, down = 0.0;
  SyncCounts counts;
  std::vector<std::string> failures;
};

/// Reads: kClients closed-loop replayers for one slice of `seconds`,
/// after `warmup` unmeasured syncs per client.
Window ReadWindow(const Inputs& in, uint16_t port, double seconds,
                  size_t warmup, bool trace, Report* report, Tracer* tracer,
                  SyncCounts* counts) {
  Phase phase(kClients);
  std::vector<ClientTally> tallies(kClients);
  std::vector<SpanBuffer> buffers;
  for (size_t t = 0; t < kClients; ++t) buffers.emplace_back(trace, t + 1);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ClientTally& tally = tallies[t];
      SpanBuffer& spans = buffers[t];
      size_t next = t;
      // One measured sync; returns the CPU spent checking it.
      auto one = [&] {
        const size_t r = next % kReplicas;
        next += kClients;
        const uint64_t op = spans.NewOp();
        const double t0 = WallSeconds();
        const ReplayedSync sync =
            ReplaySync(port, kProtocol, in.frames[r], in.replicas[r].size(),
                       in.ctx.universe, &spans, op);
        const double t1 = WallSeconds();
        spans.Record("sync", op, op, 0, t0, t1);
        const double c0 = ThreadCpuSeconds();
        const uint64_t gen = sync.outcome.server_generation;
        if (gen == 0 &&
            rsr::bench::MatchesDriver(sync.outcome, in.expected[r])) {
          ++tally.ok;
        } else {
          ++tally.failed;
          if (tally.failures.size() < 4) {
            tally.failures.push_back(
                "serve-replay: replica " + std::to_string(r) + " generation " +
                std::to_string(gen) + " mismatch " + sync.outcome.error_detail);
          }
        }
        tally.sync_s.Add(t1 - t0);
        tally.up += static_cast<double>(sync.up_bytes);
        tally.down += static_cast<double>(sync.down_bytes);
        tally.counts.Add(sync.outcome);
        return ThreadCpuSeconds() - c0;
      };
      SpanBuffer idle(false, 0);
      for (size_t i = 0; i < warmup; ++i) {
        const size_t r = next % kReplicas;
        next += kClients;
        ReplaySync(port, kProtocol, in.frames[r], in.replicas[r].size(),
                   in.ctx.universe, &idle, 0);
      }
      phase.WaitOpen();
      const double cpu0 = ThreadCpuSeconds();
      double excluded = 0.0;
      while (phase.open()) excluded += one();
      phase.WorkerDone(ThreadCpuSeconds() - cpu0, excluded);
    });
  }
  phase.Run(seconds);
  for (std::thread& c : clients) c.join();
  phase.Finish();

  Window w;
  for (ClientTally& tally : tallies) {
    w.sync_s.Append(tally.sync_s);
    w.syncs += tally.ok + tally.failed;
    report->attempted += tally.ok + tally.failed;
    report->failed += tally.failed;
    for (const std::string& why : tally.failures) report->Note(why);
    w.up_bytes += tally.up;
    w.down_bytes += tally.down;
    counts->Merge(tally.counts);
  }
  w.wall_s = phase.wall();
  w.repair_s = w.sync_s;  // every served sync runs the quadtree protocol
  if (w.syncs > 0) {
    w.up_bytes /= static_cast<double>(w.syncs);
    w.down_bytes /= static_cast<double>(w.syncs);
  }
  w.TakeCpu(phase, phase.worker_cpu() - phase.excluded_cpu());
  w.rss_mb = ProgramPeakMb();
  for (const SpanBuffer& b : buffers) tracer->Adopt(b);
  return w;
}

/// Writes: kWritesPerSlice back-to-back batches on the idle host, each
/// checked against the sequence its generation names.
Window WriteWindow(const Inputs& in, rsr::server::AsyncSyncServer* host,
                   bool trace, Report* report, Tracer* tracer) {
  SpanBuffer spans(trace, kClients + 1);
  Window w;
  double due = WallSeconds();
  for (size_t i = 0; i < kWritesPerSlice; ++i) {
    // Even generations hold the initial multiset: apply the batch.
    const bool forward = host->snapshot()->generation() % 2 == 0;
    const rsr::workload::ChurnBatch& b =
        forward ? in.alt.batch : in.alt.inverse;
    const uint64_t op = spans.NewOp();
    const double t0 = WallSeconds();
    const auto snap = host->ApplyUpdate(b.inserts, b.erases);
    const double t1 = WallSeconds();
    spans.Record("write", op, op, 0, t0, t1);
    w.write_s.Add(t1 - t0);
    w.write_late_s.Add(t0 - due);
    due = t1;  // closed loop: the next write is due when this one ends
    const uint64_t gen = snap->generation();
    report->Attempt(
        gen != 0 && snap->points() == in.alt.states[Alternation::StateOf(gen)]);
  }
  w.rss_mb = ProgramPeakMb();
  tracer->Adopt(spans);
  return w;
}

/// Slices of `seconds` in all. Each slice builds a fresh host (SetUpSlice),
/// warms up the reader, reads, then writes.
Windows RunSlices(const Inputs& in,
                  std::unique_ptr<rsr::server::AsyncSyncServer>* host,
                  double seconds, bool trace, Report* report, Tracer* tracer,
                  Samples* setups, SyncCounts* counts) {
  Windows out;
  const size_t slices = SliceCount(seconds);
  for (size_t i = 0; i < slices; ++i) {
    if (!SetUpSlice(host, [&] { return StartHost(in); }, setups)) {
      report->Fail("serve-replay: cannot start the host");
      break;
    }
    out.push_back(ReadWindow(in, (*host)->port(),
                             seconds / static_cast<double>(slices),
                             kWarmupSyncs, trace, report, tracer, counts));
    out.push_back(WriteWindow(in, host->get(), trace, report, tracer));
  }
  return out;
}

}  // namespace

int RunServeReplay(const Args& args, Report* report, Tracer* tracer) {
  if (!CheckThreadBudget(kClients, kShards)) return 2;
  Inputs in;
  if (!MakeInputs(args.seed, &in)) {
    std::fprintf(stderr,
                 "serve-replay: the batch and its inverse do not alternate "
                 "between two point sequences for seed %llu\n",
                 static_cast<unsigned long long>(args.seed));
    return 2;
  }

  if (!StartMemoryMeter()) {
    std::fprintf(stderr, "serve-replay: cannot reset the peak RSS mark\n");
    return 2;
  }

  std::unique_ptr<rsr::server::AsyncSyncServer> host;
  Samples setups;
  SyncCounts counts;
  if (!args.trace) {
    const Windows windows = RunSlices(in, &host, args.seconds, false, report,
                                      tracer, &setups, &counts);
    SetEndToEnd(windows, setups, report);
    return 0;
  }

  // Trace mode: untraced and traced slices of half the run each, so their
  // difference is the tracing overhead; then the probes.
  const Windows plain = RunSlices(in, &host, args.seconds / 2, false, report,
                                  tracer, &setups, &counts);
  SyncCounts traced_counts;
  const Windows traced = RunSlices(in, &host, args.seconds / 2, true, report,
                                   tracer, &setups, &traced_counts);
  SetOverhead(plain, traced, report);
  report->Set("net.connect_ms", 1e3 * tracer->Durations("net.connect").Median(),
              "ms");
  report->Set("server.accept_wait_ms",
              1e3 * tracer->Durations("server.accept_wait").Median(), "ms");
  report->Set("server.session_ms",
              1e3 * tracer->Durations("server.session").Median(), "ms");
  SetWriterLayer(traced, report);
  report->Set("recon.chosen_level", traced_counts.levels.Mean(), "level");
  report->Set("recon.decoded_entries", traced_counts.entries.Mean(), "count");
  report->Set("server.generations_served",
              static_cast<double>(traced_counts.generations.size()), "count");
  report->Set("replica.tail_rounds", 0, "count");
  report->Set("replica.repair_rounds", 0, "count");
  report->Set("replica.repair_exact_share", 0, "ratio");

  ProbeInputs probe;
  probe.ctx = in.ctx;
  probe.params = in.params;
  probe.canonical = &in.canonical();
  probe.protocol = kProtocol;
  probe.alice = &in.replicas[0];
  probe.alice_frame = in.frames[0];
  for (size_t i = 0; i < 20; ++i) {
    probe.batches.push_back(i % 2 == 0 ? in.alt.batch : in.alt.inverse);
  }
  probe.repair_alice = &in.alt.states[1];
  probe.repair_bob = &in.canonical();
  RunProbes(probe, report);
  return 0;
}

}  // namespace perfbench
