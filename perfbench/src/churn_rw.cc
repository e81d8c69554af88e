// churn-rw: writes beside reads.
//
// The async host holds n = 2^14 points. One closed-loop reader runs the
// full SyncClient::Sync (Alice builds her quadtree sketch each time) from
// four drifted replicas, while one open-loop writer applies a 1 % balanced
// churn batch every 200 ms. Each batch is the inverse of the one before
// (see Alternation): every read stays decodable and is checked against the
// driver on the set its "@accept" generation names. Writes are timed from
// their due time. Every slice starts on a freshly built host, so set-up is
// sampled across the run; the previous host is torn down before the
// set-up clock starts.

#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/tcp.h"
#include "server/async_sync_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kSetSize = size_t{1} << 14;
constexpr size_t kReplicas = 4;
constexpr size_t kReaders = 1;
constexpr size_t kShards = 2;
constexpr double kWritePeriod = 0.2;  // 5 batches/s
constexpr char kProtocol[] = "quadtree";

rsr::recon::ProtocolParams Params() {
  rsr::recon::ProtocolParams params;
  params.quadtree.k = 64;  // room for a 1 % batch beside the drift
  params.riblt.k = 1024;   // probes: riblt-oneshot at a 1 % batch delta
  return params;
}

struct Inputs {
  rsr::recon::ProtocolContext ctx;
  rsr::recon::ProtocolParams params;
  Alternation alt;
  std::vector<PointSet> replicas;
  std::vector<rsr::transport::Message> frames;  ///< probes only
  /// expected[replica * Alternation::kStates + state]
  std::vector<rsr::recon::ReconResult> expected;
};

bool MakeInputs(uint64_t seed, Inputs* in) {
  in->ctx = Context(seed);
  in->params = Params();
  if (!MakeAlternation(Canonical(in->ctx, kSetSize, seed * 7919 + 2),
                       in->ctx.universe, seed * 31 + 6, &in->alt)) {
    return false;
  }

  in->replicas.resize(kReplicas);
  in->frames.resize(kReplicas);
  ParallelFor(kReplicas, 2, [&](size_t r) {
    in->replicas[r] =
        DriftedReplica(in->alt.states[0], in->ctx.universe, seed * 104729 + 17 * r);
    in->frames[r] = AliceFrame(kProtocol, in->ctx, in->params, in->replicas[r]);
  });
  in->expected.resize(kReplicas * Alternation::kStates);
  ParallelFor(kReplicas * Alternation::kStates, 2, [&](size_t i) {
    in->expected[i] = DriverResult(kProtocol, in->ctx, in->params,
                                   in->replicas[i / Alternation::kStates],
                                   in->alt.states[i % Alternation::kStates]);
  });
  return true;
}

std::unique_ptr<rsr::server::AsyncSyncServer> StartHost(const Inputs& in) {
  rsr::server::AsyncSyncServerOptions options;
  options.context = in.ctx;
  options.params = in.params;
  options.shards = kShards;
  auto host = std::make_unique<rsr::server::AsyncSyncServer>(in.alt.states[0],
                                                             options);
  if (!host->Start(rsr::net::TcpListener::Listen("127.0.0.1", 0))) {
    return nullptr;
  }
  return host;
}

struct ReaderTally {
  Samples sync_s;
  uint64_t ok = 0, failed = 0;
  double up = 0.0, down = 0.0, cpu = 0.0;
  SyncCounts counts;
  std::vector<std::string> failures;
};

Window RunWindow(const Inputs& in, rsr::server::AsyncSyncServer* host,
                 double seconds, bool trace, Report* report, Tracer* tracer,
                 SyncCounts* counts) {
  Phase phase(kReaders + 1);
  std::vector<ReaderTally> tallies(kReaders);
  std::vector<SpanBuffer> buffers;
  for (size_t t = 0; t <= kReaders; ++t) buffers.emplace_back(trace, t + 1);
  rsr::server::SyncClientOptions client_options;
  client_options.context = in.ctx;
  client_options.params = in.params;
  const uint16_t port = host->port();

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      const rsr::server::SyncClient client(client_options);
      ReaderTally& tally = tallies[t];
      SpanBuffer& spans = buffers[t];
      size_t next = t;
      {  // warm-up
        auto stream = rsr::net::TcpStream::Connect("127.0.0.1", port);
        if (stream != nullptr) {
          client.Sync(stream.get(), kProtocol, in.replicas[next % kReplicas]);
        }
      }
      phase.WaitOpen();
      const double cpu0 = ThreadCpuSeconds();
      double excluded = 0.0;
      while (phase.open()) {
        const size_t r = next % kReplicas;
        next += kReaders;
        const uint64_t op = spans.NewOp();
        const double t0 = WallSeconds();
        auto stream = rsr::net::TcpStream::Connect("127.0.0.1", port);
        const double t1 = WallSeconds();
        rsr::server::SyncOutcome outcome;
        outcome.error_detail = "connect failed";
        if (stream != nullptr) {
          outcome = client.Sync(stream.get(), kProtocol, in.replicas[r]);
        }
        const double t2 = WallSeconds();
        spans.Record("sync", op, op, 0, t0, t2);
        spans.Record("net.connect", op, spans.NewId(), op, t0, t1);
        spans.Record("client.sync", op, spans.NewId(), op, t1, t2);
        const double c0 = ThreadCpuSeconds();
        const size_t state = Alternation::StateOf(outcome.server_generation);
        if (rsr::bench::MatchesDriver(outcome,
                                      in.expected[r * Alternation::kStates + state])) {
          ++tally.ok;
        } else {
          ++tally.failed;
          if (tally.failures.size() < 4) {
            tally.failures.push_back(
                "churn-rw: replica " + std::to_string(r) + " generation " +
                std::to_string(outcome.server_generation) + " mismatch " +
                outcome.error_detail);
          }
        }
        tally.sync_s.Add(t2 - t0);
        tally.up += static_cast<double>(outcome.bytes_sent);
        tally.down += static_cast<double>(outcome.bytes_received);
        tally.counts.Add(outcome);
        excluded += ThreadCpuSeconds() - c0;
      }
      const double cpu = ThreadCpuSeconds() - cpu0;
      tally.cpu = cpu - excluded;
      phase.WorkerDone(cpu, excluded);
    });
  }

  // The open-loop writer: batch i is due at window start + (i + 1) · period.
  Samples write_s, late_s;
  uint64_t writes_ok = 0, writes_failed = 0;
  threads.emplace_back([&] {
    SpanBuffer& spans = buffers[kReaders];
    phase.WaitOpen();
    const double cpu0 = ThreadCpuSeconds();
    const double start = WallSeconds();
    double excluded = 0.0;
    for (size_t i = 0;; ++i) {
      const double due = start + static_cast<double>(i + 1) * kWritePeriod;
      if (!phase.SleepUntil(due)) break;
      // Even generations hold the initial multiset: apply the batch.
      const bool forward = host->snapshot()->generation() % 2 == 0;
      const rsr::workload::ChurnBatch& b = forward ? in.alt.batch : in.alt.inverse;
      const uint64_t op = spans.NewOp();
      const double t0 = WallSeconds();
      const auto snap = host->ApplyUpdate(b.inserts, b.erases);
      const double t1 = WallSeconds();
      spans.Record("write", op, op, 0, due, t1);
      write_s.Add(t1 - due);
      late_s.Add(t0 - due);
      const double c0 = ThreadCpuSeconds();
      const uint64_t gen = snap->generation();
      if (gen != 0 && snap->points() == in.alt.states[Alternation::StateOf(gen)]) {
        ++writes_ok;
      } else {
        ++writes_failed;
      }
      excluded += ThreadCpuSeconds() - c0;
    }
    phase.WorkerDone(ThreadCpuSeconds() - cpu0, excluded);
  });

  phase.Run(seconds);
  for (std::thread& t : threads) t.join();
  phase.Finish();

  Window w;
  double reader_cpu = 0.0;
  for (ReaderTally& tally : tallies) {
    w.sync_s.Append(tally.sync_s);
    w.syncs += tally.ok + tally.failed;
    report->attempted += tally.ok + tally.failed;
    report->failed += tally.failed;
    for (const std::string& why : tally.failures) report->Note(why);
    w.up_bytes += tally.up;
    w.down_bytes += tally.down;
    reader_cpu += tally.cpu;
    counts->Merge(tally.counts);
  }
  report->attempted += writes_ok + writes_failed;
  report->failed += writes_failed;
  if (writes_failed > 0) {
    report->Note("churn-rw: a write published an unexpected set");
  }
  w.wall_s = phase.wall();
  w.repair_s = w.sync_s;  // every served sync runs the quadtree protocol
  if (w.syncs > 0) {
    w.up_bytes /= static_cast<double>(w.syncs);
    w.down_bytes /= static_cast<double>(w.syncs);
  }
  w.write_s = write_s;
  w.write_late_s = late_s;
  w.TakeCpu(phase, reader_cpu);
  w.rss_mb = ProgramPeakMb();
  for (const SpanBuffer& b : buffers) tracer->Adopt(b);
  return w;
}

/// Slices of `seconds`, each on a freshly built host (SetUpSlice); prints
/// how the writer kept to its schedule.
Windows RunWindows(const Inputs& in,
                   std::unique_ptr<rsr::server::AsyncSyncServer>* host,
                   double seconds, bool trace, Report* report, Tracer* tracer,
                   Samples* setups, SyncCounts* counts) {
  Windows out;
  const size_t slices = SliceCount(seconds);
  for (size_t i = 0; i < slices; ++i) {
    if (!SetUpSlice(host, [&] { return StartHost(in); }, setups)) {
      report->Fail("churn-rw: cannot start the host");
      break;
    }
    out.push_back(RunWindow(in, host->get(),
                            seconds / static_cast<double>(slices), trace,
                            report, tracer, counts));
  }
  uint64_t syncs = 0;
  size_t writes = 0;
  for (const Window& w : out) {
    syncs += w.syncs;
    writes += w.write_s.size();
  }
  const Samples late = WriteLateness(out);
  std::printf(
      "# churn-rw: %llu syncs (%llu decoded), %zu writes, writer late p50 "
      "%.3f ms max %.3f ms\n",
      static_cast<unsigned long long>(syncs),
      static_cast<unsigned long long>(counts->decoded), writes,
      1e3 * late.Median(), 1e3 * late.Max());
  return out;
}

}  // namespace

int RunChurnRw(const Args& args, Report* report, Tracer* tracer) {
  if (!CheckThreadBudget(kReaders + 1, kShards)) return 2;  // + the writer
  Inputs in;
  if (!MakeInputs(args.seed, &in)) {
    std::fprintf(stderr,
                 "churn-rw: the batch and its inverse do not alternate "
                 "between two point sequences for seed %llu\n",
                 static_cast<unsigned long long>(args.seed));
    return 2;
  }

  std::printf("# churn-rw: batch of %zu replacements on n = %zu\n",
              in.alt.batch.erases.size(), kSetSize);

  if (!StartMemoryMeter()) {
    std::fprintf(stderr, "churn-rw: cannot reset the peak RSS mark\n");
    return 2;
  }

  std::unique_ptr<rsr::server::AsyncSyncServer> host;
  Samples setups;
  SyncCounts counts;
  if (!args.trace) {
    const Windows windows = RunWindows(in, &host, args.seconds, false, report,
                                       tracer, &setups, &counts);
    SetEndToEnd(windows, setups, report);
    return 0;
  }

  const Windows plain = RunWindows(in, &host, args.seconds / 2, false, report,
                                   tracer, &setups, &counts);
  SyncCounts traced_counts;
  const Windows traced = RunWindows(in, &host, args.seconds / 2, true, report,
                                    tracer, &setups, &traced_counts);
  SetOverhead(plain, traced, report);

  report->Set("net.connect_ms", 1e3 * tracer->Durations("net.connect").Median(),
              "ms");
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
  probe.canonical = &in.alt.states[0];
  probe.protocol = kProtocol;
  probe.alice = &in.replicas[0];
  probe.alice_frame = in.frames[0];
  for (size_t i = 0; i < 20; ++i) {
    probe.batches.push_back(i % 2 == 0 ? in.alt.batch : in.alt.inverse);
  }
  probe.repair_alice = &in.alt.states[1];
  probe.repair_bob = &in.alt.states[0];
  probe.replay_port = host == nullptr ? 0 : host->port();
  probe.replay_protocol = kProtocol;
  probe.replay_frame = in.frames[0];
  probe.replay_set_size = kSetSize;
  RunProbes(probe, report);
  return 0;
}

}  // namespace perfbench
