// Shared pieces of the sync-server benchmark: command line, clocks,
// sample sets, the metric report, the in-memory span recorder, the
// workload input model, and the replayed-sync client.
//
// Everything here reaches the system through public calls only (the
// serving hosts, the handshake codec, the registry sessions, the replica
// mesh and the sketch store), so a host or store refactor can be measured
// without editing the benchmark.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "recon/registry.h"
#include "server/sync_client.h"
#include "transport/message.h"
#include "util/random.h"
#include "workload/churn.h"

namespace perfbench {

using rsr::Point;
using rsr::PointSet;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;  ///< Span dump (JSON lines) written at exit.
};

// ------------------------------------------------------------- clocks
double WallSeconds();          ///< steady_clock, seconds.
double ThreadCpuSeconds();     ///< CPU of the calling thread.
double ProcessCpuSeconds();    ///< CPU of every thread of the process.
size_t OnlineCpus();           ///< CPUs this process may run on (nproc).

// The program's memory, apart from the benchmark's own inputs: the peak
// resident set since StartMemoryMeter() minus the resident set at that
// call. Reads /proc/self/status and restarts the kernel's peak mark
// through /proc/self/clear_refs (Linux).
/// Call once the inputs are built, before set-up: hands freed heap back to
/// the kernel, takes the resident set as the baseline and restarts the
/// peak there. False if the kernel refuses.
bool StartMemoryMeter();
/// Peak resident set since StartMemoryMeter() minus the baseline, MB.
double ProgramPeakMb();

/// A set of timings or counts; quantiles by linear interpolation.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Max() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// The metrics of one run, in the order they are set, plus the run's
/// correctness tally. Printed as the last line of stdout.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::string& Unit(const std::string& name) const;
  const std::vector<std::string>& names() const { return order_; }

  /// One operation attempted; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A failed check that is not one operation (e.g. final divergence).
  void Fail(const std::string& why) {
    ++failed;
    Note(why);
  }
  /// Keeps the first few failure reasons for stderr.
  void Note(const std::string& why) {
    if (failures.size() < 8) failures.push_back(why);
  }

  std::string ToJson(const std::vector<std::string>& names) const;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few reasons, for stderr.

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

// --------------------------------------------------------------- spans
/// One recorded span: a layer boundary crossed by the benchmark's own
/// calls. Spans of one operation share `op`; `parent` names the span that
/// caused this one (0 = the operation's root).
struct Span {
  const char* name = "";
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Per-thread span buffer. Recording is a vector push; nothing is written
/// until Tracer::Dump at exit. A disabled buffer records nothing.
class SpanBuffer {
 public:
  SpanBuffer(bool enabled, uint64_t thread_tag)
      : enabled_(enabled), tag_(thread_tag << 40) {}
  /// Starts a new operation (root span id) and returns its id.
  uint64_t NewOp() { return tag_ | ++next_; }
  uint64_t NewId() { return tag_ | ++next_; }
  void Record(const char* name, uint64_t op, uint64_t id, uint64_t parent,
              double start, double end) {
    if (enabled_) spans_.push_back({name, op, id, parent, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t tag_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Collects the thread buffers of a run and writes them out at exit.
class Tracer {
 public:
  void Adopt(const SpanBuffer& buffer);
  /// Durations (seconds) of every span called `name`.
  Samples Durations(const std::string& name) const;
  /// Writes every span as one JSON object per line. False on I/O error.
  bool Dump(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------- input model
/// Shared coins of every workload: Δ = 2^20, d = 2, protocol seed derived
/// from the workload seed.
rsr::recon::ProtocolContext Context(uint64_t seed);

/// Clustered canonical set of n points.
PointSet Canonical(const rsr::recon::ProtocolContext& ctx, size_t n,
                   uint64_t seed);

/// E18's drift model: Gaussian σ = 0.5 per coordinate plus 4 planted
/// uniform outliers, so quadtree decode settles on a coarser level.
PointSet DriftedReplica(const PointSet& base, const rsr::Universe& universe,
                        uint64_t seed);

/// A 1 % churn batch and its inverse, applied alternately to a set: after
/// the first write the set alternates between two point sequences.
/// Sessions see point order, so a served result is checked against the
/// exact sequence its generation names: 0 the initial set, odd generations
/// the set after the batch, even ones the set after its inverse.
struct Alternation {
  static constexpr size_t kStates = 3;
  rsr::workload::ChurnBatch batch, inverse;
  PointSet states[kStates];
  static size_t StateOf(uint64_t generation) {
    return generation == 0 ? 0 : (generation % 2 == 1 ? 1 : 2);
  }
};

/// Draws the batch from `seed` against `initial`. Erases remove the first
/// equal point, so a drawn pair is kept only when its erased point occurs
/// once in the set and its inserted point nowhere in it nor twice in the
/// batch; the few pairs that break this (duplicates, a replacement equal to
/// its victim) are dropped. False if the sequences still do not alternate.
bool MakeAlternation(PointSet initial, const rsr::Universe& universe,
                     uint64_t seed, Alternation* out);

/// Runs fn(i) for i in [0, count) on `threads` threads (input set-up
/// only, before anything is timed).
void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& fn);

/// The in-process reference: recon::DrivePair over fresh registry
/// sessions (what Reconciler::Run does).
rsr::recon::ReconResult DriverResult(const std::string& protocol,
                                     const rsr::recon::ProtocolContext& ctx,
                                     const rsr::recon::ProtocolParams& params,
                                     const PointSet& alice,
                                     const PointSet& bob);

/// Alice's opening frame for `protocol` over `points` (one-shot
/// protocols send everything in it).
rsr::transport::Message AliceFrame(const std::string& protocol,
                                   const rsr::recon::ProtocolContext& ctx,
                                   const rsr::recon::ProtocolParams& params,
                                   const PointSet& points);

// ------------------------------------------------------ replayed sync
/// One replayed sync over loopback TCP: "@hello", wait for "@accept",
/// send the pre-encoded Alice frame, wait for "@result". The outcome is
/// packaged as a server::SyncOutcome so it settles through
/// bench::MatchesDriver like a SyncClient result.
struct ReplayedSync {
  rsr::server::SyncOutcome outcome;
  size_t up_bytes = 0;
  size_t down_bytes = 0;
};

ReplayedSync ReplaySync(uint16_t port, const std::string& protocol,
                        const rsr::transport::Message& alice_frame,
                        size_t client_set_size,
                        const rsr::Universe& universe, SpanBuffer* spans,
                        uint64_t op);

// ------------------------------------------------------------- phase
/// One measurement window shared by the benchmark's own threads. Each
/// worker warms up, waits in WaitOpen(), loops while open(), then calls
/// WorkerDone() with the CPU it spent in the window and the part of it
/// that was the benchmark's own checking (excluded from the metrics).
/// The main thread calls Run() and, after joining the workers, Finish().
class Phase {
 public:
  explicit Phase(size_t workers) : workers_(workers) {}

  void WaitOpen();
  bool open() const { return !stop_.load(std::memory_order_relaxed); }
  /// Blocks until the wall clock reaches `wall_time` or the window
  /// closes; false once closed (open-loop workers).
  bool SleepUntil(double wall_time);
  void WorkerDone(double thread_cpu, double excluded_cpu);

  /// Waits for every worker to warm up, opens the window for `seconds`,
  /// then closes it.
  void Run(double seconds);
  /// Work-bounded window: opens it and waits until every worker has
  /// called WorkerDone().
  void RunUntilDone();
  void Finish();

  double wall() const { return wall_end_ - wall_start_; }
  double process_cpu() const { return process_cpu_; }
  /// CPU of the workers and of the main thread in the window.
  double worker_cpu() const { return worker_cpu_; }
  double main_cpu() const { return main_cpu_; }
  double excluded_cpu() const { return excluded_cpu_; }

 private:
  void Open();

  const size_t workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t warm_ = 0;
  size_t done_ = 0;
  bool opened_ = false;
  std::atomic<bool> stop_{false};
  double wall_start_ = 0.0, wall_end_ = 0.0;
  double process_cpu_start_ = 0.0, process_cpu_ = 0.0;
  double main_cpu_start_ = 0.0, main_cpu_ = 0.0;
  double worker_cpu_ = 0.0, excluded_cpu_ = 0.0;
};

// ------------------------------------------------------- run plumbing
/// Refuses to continue when load + host threads exceed nproc. Returns
/// false (after printing why) when the budget does not fit.
bool CheckThreadBudget(size_t load_threads, size_t host_threads);

/// Median wall time of `reps` calls of `fn`, seconds.
double MedianSeconds(size_t reps, const std::function<void()>& fn);

/// Set-up before each measured slice: kSetupsPerSlice timed builds with
/// `make` (which returns a unique_ptr, null on failure) into `*out`, each
/// sample added to `setups`; the last build is kept. The previous build is
/// destroyed before the clock starts, so a sample never holds teardown.
/// Set-up is thus sampled all through the run, like every other metric, so
/// a few seconds of a slow CPU move a few samples, not the median. False if
/// a build failed.
constexpr size_t kSetupsPerSlice = 2;
template <typename T, typename Make>
bool SetUpSlice(std::unique_ptr<T>* out, Make make, Samples* setups) {
  for (size_t i = 0; i < kSetupsPerSlice; ++i) {
    out->reset();
    const double t0 = WallSeconds();
    std::unique_ptr<T> built = make();
    const double t1 = WallSeconds();
    *out = std::move(built);
    if (*out == nullptr) return false;
    setups->Add(t1 - t0);
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
