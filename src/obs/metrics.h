// Typed metrics registry for the serving stack.
//
// Three instrument kinds — Counter, Gauge, Histogram — hang off a
// MetricsRegistry keyed by (family name, label set). The hot path is
// lock-free by construction: recording is relaxed atomic arithmetic on
// instruments whose addresses are stable for the registry's lifetime
// (instruments are heap-allocated and never destroyed before the
// registry), so a reactor thread observes a latency with one relaxed
// bucket increment (plus one relaxed sum accumulate) and no mutex.
// The registry's own mutex guards only registration and read-side
// snapshots/rendering — paths that run once per session or per scrape,
// never per frame.
//
// Read side: RenderPrometheus() emits the Prometheus text exposition
// format (one "# HELP"/"# TYPE" block per family, cumulative `le`
// buckets, `_sum`/`_count` series), which is what the "@stats" admin
// verb and the syncd `--metrics-port` HTTP responder serve verbatim.
// HistogramSnapshot::Quantile() extracts p50/p90/p99 by linear
// interpolation within the owning bucket — the same estimate PromQL's
// histogram_quantile() computes. See DESIGN.md §12.

#ifndef RSR_OBS_METRICS_H_
#define RSR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace obs {

/// Label key/value pairs identifying one instrument within a family.
/// Order-sensitive: register and look up with the same order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count. Record cost: one relaxed
/// fetch_add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, staleness, generation).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Returns the post-add value so callers can feed a high-water mark.
  int64_t Add(int64_t delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  /// Monotonic max (CAS loop): lifts the gauge to `v` if higher.
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Read-side copy of a histogram: per-bucket (non-cumulative) counts,
/// total count, and the exact sum of observations.
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< Upper bounds; implicit +Inf last.
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket holding rank q*count; the +Inf bucket clamps to the top
  /// finite bound. 0 when empty.
  double Quantile(double q) const;
};

/// Fixed-boundary histogram. Observe() is a branchless-ish binary search
/// over the (immutable) bounds plus one relaxed bucket increment and one
/// relaxed sum accumulate — no locks, safe from any thread. The total
/// count is derived from the buckets at snapshot time rather than kept
/// as a third atomic.
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bounds (Prometheus `le`
  /// semantics: an observation equal to a bound lands in that bucket).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  const std::vector<double> bounds_;
  const std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Exponential-ish seconds ladder from 1 µs to 10 s — fits both
/// event-loop iterations (µs) and full sync sessions (ms..s).
std::vector<double> DefaultLatencyBounds();

/// Power-of-two depth ladder for queue/batch-size histograms.
std::vector<double> DefaultDepthBounds();

/// Instrument namespace + exposition surface. Get* registers on first
/// use and returns the same stable pointer thereafter; a name/kind
/// mismatch (one family, two kinds) checks fatally. All methods are
/// thread-safe; only Get*/snapshot/render take the mutex.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds,
                          const LabelSet& labels = {});

  /// Prometheus text exposition format, families in name order,
  /// instruments in registration order within a family.
  std::string RenderPrometheus() const;

  /// Read-side lookups (0 / nullopt when the instrument is absent).
  uint64_t CounterValue(const std::string& name,
                        const LabelSet& labels = {}) const;
  int64_t GaugeValue(const std::string& name,
                     const LabelSet& labels = {}) const;
  std::optional<HistogramSnapshot> SnapshotHistogram(
      const std::string& name, const LabelSet& labels = {}) const;
  /// Merges every label set of a histogram family into one snapshot
  /// (all instruments of a family share bounds). nullopt if absent.
  std::optional<HistogramSnapshot> SnapshotHistogramSum(
      const std::string& name) const;
  /// Sum of a counter family across the label sets carrying every label
  /// of `match` (all of them when `match` is empty).
  uint64_t SumCounters(const std::string& name,
                       const LabelSet& match = {}) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Instrument> instruments;  ///< Registration order.
  };

  Instrument* FindOrCreate(const std::string& name, const std::string& help,
                           Kind kind, const LabelSet& labels)
      RSR_REQUIRES(mu_);
  const Instrument* Find(const std::string& name, Kind kind,
                         const LabelSet& labels) const RSR_REQUIRES(mu_);

  /// Guards registration and the read-side walks only — instrument
  /// record paths (Counter::Inc etc.) are lock-free relaxed atomics on
  /// pointers whose addresses outlive the registry.
  mutable Mutex mu_;
  std::map<std::string, Family> families_ RSR_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace rsr

#endif  // RSR_OBS_METRICS_H_
