// Canonical sketch store: compute the serving sketches once, then keep
// them current under churn.
//
// The serving hosts reconcile one canonical point set against every
// connecting replica. All of the canonical side's sketches — quadtree
// per-level histogram IBLTs, adaptive strata probes, the exact baseline's
// strata estimator, MLSH per-level RIBLTs, the one-shot exact-key RIBLT —
// are linear in the point multiset, so there is no reason to pay the
// set-proportional build per connection (which is what made sketch
// protocols serve slower than full transfer in BENCH_E16): the store
// builds each sketch once from public parameters and afterwards maintains
// it with O(levels) Insert/Erase calls per mutated point.
//
// Snapshots: readers (sessions) get an immutable, generation-stamped
// SketchSnapshot — the point set plus its sketches — behind a shared_ptr.
// ApplyUpdate never mutates a published snapshot; it clones the O(k·levels)
// sketch state, applies the increments, and publishes a new snapshot, so
// in-flight sessions pinned to an older generation keep a consistent view
// for as long as they hold the pointer. The generation travels in the
// "@accept" handshake frame, which is what lets a load harness check a
// served result against the exact canonical set it was served from
// (bench/bench_e18_churn.cc).
//
// Width changes: the quadtree histogram value layout depends on |S| via
// HistogramCountBits, and the RIBLT sum-field widths depend on |S| via
// max_entries = 2n + 2 (riblt-oneshot and the MLSH ladder). A batch that
// crosses either boundary (or the first build) takes the from-scratch
// path; every other batch is incremental. See DESIGN.md §9 for the
// linearity argument and the per-protocol cacheability table.

#ifndef RSR_SERVER_SKETCH_STORE_H_
#define RSR_SERVER_SKETCH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "geometry/grid.h"
#include "iblt/iblt.h"
#include "iblt/strata.h"
#include "lshrecon/lsh.h"
#include "obs/metrics.h"
#include "recon/quadtree_recon.h"
#include "recon/registry.h"
#include "recon/sketch_provider.h"
#include "riblt/riblt.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

/// Optional store instrumentation (DESIGN.md §12). Pointers are not owned
/// and must outlive the store; any may be null (that probe is disabled).
struct SketchStoreMetrics {
  obs::Histogram* apply_seconds = nullptr;  ///< ApplyUpdate wall time.
  obs::Counter* rebuilds = nullptr;  ///< From-scratch Rebuild() builds.
  obs::Gauge* generation = nullptr;  ///< Published snapshot generation.
  obs::Gauge* points = nullptr;      ///< Canonical set size.
};

/// Registers the rsr_store_* instruments on `registry` and returns the
/// bundle. The ApplyUpdate latency probe is gated on `latency_probes`
/// (the counters and gauges are per-batch, never hot, and stay on).
SketchStoreMetrics MakeStoreMetrics(obs::MetricsRegistry* registry,
                                    bool latency_probes);

struct SketchStoreOptions {
  /// Shared public coins and protocol tunables; must equal what the host
  /// passes to the registry when creating sessions, or the provider's
  /// config checks will (safely) decline every request.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  /// When false the store maintains only the point set — snapshots decline
  /// every sketch request and sessions rebuild from the set. This is the
  /// rebuild baseline the churn bench compares against.
  bool materialize = true;
  /// Instrumentation hooks (see MakeStoreMetrics); default: all disabled.
  SketchStoreMetrics metrics;
};

/// One immutable generation of the canonical set and its sketches.
class SketchSnapshot final : public recon::CanonicalSketchProvider {
 public:
  uint64_t generation() const { return generation_; }
  const PointSet& points() const { return points_; }
  size_t size() const { return points_.size(); }

  std::optional<Iblt> QuadtreeLevelIblt(const IbltConfig& config,
                                        int level) const override;
  std::optional<StrataEstimator> QuadtreeLevelProbe(
      const StrataConfig& config, int level) const override;
  std::optional<StrataEstimator> ExactStrata(
      const StrataConfig& config) const override;
  std::shared_ptr<const recon::KeyedPointList> ExactKeyedPoints(
      uint64_t seed) const override;
  std::optional<Riblt> MlshLevelRiblt(const RibltConfig& config,
                                      size_t level_index) const override;
  std::optional<Riblt> OneShotRiblt(const RibltConfig& config) const override;

 private:
  friend class SketchStore;
  SketchSnapshot() = default;

  /// Everything cached for one quadtree level: the histogram IBLT the
  /// one-shot/single-grid sessions subtract, and the strata probe the
  /// adaptive sessions compare.
  struct LevelSketch {
    int level;
    IbltConfig iblt_config;
    Iblt iblt;
    StrataConfig probe_config;
    StrataEstimator probe;
  };

  PointSet points_;
  uint64_t generation_ = 0;
  bool materialized_ = false;
  uint64_t seed_ = 0;

  std::vector<LevelSketch> levels_;
  StrataConfig exact_config_;
  std::optional<StrataEstimator> exact_strata_;
  std::shared_ptr<const recon::KeyedPointList> exact_keyed_;
  std::vector<RibltConfig> mlsh_configs_;
  std::vector<Riblt> mlsh_tables_;
  std::optional<RibltConfig> oneshot_config_;
  std::optional<Riblt> oneshot_;
};

/// The mutable store. Thread-safe: any number of threads may call
/// Snapshot() while one (or several, serialized internally) call
/// ApplyUpdate.
class SketchStore {
 public:
  SketchStore(PointSet canonical, SketchStoreOptions options);

  /// The current generation's immutable snapshot.
  std::shared_ptr<const SketchSnapshot> Snapshot() const;

  /// Applies one batch of mutations — erases first (each removes the first
  /// equal point; erases of absent points are ignored), then inserts —
  /// and publishes a new snapshot, which is also returned. Sketch work is
  /// O((|inserts| + |erases|) · levels), independent of |S|, except when
  /// the batch crosses a histogram-width boundary (see header comment).
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(const PointSet& inserts,
                                                    const PointSet& erases);

  uint64_t generation() const { return Snapshot()->generation(); }
  size_t size() const { return Snapshot()->size(); }

 private:
  struct PointOrder {
    bool operator()(const Point& a, const Point& b) const {
      return PointLess(a, b);
    }
  };
  /// Multiset view of the canonical set (sorted, per-point multiplicity):
  /// drives the occurrence-indexed exact keys and the keyed-list rebuild.
  using PointCounts = std::map<Point, int64_t, PointOrder>;

  /// From-scratch build of snapshot + maintenance state for `points`.
  std::shared_ptr<SketchSnapshot> Rebuild(PointSet points,
                                          uint64_t generation)
      RSR_REQUIRES(mu_);
  /// Pushes generation/size onto the gauges.
  void PublishMetrics() const RSR_REQUIRES(mu_);
  /// Applies one point's insertion (direction +1) or removal (-1) to every
  /// sketch of `snap` and to the maintenance histograms.
  void UpdatePoint(SketchSnapshot* snap, const Point& p, int direction)
      RSR_REQUIRES(mu_);

  const recon::ProtocolContext context_;
  const recon::ProtocolParams params_;  // Resolved()
  const bool materialize_;
  const SketchStoreMetrics metrics_;
  const ShiftedGrid grid_;
  std::vector<int> cached_levels_;
  std::vector<size_t> mlsh_prefixes_;
  std::unique_ptr<lshrecon::MlshFamily> mlsh_family_;

  /// Guards the published snapshot pointer and the incremental
  /// maintenance state. On a replicating host this mutex nests INSIDE
  /// the host's replica_mu_ (replica_mu_ → store mu_; see DESIGN.md
  /// §13) — never take replica_mu_ while holding it.
  mutable Mutex mu_;
  std::shared_ptr<const SketchSnapshot> snapshot_ RSR_GUARDED_BY(mu_);
  /// Per cached level: cell key -> count; the store's own record of the
  /// current histograms, needed to translate a point mutation into the
  /// erase-old-entry / insert-new-entry pair on the level sketches (the
  /// mutated point gives the cell itself).
  std::vector<recon::CellCounts> level_histograms_ RSR_GUARDED_BY(mu_);
  PointCounts point_counts_ RSR_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SKETCH_STORE_H_
