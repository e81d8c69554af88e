// Canonical sketch store: compute a serving sketch once, on first demand,
// then keep it current under churn.
//
// The serving hosts reconcile one canonical point set against every
// connecting replica. All of the canonical side's sketches — quadtree
// per-level histogram IBLTs, adaptive strata probes, the exact baseline's
// strata estimator and keyed list, MLSH per-level RIBLTs, the one-shot
// exact-key RIBLT — are linear in the point multiset, so there is no
// reason to pay the set-proportional build per connection (which is what
// made sketch protocols serve slower than full transfer in BENCH_E16).
//
// Lazy families: the sketches fall into six families (SketchFamily). The
// store builds none of them up front. A family materializes in a snapshot
// on the first provider call that asks for it, built once from that
// snapshot's own points under a per-family leaf lock, and from then on
// ApplyUpdate carries it forward to each new generation with O(levels)
// Insert/Erase calls per mutated point. A family nobody asks for costs
// nothing per batch.
//
// Snapshots: readers (sessions) get an immutable, generation-stamped
// SketchSnapshot — the point set plus whichever families have been asked
// for — behind a shared_ptr. ApplyUpdate never changes what a published
// snapshot serves; it builds the next generation beside it and publishes
// that, so in-flight sessions pinned to an older generation keep a
// consistent view for as long as they hold the pointer. The generation
// travels in the "@accept" handshake frame, which is what lets a load
// harness check a served result against the exact canonical set it was
// served from (bench/bench_e18_churn.cc).
//
// Per-batch cost: one O(n) copy of the point set into the new generation,
// O(batch · levels) sketch work per live family, the O(cells) copy of each
// live family's sketches, and two O(n) terms only a live family pays: the
// quadtree families' CellLadder merge, and the exact keyed list's
// re-derivation (it is positional).
//
// Width changes: the quadtree histogram value layout depends on |S| via
// HistogramCountBits, and the RIBLT sum-field widths depend on |S| via
// max_entries = 2n + 2 (riblt-oneshot and the MLSH ladder). A batch that
// crosses such a boundary drops the affected families from the new
// generation; they rebuild on demand. See DESIGN.md §9 for the linearity
// argument and the per-protocol cacheability table.

#ifndef RSR_SERVER_SKETCH_STORE_H_
#define RSR_SERVER_SKETCH_STORE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "geometry/point.h"
#include "iblt/iblt.h"
#include "iblt/strata.h"
#include "obs/metrics.h"
#include "recon/registry.h"
#include "recon/sketch_provider.h"
#include "riblt/riblt.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

/// The independently materialized sketch families of a snapshot.
enum class SketchFamily {
  kQuadtreeIblt,   ///< One-shot quadtree level IBLTs: the ladder plus
                   ///< single-grid's forced level.
  kQuadtreeProbe,  ///< Adaptive quadtree per-level strata probes.
  kExactStrata,    ///< The exact baseline's strata estimator.
  kExactKeyed,     ///< The exact baseline's sorted keyed point list.
  kMlsh,           ///< MLSH ladder RIBLTs.
  kOneShotRiblt,   ///< The one-shot exact-key RIBLT.
};
inline constexpr size_t kSketchFamilyCount = 6;

/// The family's `family` label value in the rsr_store_* metrics.
const char* SketchFamilyName(SketchFamily family);

/// Optional store instrumentation (DESIGN.md §12). Pointers are not owned
/// and must outlive the store; any may be null (that probe is disabled).
struct SketchStoreMetrics {
  /// Per family: wall time of carrying it across one batch (its
  /// Advance), observed once per ApplyUpdate that finds it live.
  std::array<obs::Histogram*, kSketchFamilyCount> apply_seconds{};
  /// Per family: from-scratch builds, in any generation.
  std::array<obs::Counter*, kSketchFamilyCount> materializations{};
  /// Per family: 1 while the published generation holds it.
  std::array<obs::Gauge*, kSketchFamilyCount> family_live{};
  obs::Gauge* generation = nullptr;  ///< Published snapshot generation.
  obs::Gauge* points = nullptr;      ///< Canonical set size.
};

/// Registers the rsr_store_* instruments on `registry` and returns the
/// bundle. The per-family Advance latency probes are gated on
/// `latency_probes` (the counters and gauges are per-batch, never hot,
/// and stay on).
SketchStoreMetrics MakeStoreMetrics(obs::MetricsRegistry* registry,
                                    bool latency_probes);

struct SketchStoreOptions {
  /// Shared public coins and protocol tunables; must equal what the host
  /// passes to the registry when creating sessions, or the provider's
  /// config checks will (safely) decline every request.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  /// Instrumentation hooks (see MakeStoreMetrics); default: all disabled.
  SketchStoreMetrics metrics;
};

// Implementation details (sketch_store.cc): the store-wide constants a
// snapshot builds its families from, and one batch as the families see it.
struct SketchShape;
struct SketchBatch;

/// One immutable generation of the canonical set and its sketches. Every
/// provider method first checks the session's config against the one this
/// generation's size implies (declining on any difference), then serves
/// the family, materializing it on first use.
class SketchSnapshot final : public recon::CanonicalSketchProvider {
 public:
  uint64_t generation() const { return generation_; }
  const PointSet& points() const { return points_; }
  size_t size() const { return points_.size(); }

  /// True once `family` has been built in (or carried into) this snapshot.
  bool Materialized(SketchFamily family) const;

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

  /// One family's state. The concrete sketch and upkeep types are
  /// family-specific (sketch_store.cc) and reached through
  /// Materialize<Family>() and SketchStore::CarryForward<Family>().
  struct FamilySlot {
    /// Leaf lock: held across a lazy build, never while taking another
    /// rsr mutex.
    Mutex mu;
    /// The served sketches; null until materialized, never changed after.
    std::shared_ptr<const void> sketch RSR_GUARDED_BY(mu);
    /// What the writer needs to advance the sketches to the next
    /// generation (the quadtree families' CellLadder, the exact multiset
    /// view). The writer moves it into the next generation when it carries
    /// the family forward; readers never touch it.
    std::shared_ptr<void> upkeep RSR_GUARDED_BY(mu);
  };

  SketchSnapshot(std::shared_ptr<const SketchShape> shape,
                 uint64_t generation, PointSet points);

  /// The family's sketches, built from points_ on first use.
  template <typename Family>
  std::shared_ptr<const typename Family::Sketch> Materialize() const;

  FamilySlot& slot(SketchFamily family) const {
    return families_[static_cast<size_t>(family)];
  }

  /// Store-wide constants (grid, cached levels, MLSH family, metrics),
  /// shared with the store so a family can be built after it is gone.
  const std::shared_ptr<const SketchShape> shape_;
  const uint64_t generation_;
  const PointSet points_;
  mutable std::array<FamilySlot, kSketchFamilyCount> families_;
};

/// The mutable store. Thread-safe: any number of threads may call
/// Snapshot() — and any provider method of any snapshot — while one (or
/// several, serialized internally) call ApplyUpdate.
class SketchStore {
 public:
  /// Takes ownership of the canonical set; builds no sketch.
  SketchStore(PointSet canonical, SketchStoreOptions options);
  ~SketchStore();

  SketchStore(const SketchStore&) = delete;
  SketchStore& operator=(const SketchStore&) = delete;

  /// The current generation's immutable snapshot. Never waits on a batch
  /// being applied: ApplyUpdate holds this lock only to publish.
  std::shared_ptr<const SketchSnapshot> Snapshot() const;

  /// Applies one batch of mutations — erases first (each removes the first
  /// equal point; erases of absent points are ignored), then inserts —
  /// and publishes a new snapshot, which is also returned. Costs one O(n)
  /// point-set copy plus O((|inserts| + |erases|) · levels) per family
  /// live in the current snapshot (see the header comment); a family whose
  /// widths the batch changes is dropped and rebuilds on demand.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(const PointSet& inserts,
                                                    const PointSet& erases);

  uint64_t generation() const { return Snapshot()->generation(); }
  size_t size() const { return Snapshot()->size(); }

 private:
  /// Moves `Family` from `head` into `next` across `batch`: copies the
  /// sketches, takes head's upkeep and applies the batch to both. Leaves
  /// `next` without the family when head never built it or the batch
  /// changes its widths.
  template <typename Family>
  void CarryForward(const SketchSnapshot& head, SketchSnapshot* next,
                    const SketchBatch& batch) const RSR_REQUIRES(write_mu_);

  const std::shared_ptr<const SketchShape> shape_;

  /// Serializes ApplyUpdate: the next generation is built under this lock
  /// alone. LOCK ORDER: replica_mu_ (a host's) → write_mu_ → mu_ (see
  /// DESIGN.md §13); a family's leaf lock may be taken inside write_mu_.
  Mutex write_mu_;
  /// Guards the published snapshot pointer only; held for a pointer copy
  /// by readers and for the publish by the writer.
  mutable Mutex mu_ RSR_ACQUIRED_AFTER(write_mu_);
  std::shared_ptr<const SketchSnapshot> snapshot_ RSR_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SKETCH_STORE_H_
