// Canonical sketch store: compute a serving sketch once, on first demand,
// then keep it current under churn.
//
// The serving hosts reconcile one canonical point set against every
// connecting replica, and every sketch a Bob session takes from it is
// linear in the point multiset, so no connection need pay the
// set-proportional build (which made sketch protocols serve slower than
// full transfer in BENCH_E16).
//
// The store knows no protocol. It serves the linear-sketch specs
// (recon/sketch_provider.h) that the global registry's protocols declare
// under the store's own context and params, one slot per key, and matches a
// session's request to a slot by one key comparison. Slots are lazy: a
// slot materializes in a snapshot on the first Find that names it, built
// once from that snapshot's points under the slot's leaf lock; from then
// on ApplyUpdate advances it into each new generation with the spec's
// Advance, or drops it when its width rule rejects the batch (it rebuilds
// on demand). A spec nobody asks for costs nothing per batch.
//
// Readers (sessions) get an immutable, generation-stamped SketchSnapshot
// behind a shared_ptr. ApplyUpdate builds the next generation beside the
// published one, so a session pinned to an older generation keeps a
// consistent view for as long as it holds the pointer. The generation
// travels in "@accept", which lets a load harness check a served result
// against the set it was served from (bench/bench_e18_churn.cc). A batch
// costs one O(n) copy of the point set plus each live slot's Advance
// (DESIGN.md §9).

#ifndef RSR_SERVER_SKETCH_STORE_H_
#define RSR_SERVER_SKETCH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "geometry/point.h"
#include "obs/metrics.h"
#include "recon/registry.h"
#include "recon/sketch_provider.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

/// Optional store instrumentation (DESIGN.md §12): where the rsr_store_*
/// instruments live. Each spec's are labelled family=<spec name>.
struct SketchStoreMetrics {
  /// Not owned; must outlive the store. Null disables every instrument.
  obs::MetricsRegistry* registry = nullptr;
  /// Gates the per-spec Advance latency histograms (the counters and
  /// gauges are per-batch, never hot, and stay on).
  bool latency_probes = false;
};

inline SketchStoreMetrics MakeStoreMetrics(obs::MetricsRegistry* registry,
                                           bool latency_probes) {
  return {registry, latency_probes};
}

struct SketchStoreOptions {
  /// Shared public coins and protocol tunables; the store serves the specs
  /// the registry derives from them. They must equal what the host passes
  /// to the registry when creating sessions, or every key comparison will
  /// (safely) decline.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  /// Instrumentation hooks; default: all disabled.
  SketchStoreMetrics metrics;
};

// Implementation detail (sketch_store.cc): the store-wide specs and
// instruments every snapshot shares.
struct SketchShape;

/// One immutable generation of the canonical set and its sketches.
class SketchSnapshot final : public recon::CanonicalSketchProvider {
 public:
  uint64_t generation() const { return generation_; }
  const PointSet& points() const { return points_; }
  size_t size() const { return points_.size(); }

  /// True once the spec named `name` has been built in (or carried into)
  /// this snapshot.
  bool Materialized(std::string_view name) const;

  /// The sketch of the store's spec whose key equals spec.key(), built
  /// from this snapshot's points on first use; null when no spec matches.
  std::shared_ptr<const void> Find(
      const recon::LinearSketchSpec& spec) const override;

 private:
  friend class SketchStore;

  /// One spec's state in this generation.
  struct Slot {
    /// Leaf lock: held across a lazy build, never while taking another
    /// rsr mutex.
    Mutex mu;
    /// The served sketch; null until materialized, never changed after.
    std::shared_ptr<const void> sketch RSR_GUARDED_BY(mu);
    /// What the writer needs to advance the sketch to the next generation.
    /// The writer moves it into the next generation when it carries the
    /// slot forward; readers never touch it.
    std::shared_ptr<void> upkeep RSR_GUARDED_BY(mu);
  };

  SketchSnapshot(std::shared_ptr<const SketchShape> shape,
                 uint64_t generation, PointSet points);

  /// Spec `index`'s sketch, built from points_ on first use.
  std::shared_ptr<const void> Materialize(size_t index) const;

  /// Store-wide specs and instruments, shared with the store so a slot can
  /// be built after it is gone.
  const std::shared_ptr<const SketchShape> shape_;
  const uint64_t generation_;
  const PointSet points_;
  /// One per spec of the shape, in its order.
  mutable std::vector<Slot> slots_;
};

/// The mutable store. Thread-safe: any number of threads may call
/// Snapshot() — and Find on any snapshot — while one (or several,
/// serialized internally) call ApplyUpdate.
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
  /// point-set copy plus each live slot's Advance; a slot whose widths the
  /// batch changes is dropped and rebuilds on demand.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(const PointSet& inserts,
                                                    const PointSet& erases);

  uint64_t generation() const { return Snapshot()->generation(); }
  size_t size() const { return Snapshot()->size(); }

 private:
  /// Moves slot `index` from `head` into `next` across `batch`: advances
  /// the sketch with head's upkeep, which moves along. Returns false, and
  /// leaves `next` without it, when head never built it or the batch
  /// changes its widths.
  bool CarryForward(size_t index, const SketchSnapshot& head,
                    SketchSnapshot* next,
                    const recon::SketchBatch& batch) const
      RSR_REQUIRES(write_mu_);

  const std::shared_ptr<const SketchShape> shape_;

  /// Serializes ApplyUpdate: the next generation is built under this lock
  /// alone. LOCK ORDER: replica_mu_ (a host's) → write_mu_ → mu_ (see
  /// DESIGN.md §13); a slot's leaf lock may be taken inside write_mu_.
  Mutex write_mu_;
  /// Guards the published snapshot pointer only; held for a pointer copy
  /// by readers and for the publish by the writer.
  mutable Mutex mu_ RSR_ACQUIRED_AFTER(write_mu_);
  std::shared_ptr<const SketchSnapshot> snapshot_ RSR_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SKETCH_STORE_H_
