// Canonical-set churn: batched insert/erase traces against a live set.
//
// The serving-layer workloads so far mutated only the clients; the
// canonical set was immutable. Churn models the other half of a production
// deployment: the canonical side absorbs writes while replicas sync
// against it. A churn batch is balanced — every erased point is replaced
// by a perturbed copy — so |S| is preserved and the equal-size contract of
// the EMD-model protocols keeps holding across generations.
//
// Consumers: bench_e18_churn drives server::AsyncSyncServer's ApplyUpdate
// with these batches while clients sync over TCP; tests/sketch_store_test
// replays the same traces against a SketchStore and a plain mirrored set
// to prove the incrementally maintained sketches stay bit-identical to
// from-scratch builds (DESIGN.md §9).

#ifndef RSR_WORKLOAD_CHURN_H_
#define RSR_WORKLOAD_CHURN_H_

#include <cstddef>

#include "geometry/point.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rsr {
namespace workload {

/// Parameters of one churn batch.
struct ChurnSpec {
  /// Fraction of the current set replaced per batch (rounded down;
  /// min_updates floors it so tiny sets still churn).
  double fraction = 0.01;
  size_t min_updates = 1;
  /// How a replacement point relates to the erased one: perturbed copy
  /// (the common update-in-place case) at this noise scale...
  NoiseKind noise = NoiseKind::kGaussian;
  double noise_scale = 4.0;
  /// ...or, with probability fresh_fraction, a fresh uniform point
  /// (insert-new/delete-old churn).
  double fresh_fraction = 0.25;
};

/// One batch of mutations against a canonical set: erase these, insert
/// those. Balanced by construction (|inserts| == |erases|).
struct ChurnBatch {
  PointSet inserts;
  PointSet erases;
};

/// Draws one batch against `current`: picks round(fraction · n) distinct
/// victims (at least min_updates, at most n) to erase, and one replacement
/// per victim. Deterministic in *rng.
ChurnBatch MakeChurnBatch(const PointSet& current, const Universe& universe,
                          const ChurnSpec& spec, Rng* rng);

/// Applies a batch to a plain point set, mirroring
/// server::SketchStore::ApplyUpdate's semantics exactly: every erase
/// removes the first equal point (erases of absent points are skipped),
/// then the inserts are appended in order. Returns the number of erases
/// actually applied.
size_t ApplyChurnBatch(const ChurnBatch& batch, PointSet* points);

}  // namespace workload
}  // namespace rsr

#endif  // RSR_WORKLOAD_CHURN_H_
