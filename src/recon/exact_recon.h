// Baseline: exact set reconciliation over full-precision points
// (strata-estimator + IBLT, the standard Eppstein et al. construction).
//
// Bob ends with exactly Alice's multiset, and the cost is proportional to
// the *exact* symmetric difference D. That is optimal when replicas differ
// in a few whole elements — and catastrophic in the robust setting, where
// per-point noise makes D ≈ 2n. Reproducing that collapse is experiment E3.
//
// Protocol (3 messages): B->A strata estimator of Bob's keys; A->B an IBLT
// sized from the estimate (Alice inserted her set, she also erases nothing —
// Bob erases his own elements locally); on decode failure Bob requests a
// doubled table (2 more messages per retry).
//
// Sessions:
//   Bob:    Start -> "exact-strata"; await "exact-iblt" -> decode; on
//           failure send "exact-retry" (varint next attempt) while attempts
//           remain, else finish unsuccessfully.
//   Alice:  await "exact-strata" -> estimate, reply "exact-iblt"; then
//           serve each "exact-retry" with a doubled "exact-iblt".

#ifndef RSR_RECON_EXACT_RECON_H_
#define RSR_RECON_EXACT_RECON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "iblt/strata.h"
#include "recon/protocol.h"
#include "recon/sketch_provider.h"

namespace rsr {
namespace recon {

/// Occurrence-indexed (key, point) list of a multiset, sorted by point.
using KeyedPointList = std::vector<std::pair<uint64_t, Point>>;

/// Canonical occurrence-indexed keying of a point multiset: points sorted
/// by PointLess, the i-th copy of a duplicate keyed by
/// HashCombine(PointKey(p, seed), i) so duplicates are distinct sketch
/// elements while the i-th copy of a shared point still cancels across
/// parties.
KeyedPointList ExactKeyedPoints(const PointSet& points, uint64_t seed);

/// The key of the `occurrence`-th copy of `p` (the single formula behind
/// ExactKeyedPoints and both exact specs' Advance).
uint64_t ExactOccurrenceKey(const Point& p, size_t occurrence, uint64_t seed);

/// Strata-estimator configuration of the exact baseline (derived from the
/// public seed).
StrataConfig ExactReconStrataConfig(uint64_t seed);

/// Multiset view of a set — point to multiplicity, in PointLess order —
/// which gives a mutated copy its occurrence index: the exact specs'
/// upkeep.
using PointCounts = std::map<Point, int64_t>;

/// The exact baseline's strata estimator over occurrence-indexed point
/// keys, the opening message of every Bob session. Keyed by the seed; no
/// width depends on |S|.
class ExactStrataSpec final
    : public LinearSketch<StrataEstimator, PointCounts> {
 public:
  explicit ExactStrataSpec(uint64_t seed);

  /// The estimator of an already keyed set: Build after the keying.
  StrataEstimator FromKeys(const KeyedPointList& keyed) const;

  Built Build(const PointSet& points) const override;
  Sketch Advance(const Sketch& estimator, PointCounts* counts,
                 const SketchBatch& batch) const override;

 private:
  uint64_t seed_;
};

/// The exact baseline's sorted keyed list itself. Not a sketch — the
/// difference-sized IBLT Bob erases it into depends on the client — but
/// caching it saves a session the O(n log n) keying. It is positional, so
/// Advance re-derives it from the multiset view: no sort, but O(n).
class ExactKeyedSpec final
    : public LinearSketch<KeyedPointList, PointCounts> {
 public:
  explicit ExactKeyedSpec(uint64_t seed);

  Built Build(const PointSet& points) const override;
  Sketch Advance(const Sketch& keyed, PointCounts* counts,
                 const SketchBatch& batch) const override;

 private:
  uint64_t seed_;
};

/// Tunables of the exact baseline.
struct ExactReconParams {
  int q = 4;
  double headroom = 1.35;
  double estimate_safety = 2.0;  ///< Multiplier on the strata estimate.
  int checksum_bits = 32;
  int count_bits = 16;
  size_t max_attempts = 4;       ///< Doubling retries on decode failure.
};

class ExactReconciler : public Reconciler {
 public:
  ExactReconciler(const ProtocolContext& context,
                  const ExactReconParams& params)
      : context_(context),
        params_(params),
        strata_spec_(std::make_shared<ExactStrataSpec>(context.seed)),
        keyed_spec_(std::make_shared<ExactKeyedSpec>(context.seed)) {}

  SketchSpecList SketchSpecs() const override {
    return {strata_spec_, keyed_spec_};
  }

 private:
  std::unique_ptr<PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> NewBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const override;

  ProtocolContext context_;
  ExactReconParams params_;
  std::shared_ptr<const ExactStrataSpec> strata_spec_;
  std::shared_ptr<const ExactKeyedSpec> keyed_spec_;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_EXACT_RECON_H_
