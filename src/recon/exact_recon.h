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

#include "iblt/strata.h"
#include "recon/protocol.h"
#include "recon/sketch_provider.h"

namespace rsr {
namespace recon {

/// Canonical occurrence-indexed keying of a point multiset: points sorted
/// by PointLess, the i-th copy of a duplicate keyed by
/// HashCombine(PointKey(p, seed), i) so duplicates are distinct sketch
/// elements while the i-th copy of a shared point still cancels across
/// parties. Exported (alongside ExactReconStrataConfig) so a canonical
/// sketch store can maintain the same estimator and keyed list the Bob
/// session expects (server/sketch_store.h, DESIGN.md §9).
KeyedPointList ExactKeyedPoints(const PointSet& points, uint64_t seed);

/// The key of the `occurrence`-th copy of `p` (the single formula behind
/// ExactKeyedPoints; exported so the sketch store's incremental
/// maintenance can never drift from the session-side keying).
uint64_t ExactOccurrenceKey(const Point& p, size_t occurrence, uint64_t seed);

/// Strata-estimator configuration of the exact baseline (derived from the
/// public seed).
StrataConfig ExactReconStrataConfig(uint64_t seed);

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
      : context_(context), params_(params) {}

 private:
  std::unique_ptr<PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> NewBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const override;

  ProtocolContext context_;
  ExactReconParams params_;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_EXACT_RECON_H_
