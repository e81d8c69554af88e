// Gap Guarantee reconciliation (extension module).
//
// A second robustness model (introduced by the 2018 follow-up paper):
// instead of minimising an aggregate (EMD), Bob must end with a point
// within distance r2 of EVERY point of Alice's — while points within r1 of
// one of Bob's are presumed already covered. The communication should be
// proportional to the number of genuinely uncovered points k (plus a
// ρ̂·n term from near-boundary noise), not to n.
//
// This implements the low-dimensional variant (Theorem 4.5 flavour): a
// randomly shifted lattice whose cells have diameter exactly r2 gives a
// one-sided LSH — two points in the same cell are *certainly* within r2
// (p2 = 0), and a pair within r1 lands in the same cell except with
// probability ρ̂ ≈ r1·d/r2 per function. Each party publishes, for
// h = Θ(log n / log(1/ρ̂)) independent lattices, the multiset of
// (lattice index, cell) entry keys. The multisets are reconciled with a
// strata-sized IBLT (entry-level cancellation replaces the follow-up's
// sets-of-sets machinery — see DESIGN.md §5), after which Alice knows
// exactly which of her entries Bob also has. A point of hers sharing at
// least one cell with Bob's entries is within r2 of some Bob point, by the
// one-sidedness; any point sharing none is transmitted at full precision.
//
// Guarantee (w.h.p.): every a ∈ S_A has a point of S'_B within r2;
// every a within r1 of S_B is (except with probability ρ̂^h ≤ 1/poly n)
// not transmitted.

#ifndef RSR_GAPRECON_GAP_RECON_H_
#define RSR_GAPRECON_GAP_RECON_H_

#include <cstddef>

#include "geometry/metric.h"
#include "recon/protocol.h"

namespace rsr {
namespace gaprecon {

/// Tunables of the gap protocol.
struct GapParams {
  double r1 = 1.0;  ///< Points closer than this are "the same object".
  double r2 = 0.0;  ///< Required coverage radius; must satisfy
                    ///< r2 > r1 · d (so that ρ̂ < 1). 0 derives 4·r1·d.
  Metric metric = Metric::kL1;  ///< ℓ1 or ℓ∞ (lattice diameter is exact);
                                ///< ℓ2 uses the conservative ℓ1 bound.
  int num_functions = 0;  ///< h; 0 derives ⌈log(20·n) / log(1/ρ̂)⌉.
  double estimate_safety = 2.0;
  int q = 4;
  double headroom = 1.35;
  size_t max_attempts = 4;

  /// Derived lattice cell side for dimension d: the largest side whose
  /// cell diameter (in `metric`) is at most r2.
  double CellSide(int d) const;

  /// Derived ρ̂ = Pr[a pair at distance r1 is split by one lattice].
  double RhoHat(int d) const;

  /// Effective r2.
  double EffectiveR2(int d) const { return r2 > 0 ? r2 : 4.0 * r1 * d; }
};

/// The protocol. Unlike the EMD reconcilers this is additive-only: Bob's
/// original points are all kept and Alice's uncovered points are appended,
/// so |bob_final| = |bob| + transmitted.
///
/// Sessions (3 messages, 3 rounds on the no-retry path):
///   Alice:  Start -> "gap-strata" (varint h, then her entry-key strata
///           estimator); await "gap-iblt" -> erase her entries, decode; on
///           success send "gap-points" (her uncovered points) and finish;
///           on failure send "gap-retry" while attempts remain.
///   Bob:    await "gap-strata" -> estimate, reply "gap-iblt" (his entry
///           keys); serve each "gap-retry" with a doubled "gap-iblt";
///           append the "gap-points" payload and finish.
///
/// When num_functions is 0, h is derived from the initiator's set size and
/// carried in the "gap-strata" header so both parties agree without a prior
/// size exchange (the pre-session code derived it from max(|A|, |B|),
/// which no single endpoint knows).
class GapReconciler : public recon::Reconciler {
 public:
  GapReconciler(const recon::ProtocolContext& context, const GapParams& params)
      : context_(context), params_(params) {}

 private:
  std::unique_ptr<recon::PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<recon::PartySession> NewBobSession(
      const PointSet& points,
      const recon::CanonicalSketchProvider* sketches) const override;

  recon::ProtocolContext context_;
  GapParams params_;
};

/// Checks the model's guarantee on a finished run: true iff every point of
/// `alice` has a point of `bob_final` within r2 (in params.metric).
bool SatisfiesGapGuarantee(const PointSet& alice, const PointSet& bob_final,
                           const GapParams& params, int d);

}  // namespace gaprecon
}  // namespace rsr

#endif  // RSR_GAPRECON_GAP_RECON_H_
