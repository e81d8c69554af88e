// One-shot exact-key reconciliation over the Robust IBLT (extension
// module).
//
// The simplest protocol the RIBLT substrate supports: every point is keyed
// by its exact hash (PointKey), so only bit-identical replicas cancel —
// like the exact-IBLT baseline, but duplicate-tolerant (the RIBLT's
// sum-cells recognise c copies of one key) and single-message. Alice ships
// one RIBLT of (key, point) pairs sized for k differing points; Bob erases
// his pairs, decodes, adopts the +1 (Alice-only) points and retires the
// nearest match of each -1 (Bob-only) point.
//
// This is deliberately NOT robust to per-point noise (that is what the
// MLSH keying in lshrecon/ adds on top); it exists as the registry's
// exact-flavour one-shot baseline and as an end-to-end exercise of the
// RIBLT itself.
//
// Sessions (1 message, 1 round):
//   Alice:  Start -> "riblt-set" (her pairs sketched into one RIBLT), done.
//   Bob:    await "riblt-set" -> erase, decode, repair, done.

#ifndef RSR_RIBLT_RIBLT_RECON_H_
#define RSR_RIBLT_RIBLT_RECON_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "geometry/metric.h"
#include "recon/protocol.h"
#include "recon/sketch_provider.h"
#include "riblt/riblt.h"

namespace rsr {

/// Tunables of the one-shot RIBLT protocol.
struct RibltReconParams {
  size_t k = 16;              ///< Differing-point budget the table is sized
                              ///< for.
  int q = 3;                  ///< RIBLT hash functions.
  double cells_factor = 4.0;  ///< cells = factor · q² · k (robust regime).
  size_t decode_budget = 0;   ///< Max pairs accepted; 0 derives 8k + 16.
  int count_bits = 16;
  Metric metric = Metric::kL2;  ///< Bob's local matching metric.

  size_t DecodeBudget() const {
    return decode_budget > 0 ? decode_budget : 8 * k + 16;
  }
};

/// The shared one-shot RIBLT configuration for a party of size n (n only
/// fixes max_entries, i.e. the serialized sum-field widths).
RibltConfig RibltOneShotConfig(const Universe& universe,
                               const RibltReconParams& params, size_t n,
                               uint64_t seed);

/// The width rule of the RIBLT specs: whether tables of configs `a` and
/// `b` serialize their sum fields at the same widths.
bool SameSumWidths(const RibltConfig& a, const RibltConfig& b);

/// Bob's repair from a decoded RIBLT difference (riblt-oneshot and
/// mlsh-riblt), as a RepairedSet over `bob` (which must outlive it):
/// retires one of his points per value of `retire` (the -1 side), in
/// decode order, and adds `adopt` (the +1 side). A value
/// retires the untaken point nearest to it under `metric`, the first such
/// index on ties; a value Bob holds untaken is therefore its first untaken
/// copy, found through one pass over `bob` rather than a scan per value.
/// Only values without such a copy (averaged-value residue, points Bob no
/// longer holds) pay the O(|bob|) nearest-point scan. A value finding no
/// untaken point retires nothing.
recon::RepairedSet RetireAndAdopt(const PointSet& bob, const PointSet& retire,
                                  PointSet adopt, Metric metric);

/// The one-shot table: every (PointKey(p), p) pair of a set. Keyed by the
/// universe, the seed and the cell arithmetic (rounded cells, q, count
/// width), not by max_entries: that fixes the serialized sum-field widths
/// only, and a Bob session derives it from the *initiator's* set size.
/// Those widths are the width rule.
class OneShotRibltSpec final : public recon::LinearSketch<Riblt> {
 public:
  OneShotRibltSpec(const recon::ProtocolContext& context,
                   const RibltReconParams& params);

  uint64_t seed() const { return seed_; }
  /// The table config for an initiator of size n.
  RibltConfig Config(size_t n) const;
  /// The key a point's pair goes in under.
  uint64_t PointKeyOf(const Point& p) const { return PointKey(p, seed_); }

  Built Build(const PointSet& points) const override;
  bool Carries(size_t from, size_t to) const override;
  Sketch Advance(const Sketch& table, recon::NoUpkeep* upkeep,
                 const recon::SketchBatch& batch) const override;

 private:
  Universe universe_;
  RibltReconParams params_;
  uint64_t seed_;
};

class RibltReconciler : public recon::Reconciler {
 public:
  RibltReconciler(const recon::ProtocolContext& context,
                  const RibltReconParams& params)
      : params_(params),
        spec_(std::make_shared<OneShotRibltSpec>(context, params)) {}

  recon::SketchSpecList SketchSpecs() const override { return {spec_}; }

 private:
  std::unique_ptr<recon::PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<recon::PartySession> NewBobSession(
      const PointSet& points,
      const recon::CanonicalSketchProvider* sketches) const override;

  RibltReconParams params_;
  std::shared_ptr<const OneShotRibltSpec> spec_;
};

}  // namespace rsr

#endif  // RSR_RIBLT_RIBLT_RECON_H_
