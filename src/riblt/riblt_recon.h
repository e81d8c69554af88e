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
/// fixes max_entries, i.e. the serialized sum-field widths). Exported so a
/// canonical sketch store can maintain the table a Bob session expects
/// (server/sketch_store.h).
RibltConfig RibltOneShotConfig(const Universe& universe,
                               const RibltReconParams& params, size_t n,
                               uint64_t seed);

/// Bob's repair from a decoded RIBLT difference (riblt-oneshot and
/// mlsh-riblt): retires one of his points per value of `retire` (the -1
/// side), in decode order, then appends `adopt` (the +1 side). A value
/// retires the untaken point nearest to it under `metric`, the first such
/// index on ties; a value Bob holds untaken is therefore its first untaken
/// copy, found through one pass over `bob` rather than a scan per value.
/// Only values without such a copy (averaged-value residue, points Bob no
/// longer holds) pay the O(|bob|) nearest-point scan. A value finding no
/// untaken point retires nothing.
PointSet RetireAndAdopt(const PointSet& bob, const PointSet& retire,
                        PointSet adopt, Metric metric);

class RibltReconciler : public recon::Reconciler {
 public:
  RibltReconciler(const recon::ProtocolContext& context,
                  const RibltReconParams& params)
      : context_(context), params_(params) {}

  std::string Name() const override { return "riblt-oneshot"; }
  std::unique_ptr<recon::PartySession> MakeAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<recon::PartySession> MakeBobSession(
      const PointSet& points) const override;
  std::unique_ptr<recon::PartySession> MakeBobSession(
      const PointSet& points,
      const recon::CanonicalSketchProvider* sketches) const override;

 private:
  recon::ProtocolContext context_;
  RibltReconParams params_;
};

}  // namespace rsr

#endif  // RSR_RIBLT_RIBLT_RECON_H_
