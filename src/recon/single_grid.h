// Ablation baseline: snap-to-grid at one fixed resolution.
//
// Identical to one level of the quadtree protocol — Alice sends a single
// histogram IBLT for a caller-chosen level. Demonstrates why the protocol
// must be multi-scale: a level finer than the noise scale fails to decode
// (the histograms differ almost everywhere), a level coarser than necessary
// inflates the repair error by the cell diameter. Experiment E7 sweeps the
// forced level against the auto-selected one.
//
// Sessions (1 message, 1 round):
//   Alice:  Start -> send "single-grid" (the level's histogram IBLT), done.
//   Bob:    await "single-grid" -> subtract his histogram, decode, repair.

#ifndef RSR_RECON_SINGLE_GRID_H_
#define RSR_RECON_SINGLE_GRID_H_

#include "recon/params.h"
#include "recon/protocol.h"

namespace rsr {
namespace recon {

class SingleGridReconciler : public Reconciler {
 public:
  /// `level` is the forced quadtree level.
  SingleGridReconciler(const ProtocolContext& context,
                       const QuadtreeParams& params, int level)
      : context_(context), params_(params), level_(level) {}

  std::string Name() const override {
    return "single-grid-L" + std::to_string(level_);
  }
  using Reconciler::MakeBobSession;  // and its deleted temporaries
  std::unique_ptr<PartySession> MakeAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> MakeBobSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> MakeBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const override;
  bool RequiresEqualSizes() const override { return true; }

 private:
  ProtocolContext context_;
  QuadtreeParams params_;
  int level_;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_SINGLE_GRID_H_
