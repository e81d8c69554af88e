// Baseline: whole-set transfer. Alice ships every point at full precision;
// Bob adopts her set verbatim. Communication is exactly n · d · ⌈log2 Δ⌉
// bits — the yardstick every sub-linear protocol is compared against.
//
// Sessions (1 message, 1 round):
//   Alice:  Start -> send "full-transfer" (varint n, then n packed points),
//           done.
//   Bob:    await "full-transfer" -> adopt the decoded set, done.

#ifndef RSR_RECON_FULL_TRANSFER_H_
#define RSR_RECON_FULL_TRANSFER_H_

#include "recon/protocol.h"

namespace rsr {
namespace recon {

class FullTransferReconciler : public Reconciler {
 public:
  explicit FullTransferReconciler(const ProtocolContext& context)
      : context_(context) {}

 private:
  std::unique_ptr<PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> NewBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const override;

  ProtocolContext context_;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_FULL_TRANSFER_H_
