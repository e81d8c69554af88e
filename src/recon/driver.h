// In-process driver: pumps two PartySessions through a transport::Channel
// until Bob's endpoint finishes.
//
// This is what the legacy `Reconciler::Run` is implemented with. It
// preserves the seed's exact bit accounting: messages are sent in the same
// order the interleaved implementation produced them, so ChannelStats
// (bits, message_count, rounds) are unchanged for every protocol.

#ifndef RSR_RECON_DRIVER_H_
#define RSR_RECON_DRIVER_H_

#include "recon/session.h"
#include "transport/channel.h"

namespace rsr {
namespace recon {

/// Pumps `alice` and `bob` through `channel`: Start() both endpoints, then
/// repeatedly deliver pending messages (Bob first, matching the seed's
/// send order) until Bob finishes. Returns Bob's result.
///
/// If neither endpoint can make progress while Bob is unfinished (a
/// half-open failure — e.g. Alice exhausted her retries and stopped
/// silently), the returned result carries SessionError::kStalled unless the
/// stalled endpoint already recorded a more specific error.
///
/// `max_deliveries` bounds the total number of OnMessage calls as a
/// runaway-protocol safeguard.
ReconResult DrivePair(PartySession* alice, PartySession* bob,
                      transport::Channel* channel,
                      size_t max_deliveries = kMaxDeliveries);

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_DRIVER_H_
