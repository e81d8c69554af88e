#include "recon/driver.h"

#include <utility>

#include "util/check.h"

namespace rsr {
namespace recon {

const char* SessionErrorName(SessionError error) {
  switch (error) {
    case SessionError::kNone:
      return "none";
    case SessionError::kEmptyChannel:
      return "empty-channel";
    case SessionError::kUnexpectedMessage:
      return "unexpected-message";
    case SessionError::kMalformedMessage:
      return "malformed-message";
    case SessionError::kStalled:
      return "stalled";
    case SessionError::kTransportClosed:
      return "transport-closed";
    case SessionError::kProtocolRejected:
      return "protocol-rejected";
  }
  return "unknown";
}

namespace {

void SendAll(transport::Channel* channel, transport::Direction direction,
             std::vector<transport::Message> messages) {
  for (transport::Message& message : messages) {
    channel->Send(direction, std::move(message));
  }
}

}  // namespace

ReconResult DrivePair(PartySession* alice, PartySession* bob,
                      transport::Channel* channel, size_t max_deliveries) {
  using transport::Direction;

  // Opening sends. Alice first: every initiator-led transcript starts with
  // her message, and responder-led protocols (exact-iblt) have an empty
  // Alice opening, so this matches the seed's send order in both cases.
  SendAll(channel, Direction::kAliceToBob, alice->Start());
  SendAll(channel, Direction::kBobToAlice, bob->Start());

  size_t deliveries = 0;
  while (!bob->IsDone()) {
    bool progress = false;
    while (!bob->IsDone() && channel->HasPending(Direction::kAliceToBob)) {
      auto message = channel->Receive(Direction::kAliceToBob);
      if (!message.has_value()) break;  // unreachable given HasPending
      SendAll(channel, Direction::kBobToAlice,
              bob->OnMessage(std::move(*message)));
      progress = true;
      ++deliveries;
    }
    while (!alice->IsDone() && channel->HasPending(Direction::kBobToAlice)) {
      auto message = channel->Receive(Direction::kBobToAlice);
      if (!message.has_value()) break;
      SendAll(channel, Direction::kAliceToBob,
              alice->OnMessage(std::move(*message)));
      progress = true;
      ++deliveries;
    }
    if (bob->IsDone()) break;
    if (!progress || deliveries > max_deliveries) {
      // Half-open failure: surface it instead of spinning or aborting.
      ReconResult result = bob->TakeResult();
      result.success = false;
      if (result.error == SessionError::kNone) {
        result.error = SessionError::kStalled;
      }
      return result;
    }
  }
  return bob->TakeResult();
}

std::unique_ptr<PartySession> Reconciler::MakeAliceSession(
    const PointSet& points) const {
  return NewAliceSession(points);
}

std::unique_ptr<PartySession> Reconciler::MakeBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return NewBobSession(points, sketches);
}

ReconResult Reconciler::Run(const PointSet& alice, const PointSet& bob,
                            transport::Channel* channel) const {
  if (RequiresEqualSizes()) {
    RSR_CHECK_MSG(alice.size() == bob.size(),
                  "EMD model requires equal-size sets");
  }
  const std::unique_ptr<PartySession> alice_session = MakeAliceSession(alice);
  const std::unique_ptr<PartySession> bob_session = MakeBobSession(bob);
  return DrivePair(alice_session.get(), bob_session.get(), channel);
}

}  // namespace recon
}  // namespace rsr
