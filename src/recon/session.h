// Driveable endpoint state machines for two-party reconciliation.
//
// A PartySession is one endpoint of a protocol run. It never touches a
// channel: it is handed incoming messages one at a time and returns the
// messages it wants delivered to the peer, which makes it directly usable
// behind any transport — the in-process driver (recon/driver.h), a socket,
// an async batch queue, or a many-client sync server that keeps one session
// per peer.
//
// Lifecycle:
//   1. Start() is called exactly once before any delivery; the returned
//      messages are the endpoint's opening sends (often empty for the
//      responder).
//   2. OnMessage(msg) is called once per incoming message, in order; the
//      returned messages are the endpoint's replies.
//   3. Once IsDone() is true the endpoint will neither expect nor produce
//      further messages, and TakeResult() moves its ReconResult out.
//
// Error handling: instead of aborting on malformed or unexpected traffic
// (the seed behaviour), a session finishes with result.error set to the
// matching SessionError and success == false.
//
// Message framing: every message's label identifies its type ("qt-strata",
// "exact-retry", ...). Labels are part of the message header — sessions may
// dispatch on them — while only payload bits are billed, matching the
// accounting convention of the seed. See DESIGN.md §2.

#ifndef RSR_RECON_SESSION_H_
#define RSR_RECON_SESSION_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "recon/protocol.h"
#include "transport/message.h"

namespace rsr {
namespace recon {

/// Runaway-protocol safeguard: the most messages a pump delivers to one
/// endpoint (recon::DrivePair, the sync client, a replica's pull).
inline constexpr size_t kMaxDeliveries = size_t{1} << 16;

/// One endpoint of a two-party protocol.
class PartySession {
 public:
  virtual ~PartySession() = default;

  /// Opening sends. Called exactly once, before any OnMessage.
  virtual std::vector<transport::Message> Start() = 0;

  /// Handles one incoming message; returns the replies to deliver to the
  /// peer.
  virtual std::vector<transport::Message> OnMessage(
      transport::Message message) = 0;

  /// True when the endpoint has finished (successfully or not).
  virtual bool IsDone() const = 0;

  /// Moves the endpoint's result out. Meaningful once IsDone(); Bob's
  /// session holds the canonical deliverable.
  virtual ReconResult TakeResult() = 0;

  /// For a host that only serializes S'_B: moves Bob's result set out as
  /// a RepairedSet over his borrowed input — shipped without copying the
  /// set — after which TakeResult leaves bob_final empty. Every Bob
  /// session has one until it is taken; Alice's endpoints return nullopt.
  virtual std::optional<RepairedSet> TakeRepairedSet() { return std::nullopt; }
};

/// Shared boilerplate: a result slot, a done flag, and helpers to finish in
/// the common ways. Protocol sessions derive from this.
class PartySessionBase : public PartySession {
 public:
  bool IsDone() const override { return done_; }
  ReconResult TakeResult() override { return std::move(result_); }

 protected:
  /// Finishes with a transport/framing error.
  void FailWith(SessionError error) {
    result_.success = false;
    result_.error = error;
    done_ = true;
  }

  /// Finishes (success flag already recorded in result_).
  void Finish() { done_ = true; }

  /// Convenience empty reply.
  static std::vector<transport::Message> NoMessages() { return {}; }

  /// Convenience single-message reply.
  static std::vector<transport::Message> OneMessage(transport::Message m) {
    std::vector<transport::Message> out;
    out.push_back(std::move(m));
    return out;
  }

  ReconResult result_;
  bool done_ = false;
};

/// Base of Bob's endpoints. Bob borrows his set S_B: `points` must outlive
/// the session, exactly as a sketch provider must (the serving hosts keep
/// the snapshot both come from alive for the connection). S'_B is always
/// a repair of S_B — the points a decoded difference retires and the
/// points it adds — recorded at most once with SetRepair. Until then the
/// session holds the empty repair (S'_B = S_B: decode failure, an error or
/// malformed frame, or a session that never finished). TakeResult
/// materializes the repair unless a host took it with TakeRepairedSet.
class BobSessionBase : public PartySessionBase {
 public:
  ReconResult TakeResult() override {
    if (repair_.has_value()) {
      result_.bob_final = repair_->Materialize();
      repair_.reset();
    }
    return PartySessionBase::TakeResult();
  }

  std::optional<RepairedSet> TakeRepairedSet() override {
    return std::exchange(repair_, std::nullopt);
  }

 protected:
  explicit BobSessionBase(const PointSet& points)
      : points_(points), repair_(std::in_place, points) {}

  /// Records S'_B as a repair of S_B (repair.base == &points_).
  void SetRepair(RepairedSet repair) { repair_ = std::move(repair); }

  const PointSet& points_;

 private:
  std::optional<RepairedSet> repair_;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_SESSION_H_
