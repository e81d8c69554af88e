#include "recon/full_transfer.h"

#include <utility>

#include "recon/session.h"

namespace rsr {
namespace recon {

namespace {

class FullTransferAlice : public PartySessionBase {
 public:
  FullTransferAlice(const ProtocolContext& context, const PointSet& points)
      : context_(context), points_(points) {}

  std::vector<transport::Message> Start() override {
    BitWriter w;
    w.WriteVarint(points_.size());
    PackPoints(context_.universe, points_, &w);
    result_.success = true;
    Finish();
    return OneMessage(
        transport::MakeMessage("full-transfer", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(transport::Message) override {
    FailWith(SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  ProtocolContext context_;
  const PointSet& points_;
};

class FullTransferBob : public BobSessionBase {
 public:
  FullTransferBob(const ProtocolContext& context, const PointSet& points)
      : BobSessionBase(points), context_(context) {}

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    BitReader r(message.payload);
    uint64_t count = 0;
    if (!r.ReadVarint(&count)) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    // The count comes off the wire: it must fit the bits left before it
    // sizes an allocation.
    const size_t point_bits =
        static_cast<size_t>(context_.universe.BitsPerPoint());
    if (point_bits > 0 && count > r.bits_remaining() / point_bits) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    // S'_B is Alice's set: every point of Bob's is removed.
    RepairedSet repair(points_);
    repair.removed.assign(points_.size(), 1);
    repair.additions.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Point p;
      if (!UnpackPoint(context_.universe, &r, &p)) {
        FailWith(SessionError::kMalformedMessage);
        return NoMessages();
      }
      repair.additions.push_back(std::move(p));
    }
    SetRepair(std::move(repair));
    result_.success = true;
    Finish();
    return NoMessages();
  }

 private:
  ProtocolContext context_;
};

}  // namespace

std::unique_ptr<PartySession> FullTransferReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<FullTransferAlice>(context_, points);
}

std::unique_ptr<PartySession> FullTransferReconciler::NewBobSession(
    const PointSet& points, const CanonicalSketchProvider*) const {
  return std::make_unique<FullTransferBob>(context_, points);
}

}  // namespace recon
}  // namespace rsr
