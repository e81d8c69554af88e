#include "recon/single_grid.h"

#include <utility>

#include "recon/quadtree_recon.h"
#include "recon/session.h"
#include "util/check.h"

namespace rsr {
namespace recon {

namespace {

class SingleGridAlice : public PartySessionBase {
 public:
  SingleGridAlice(const ProtocolContext& context,
                  const QuadtreeParams& params, int level, PointSet points)
      : context_(context),
        params_(params),
        level_(level),
        points_(std::move(points)) {}

  std::vector<transport::Message> Start() override {
    const ShiftedGrid grid(context_.universe, context_.seed);
    RSR_CHECK(level_ >= 0 && level_ <= grid.max_level());
    BitWriter w;
    BuildLevelIblt(grid, points_, level_, points_.size(), params_,
                   context_.seed)
        .Serialize(&w);
    result_.success = true;
    result_.chosen_level = level_;
    Finish();
    return OneMessage(transport::MakeMessage("single-grid", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(transport::Message) override {
    FailWith(SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  ProtocolContext context_;
  QuadtreeParams params_;
  int level_;
  PointSet points_;
};

class SingleGridBob : public BobSessionBase {
 public:
  SingleGridBob(const ProtocolContext& context, const QuadtreeParams& params,
                int level, const PointSet& points,
                const CanonicalSketchProvider* sketches)
      : BobSessionBase(points),
        context_(context),
        params_(params),
        level_(level),
        sketches_(sketches) {
    result_.chosen_level = level_;
  }

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    const size_t n = points_.size();
    const ShiftedGrid grid(context_.universe, context_.seed);
    RSR_CHECK(level_ >= 0 && level_ <= grid.max_level());
    BitReader r(message.payload);
    const IbltConfig config =
        LevelIbltConfig(grid, level_, n, params_, context_.seed);
    std::optional<Iblt> alice_iblt = Iblt::Deserialize(config, &r);
    if (!alice_iblt.has_value()) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    std::optional<Iblt> bob_iblt =
        sketches_ != nullptr ? sketches_->QuadtreeLevelIblt(config, level_)
                             : std::nullopt;
    if (!bob_iblt.has_value()) {
      bob_iblt =
          BuildLevelIblt(grid, points_, level_, n, params_, context_.seed);
    }
    std::optional<std::vector<LevelDiffEntry>> diff =
        TryDecodeLevelDiff(grid, level_, n, *std::move(alice_iblt), *bob_iblt,
                           params_.DecodeBudget());
    if (diff.has_value()) {
      result_.success = true;
      result_.decoded_entries = diff->size();
      SetRepair(RepairBob(grid, points_, level_, *diff));
    }
    Finish();
    return NoMessages();
  }

 private:
  ProtocolContext context_;
  QuadtreeParams params_;
  int level_;
  const CanonicalSketchProvider* sketches_;
};

}  // namespace

std::unique_ptr<PartySession> SingleGridReconciler::MakeAliceSession(
    const PointSet& points) const {
  return std::make_unique<SingleGridAlice>(context_, params_, level_, points);
}

std::unique_ptr<PartySession> SingleGridReconciler::MakeBobSession(
    const PointSet& points) const {
  return MakeBobSession(points, nullptr);
}

std::unique_ptr<PartySession> SingleGridReconciler::MakeBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return std::make_unique<SingleGridBob>(context_, params_, level_, points,
                                         sketches);
}

}  // namespace recon
}  // namespace rsr
