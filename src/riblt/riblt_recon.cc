#include "riblt/riblt_recon.h"

#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash/mix.h"
#include "recon/session.h"
#include "riblt/riblt.h"
#include "util/random.h"

namespace rsr {

RibltConfig RibltOneShotConfig(const Universe& universe,
                               const RibltReconParams& params, size_t n,
                               uint64_t seed) {
  RibltConfig config;
  config.cells = static_cast<size_t>(
      params.cells_factor * params.q * params.q *
      static_cast<double>(params.k > 0 ? params.k : 1));
  config.q = params.q;
  config.universe = universe;
  config.max_entries = 2 * n + 2;
  config.count_bits = params.count_bits;
  config.seed = Hash64(0x726c7431ULL, seed);  // "rlt1" tag
  return config;
}

OneShotRibltSpec::OneShotRibltSpec(const recon::ProtocolContext& context,
                                   const RibltReconParams& params)
    : LinearSketch(recon::SketchKey{
          "oneshot-riblt",
          {static_cast<uint64_t>(context.universe.d),
           static_cast<uint64_t>(context.universe.delta), context.seed,
           RibltOneShotConfig(context.universe, params, 0, context.seed)
               .RoundedCells(),
           static_cast<uint64_t>(params.q),
           static_cast<uint64_t>(params.count_bits)}}),
      universe_(context.universe),
      params_(params),
      seed_(context.seed) {}

RibltConfig OneShotRibltSpec::Config(size_t n) const {
  return RibltOneShotConfig(universe_, params_, n, seed_);
}

OneShotRibltSpec::Built OneShotRibltSpec::Build(const PointSet& points) const {
  Built built{Riblt(Config(points.size())), {}};
  for (const Point& p : points) built.sketch.Insert(PointKeyOf(p), p);
  return built;
}

bool SameSumWidths(const RibltConfig& a, const RibltConfig& b) {
  return a.KeySumBits() == b.KeySumBits() &&
         a.CoordSumBits() == b.CoordSumBits();
}

bool OneShotRibltSpec::Carries(size_t from, size_t to) const {
  return SameSumWidths(Config(from), Config(to));
}

OneShotRibltSpec::Sketch OneShotRibltSpec::Advance(
    const Sketch& table, recon::NoUpkeep*,
    const recon::SketchBatch& batch) const {
  Sketch next = table;
  for (const Point& p : batch.erases) next.Erase(PointKeyOf(p), p);
  for (const Point& p : batch.inserts) next.Insert(PointKeyOf(p), p);
  return next;
}

recon::RepairedSet RetireAndAdopt(const PointSet& bob, const PointSet& retire,
                                  PointSet adopt, Metric metric) {
  // Bob's positions holding each retired value, in index order, with a
  // cursor past the ones already taken.
  struct Copies {
    std::vector<size_t> positions;
    size_t next = 0;
  };
  struct ValueHash {
    size_t operator()(const Point& p) const { return PointKey(p, 0); }
  };
  std::unordered_map<Point, Copies, ValueHash> copies;
  copies.reserve(retire.size());
  for (const Point& x : retire) copies.try_emplace(x);
  for (size_t i = 0; i < bob.size(); ++i) {
    const auto it = copies.find(bob[i]);
    if (it != copies.end()) it->second.positions.push_back(i);
  }

  recon::RepairedSet repair(bob);
  std::vector<char>& taken = repair.removed;
  taken.assign(bob.size(), 0);
  for (const Point& x : retire) {
    // Distance 0 is the least possible, so the nearest untaken point of a
    // held value is its first untaken copy.
    Copies& held = copies.at(x);
    while (held.next < held.positions.size() &&
           taken[held.positions[held.next]]) {
      ++held.next;
    }
    if (held.next < held.positions.size()) {
      taken[held.positions[held.next++]] = 1;
      continue;
    }
    double best = std::numeric_limits<double>::infinity();
    size_t best_index = bob.size();
    for (size_t i = 0; i < bob.size(); ++i) {
      if (taken[i]) continue;
      const double dist = Distance(x, bob[i], metric);
      if (dist < best) {
        best = dist;
        best_index = i;
      }
    }
    if (best_index < bob.size()) taken[best_index] = 1;
  }
  repair.additions = std::move(adopt);
  return repair;
}

namespace {

class RibltOneShotAlice : public recon::PartySessionBase {
 public:
  RibltOneShotAlice(std::shared_ptr<const OneShotRibltSpec> spec,
                    const PointSet& points)
      : spec_(std::move(spec)), points_(points) {}

  std::vector<transport::Message> Start() override {
    BitWriter w;
    w.WriteVarint(points_.size());
    spec_->Build(points_).sketch.Serialize(&w);
    result_.success = true;
    Finish();
    return OneMessage(transport::MakeMessage("riblt-set", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(transport::Message) override {
    FailWith(recon::SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  std::shared_ptr<const OneShotRibltSpec> spec_;
  const PointSet& points_;
};

class RibltOneShotBob : public recon::BobSessionBase {
 public:
  RibltOneShotBob(std::shared_ptr<const OneShotRibltSpec> spec,
                  const RibltReconParams& params, const PointSet& points,
                  const recon::CanonicalSketchProvider* sketches)
      : BobSessionBase(points),
        spec_(std::move(spec)),
        params_(params),
        sketches_(sketches) {}

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(recon::SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    const PointSet& bob = points_;
    BitReader r(message.payload);
    // Alice's n is prefixed: max_entries (and thus the sum-field widths)
    // must match hers even when the set sizes differ. An n whose
    // max_entries = 2n + 2 passes kRibltMaxEntries is no set's size, and
    // its wider sums would leave the cells no headroom.
    uint64_t alice_n = 0;
    if (!r.ReadVarint(&alice_n) || alice_n > (kRibltMaxEntries - 2) / 2) {
      FailWith(recon::SessionError::kMalformedMessage);
      return NoMessages();
    }
    std::optional<Riblt> diff = Riblt::Deserialize(
        spec_->Config(static_cast<size_t>(alice_n)), &r);
    if (!diff.has_value()) {
      FailWith(recon::SessionError::kMalformedMessage);
      return NoMessages();
    }
    // Erasing Bob's pairs one by one and subtracting a cached table of the
    // same pairs are the same linear operation on the cells; the cache
    // makes this step difference-independent of |S_B|.
    const std::shared_ptr<const Riblt> cached = spec_->Find(sketches_);
    if (cached != nullptr) {
      diff->Subtract(*cached);
    } else {
      for (const Point& p : bob) diff->Erase(spec_->PointKeyOf(p), p);
    }
    Rng rounding_rng(spec_->seed() ^ 0x726c7472ULL);  // "rltr" tag
    const RibltDecodeResult decoded =
        std::move(*diff).Decode(&rounding_rng, params_.DecodeBudget());
    if (decoded.success) {
      // +1 entries are Alice-only points to adopt; -1 entries are Bob-only
      // points to retire (matched greedily against his own set, since the
      // decoded copies may carry averaged-value residue).
      PointSet xa, xb;
      for (const RibltEntry& entry : decoded.entries) {
        for (const Point& value : entry.values) {
          (entry.sign > 0 ? xa : xb).push_back(value);
        }
      }
      result_.success = true;
      result_.decoded_entries = xa.size() + xb.size();
      SetRepair(RetireAndAdopt(bob, xb, std::move(xa), params_.metric));
    }
    Finish();
    return NoMessages();
  }

 private:
  std::shared_ptr<const OneShotRibltSpec> spec_;
  RibltReconParams params_;
  const recon::CanonicalSketchProvider* sketches_;
};

}  // namespace

std::unique_ptr<recon::PartySession> RibltReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<RibltOneShotAlice>(spec_, points);
}

std::unique_ptr<recon::PartySession> RibltReconciler::NewBobSession(
    const PointSet& points,
    const recon::CanonicalSketchProvider* sketches) const {
  return std::make_unique<RibltOneShotBob>(spec_, params_, points,
                                           sketches);
}

}  // namespace rsr
