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

PointSet RetireAndAdopt(const PointSet& bob, const PointSet& retire,
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

  std::vector<char> taken(bob.size(), 0);
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

  PointSet final_set;
  final_set.reserve(bob.size() + adopt.size());
  for (size_t i = 0; i < bob.size(); ++i) {
    if (!taken[i]) final_set.push_back(bob[i]);
  }
  for (Point& p : adopt) final_set.push_back(std::move(p));
  return final_set;
}

namespace {

class RibltOneShotAlice : public recon::PartySessionBase {
 public:
  RibltOneShotAlice(const recon::ProtocolContext& context,
                    const RibltReconParams& params, PointSet points)
      : context_(context), params_(params), points_(std::move(points)) {}

  std::vector<transport::Message> Start() override {
    Riblt table(RibltOneShotConfig(context_.universe, params_,
                                   points_.size(), context_.seed));
    for (const Point& p : points_) {
      table.Insert(PointKey(p, context_.seed), p);
    }
    BitWriter w;
    w.WriteVarint(points_.size());
    table.Serialize(&w);
    result_.success = true;
    Finish();
    return OneMessage(transport::MakeMessage("riblt-set", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(transport::Message) override {
    FailWith(recon::SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  recon::ProtocolContext context_;
  RibltReconParams params_;
  PointSet points_;
};

class RibltOneShotBob : public recon::PartySessionBase {
 public:
  RibltOneShotBob(const recon::ProtocolContext& context,
                  const RibltReconParams& params, PointSet points,
                  const recon::CanonicalSketchProvider* sketches)
      : context_(context),
        params_(params),
        points_(std::move(points)),
        sketches_(sketches) {
    result_.bob_final = points_;
  }

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
    // must match hers even when the set sizes differ.
    uint64_t alice_n = 0;
    if (!r.ReadVarint(&alice_n)) {
      FailWith(recon::SessionError::kMalformedMessage);
      return NoMessages();
    }
    const RibltConfig config =
        RibltOneShotConfig(context_.universe, params_,
                           static_cast<size_t>(alice_n), context_.seed);
    std::optional<Riblt> diff = Riblt::Deserialize(config, &r);
    if (!diff.has_value()) {
      FailWith(recon::SessionError::kMalformedMessage);
      return NoMessages();
    }
    // Erasing Bob's pairs one by one and subtracting a cached table of the
    // same pairs are the same linear operation on the cells; the cache
    // makes this step difference-independent of |S_B|.
    std::optional<Riblt> cached =
        sketches_ != nullptr ? sketches_->OneShotRiblt(config) : std::nullopt;
    if (cached.has_value()) {
      diff->Subtract(*cached);
    } else {
      for (const Point& p : bob) {
        diff->Erase(PointKey(p, context_.seed), p);
      }
    }
    Rng rounding_rng(context_.seed ^ 0x726c7472ULL);  // "rltr" tag
    const RibltDecodeResult decoded =
        diff->Decode(&rounding_rng, params_.DecodeBudget());
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
      result_.bob_final =
          RetireAndAdopt(bob, xb, std::move(xa), params_.metric);
    }
    Finish();
    return NoMessages();
  }

 private:
  recon::ProtocolContext context_;
  RibltReconParams params_;
  PointSet points_;
  const recon::CanonicalSketchProvider* sketches_;
};

}  // namespace

std::unique_ptr<recon::PartySession> RibltReconciler::MakeAliceSession(
    const PointSet& points) const {
  return std::make_unique<RibltOneShotAlice>(context_, params_, points);
}

std::unique_ptr<recon::PartySession> RibltReconciler::MakeBobSession(
    const PointSet& points) const {
  return MakeBobSession(points, nullptr);
}

std::unique_ptr<recon::PartySession> RibltReconciler::MakeBobSession(
    const PointSet& points,
    const recon::CanonicalSketchProvider* sketches) const {
  return std::make_unique<RibltOneShotBob>(context_, params_, points,
                                           sketches);
}

}  // namespace rsr
