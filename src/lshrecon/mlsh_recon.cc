#include "lshrecon/mlsh_recon.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "hash/mix.h"
#include "recon/session.h"
#include "riblt/riblt.h"
#include "riblt/riblt_recon.h"
#include "util/check.h"

namespace rsr {
namespace lshrecon {

// Prefix lengths double from 1 up to s (the level ladder).
std::vector<size_t> MlshPrefixLadder(size_t s) {
  std::vector<size_t> prefixes;
  for (size_t p = 1; p < s; p <<= 1) prefixes.push_back(p);
  prefixes.push_back(s);
  return prefixes;
}

// Per-point running hash chain over its LSH values; entry j is the key for
// prefix length j+1.
std::vector<uint64_t> MlshKeyChain(const MlshFamily& family, const Point& p,
                                   uint64_t seed) {
  std::vector<uint64_t> chain(family.size());
  uint64_t h = Hash64(0x6d6c7368ULL, seed);  // "mlsh" tag
  for (size_t j = 0; j < family.size(); ++j) {
    h = HashCombine(h, family.Eval(j, p));
    chain[j] = h;
  }
  return chain;
}

RibltConfig MlshLevelConfig(const Universe& universe, const MlshParams& params,
                            size_t n, size_t level_index, uint64_t seed) {
  RibltConfig config;
  config.cells = static_cast<size_t>(
      params.cells_factor * params.q * params.q *
      static_cast<double>(params.k > 0 ? params.k : 1));
  config.q = params.q;
  config.universe = universe;
  config.max_entries = 2 * n + 2;
  config.count_bits = params.count_bits;
  config.seed = Hash64(level_index, seed ^ 0x6d6c73686c76ULL);  // "mlshlv"
  return config;
}

double MlshEffectiveWidth(const Universe& universe,
                          const MlshParams& params) {
  return params.width > 0.0
             ? params.width
             : static_cast<double>(universe.delta) / 8.0;
}

namespace {

// Per-point key chains for a party's own points.
std::vector<std::vector<uint64_t>> ChainsFor(const MlshFamily& family,
                                             const PointSet& points,
                                             uint64_t seed) {
  std::vector<std::vector<uint64_t>> chains;
  chains.reserve(points.size());
  for (const Point& p : points) {
    chains.push_back(MlshKeyChain(family, p, seed));
  }
  return chains;
}

class MlshAlice : public recon::PartySessionBase {
 public:
  MlshAlice(const recon::ProtocolContext& context, const MlshParams& params,
            const PointSet& points)
      : context_(context), params_(params), points_(points) {}

  std::vector<transport::Message> Start() override {
    const Universe& universe = context_.universe;
    const size_t n = points_.size();
    const size_t s = params_.NumFunctions();
    const std::vector<size_t> prefixes = MlshPrefixLadder(s);
    const std::unique_ptr<MlshFamily> family = MakeMlshFamily(
        params_.family, universe, MlshEffectiveWidth(universe, params_), s,
        context_.seed);
    const auto chains = ChainsFor(*family, points_, context_.seed);

    // One RIBLT per level, all in one message.
    BitWriter w;
    for (size_t li = 0; li < prefixes.size(); ++li) {
      Riblt table(MlshLevelConfig(universe, params_, n, li, context_.seed));
      const size_t prefix = prefixes[li];
      for (size_t i = 0; i < points_.size(); ++i) {
        table.Insert(chains[i][prefix - 1], points_[i]);
      }
      table.Serialize(&w);
    }
    result_.success = true;
    Finish();
    return OneMessage(transport::MakeMessage("mlsh-levels", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(transport::Message) override {
    FailWith(recon::SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  recon::ProtocolContext context_;
  MlshParams params_;
  const PointSet& points_;
};

class MlshBob : public recon::BobSessionBase {
 public:
  MlshBob(const recon::ProtocolContext& context, const MlshParams& params,
          const PointSet& points,
          const recon::CanonicalSketchProvider* sketches)
      : BobSessionBase(points),
        context_(context),
        params_(params),
        sketches_(sketches) {}

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(recon::SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    const Universe& universe = context_.universe;
    const PointSet& bob = points_;
    const size_t n = bob.size();
    const size_t s = params_.NumFunctions();
    const std::vector<size_t> prefixes = MlshPrefixLadder(s);

    BitReader r(message.payload);
    // Deserialize every level first (stream order), then scan finest-first.
    std::vector<Riblt> alice_tables;
    alice_tables.reserve(prefixes.size());
    for (size_t li = 0; li < prefixes.size(); ++li) {
      std::optional<Riblt> table = Riblt::Deserialize(
          MlshLevelConfig(universe, params_, n, li, context_.seed), &r);
      if (!table.has_value()) {  // truncated mlsh-levels message
        FailWith(recon::SessionError::kMalformedMessage);
        return NoMessages();
      }
      alice_tables.push_back(std::move(*table));
    }

    // The hash chains are only needed to erase Bob's pairs by hand; with a
    // sketch cache the per-level erase loop collapses into one linear
    // Subtract of the cached table (identical cell arithmetic), so the
    // chains are built lazily, on the first level the cache declines.
    std::unique_ptr<MlshFamily> family;
    std::vector<std::vector<uint64_t>> bob_chains;
    const auto ensure_chains = [&] {
      if (family != nullptr) return;
      family = MakeMlshFamily(params_.family, universe,
                              MlshEffectiveWidth(universe, params_), s,
                              context_.seed);
      bob_chains = ChainsFor(*family, bob, context_.seed);
    };

    const size_t budget = params_.DecodeBudget();
    Rng rounding_rng(context_.seed ^ 0x726f756e64ULL);  // "round" tag
    for (size_t li = prefixes.size(); li-- > 0;) {
      Riblt diff = alice_tables[li];
      const size_t prefix = prefixes[li];
      std::optional<Riblt> cached =
          sketches_ != nullptr
              ? sketches_->MlshLevelRiblt(
                    MlshLevelConfig(universe, params_, n, li, context_.seed),
                    li)
              : std::nullopt;
      if (cached.has_value()) {
        diff.Subtract(*cached);
      } else {
        ensure_chains();
        for (size_t i = 0; i < bob.size(); ++i) {
          diff.Erase(bob_chains[i][prefix - 1], bob[i]);
        }
      }
      const RibltDecodeResult decoded = diff.Decode(&rounding_rng, budget);
      if (!decoded.success) continue;

      // Split decoded pairs into Alice's side (points to adopt) and Bob's
      // side (his unmatched points, possibly with propagated value error).
      PointSet xa, xb;
      for (const RibltEntry& entry : decoded.entries) {
        for (const Point& value : entry.values) {
          (entry.sign > 0 ? xa : xb).push_back(value);
        }
      }

      // Bob resolves XB against his own set: greedily match each decoded
      // Bob-side point to its nearest not-yet-taken own point; those are
      // the points he replaces. |XA| == |XB| when |alice| == |bob|, so the
      // final size is preserved.
      result_.success = true;
      result_.chosen_level = static_cast<int>(li);
      result_.decoded_entries = xa.size() + xb.size();
      SetRepair(RetireAndAdopt(bob, xb, std::move(xa), params_.metric));
      break;
    }
    Finish();
    return NoMessages();
  }

 private:
  recon::ProtocolContext context_;
  MlshParams params_;
  const recon::CanonicalSketchProvider* sketches_;
};

}  // namespace

std::unique_ptr<recon::PartySession> MlshReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<MlshAlice>(context_, params_, points);
}

std::unique_ptr<recon::PartySession> MlshReconciler::NewBobSession(
    const PointSet& points,
    const recon::CanonicalSketchProvider* sketches) const {
  return std::make_unique<MlshBob>(context_, params_, points, sketches);
}

}  // namespace lshrecon
}  // namespace rsr
