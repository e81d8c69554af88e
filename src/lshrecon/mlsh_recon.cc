#include "lshrecon/mlsh_recon.h"

#include <algorithm>
#include <bit>
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

MlshLadderSpec::MlshLadderSpec(const recon::ProtocolContext& context,
                               const MlshParams& params)
    : LinearSketch(recon::SketchKey{
          "mlsh-riblt",
          {static_cast<uint64_t>(context.universe.d),
           static_cast<uint64_t>(context.universe.delta), context.seed,
           MlshLevelConfig(context.universe, params, 0, 0, context.seed)
               .RoundedCells(),
           static_cast<uint64_t>(params.q),
           static_cast<uint64_t>(params.count_bits),
           static_cast<uint64_t>(params.family),
           std::bit_cast<uint64_t>(
               MlshEffectiveWidth(context.universe, params)),
           params.NumFunctions()}}),
      context_(context),
      params_(params),
      prefixes_(MlshPrefixLadder(params.NumFunctions())),
      family_(MakeMlshFamily(params.family, context.universe,
                             MlshEffectiveWidth(context.universe, params),
                             params.NumFunctions(), context.seed)) {}

RibltConfig MlshLadderSpec::Config(size_t n, size_t level_index) const {
  return MlshLevelConfig(context_.universe, params_, n, level_index,
                         context_.seed);
}

std::vector<uint64_t> MlshLadderSpec::Chain(const Point& p) const {
  return MlshKeyChain(*family_, p, context_.seed);
}

void MlshLadderSpec::Apply(const Point& p, int direction,
                           Sketch* tables) const {
  const std::vector<uint64_t> chain = Chain(p);
  for (size_t li = 0; li < prefixes_.size(); ++li) {
    const uint64_t key = chain[prefixes_[li] - 1];
    if (direction > 0) {
      (*tables)[li].Insert(key, p);
    } else {
      (*tables)[li].Erase(key, p);
    }
  }
}

MlshLadderSpec::Built MlshLadderSpec::Build(const PointSet& points) const {
  Built built;
  built.sketch.reserve(prefixes_.size());
  for (size_t li = 0; li < prefixes_.size(); ++li) {
    built.sketch.emplace_back(Config(points.size(), li));
  }
  for (const Point& p : points) Apply(p, +1, &built.sketch);
  return built;
}

bool MlshLadderSpec::Carries(size_t from, size_t to) const {
  return SameSumWidths(Config(from, 0), Config(to, 0));
}

MlshLadderSpec::Sketch MlshLadderSpec::Advance(
    const Sketch& tables, recon::NoUpkeep*,
    const recon::SketchBatch& batch) const {
  Sketch next = tables;
  for (const Point& p : batch.erases) Apply(p, -1, &next);
  for (const Point& p : batch.inserts) Apply(p, +1, &next);
  return next;
}

namespace {

class MlshAlice : public recon::PartySessionBase {
 public:
  MlshAlice(std::shared_ptr<const MlshLadderSpec> spec,
            const PointSet& points)
      : spec_(std::move(spec)), points_(points) {}

  std::vector<transport::Message> Start() override {
    // One RIBLT per level, all in one message.
    BitWriter w;
    for (const Riblt& table : spec_->Build(points_).sketch) {
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
  std::shared_ptr<const MlshLadderSpec> spec_;
  const PointSet& points_;
};

class MlshBob : public recon::BobSessionBase {
 public:
  MlshBob(std::shared_ptr<const MlshLadderSpec> spec, const MlshParams& params,
          const PointSet& points,
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
    const size_t n = bob.size();
    const std::vector<size_t>& prefixes = spec_->prefixes();

    BitReader r(message.payload);
    // Deserialize every level first (stream order), then scan finest-first.
    std::vector<Riblt> alice_tables;
    alice_tables.reserve(prefixes.size());
    for (size_t li = 0; li < prefixes.size(); ++li) {
      std::optional<Riblt> table = Riblt::Deserialize(spec_->Config(n, li), &r);
      if (!table.has_value()) {  // truncated mlsh-levels message
        FailWith(recon::SessionError::kMalformedMessage);
        return NoMessages();
      }
      alice_tables.push_back(std::move(*table));
    }

    // With a sketch cache the per-level erase loop collapses into one
    // linear Subtract of the cached table (identical cell arithmetic).
    // Without one, Bob's pairs are erased straight into Alice's table, from
    // hash chains built on the first level that needs them.
    const std::shared_ptr<const std::vector<Riblt>> cached =
        spec_->Find(sketches_);
    std::vector<std::vector<uint64_t>> bob_chains;

    const size_t budget = params_.DecodeBudget();
    Rng rounding_rng(spec_->seed() ^ 0x726f756e64ULL);  // "round" tag
    for (size_t li = prefixes.size(); li-- > 0;) {
      Riblt diff = alice_tables[li];
      if (cached != nullptr) {
        diff.Subtract((*cached)[li]);
      } else {
        if (bob_chains.empty()) {
          bob_chains.reserve(n);
          for (const Point& p : bob) bob_chains.push_back(spec_->Chain(p));
        }
        for (size_t i = 0; i < n; ++i) {
          diff.Erase(bob_chains[i][prefixes[li] - 1], bob[i]);
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
  std::shared_ptr<const MlshLadderSpec> spec_;
  MlshParams params_;
  const recon::CanonicalSketchProvider* sketches_;
};

}  // namespace

std::unique_ptr<recon::PartySession> MlshReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<MlshAlice>(spec_, points);
}

std::unique_ptr<recon::PartySession> MlshReconciler::NewBobSession(
    const PointSet& points,
    const recon::CanonicalSketchProvider* sketches) const {
  return std::make_unique<MlshBob>(spec_, params_, points, sketches);
}

}  // namespace lshrecon
}  // namespace rsr
