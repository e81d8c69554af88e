#include "gaprecon/gap_recon.h"

#include <cmath>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hash/mix.h"
#include "recon/session.h"
#include "iblt/iblt.h"
#include "iblt/sizing.h"
#include "iblt/strata.h"
#include "util/check.h"
#include "util/random.h"

namespace rsr {
namespace gaprecon {

double GapParams::CellSide(int d) const {
  const double effective_r2 = EffectiveR2(d);
  switch (metric) {
    case Metric::kL1:
      return effective_r2 / static_cast<double>(d);
    case Metric::kL2:
      return effective_r2 / std::sqrt(static_cast<double>(d));
    case Metric::kLinf:
      return effective_r2;
    case Metric::kHamming:
      // No meaningful lattice for Hamming; fall back to the ℓ1 bound.
      return effective_r2 / static_cast<double>(d);
  }
  return effective_r2 / static_cast<double>(d);
}

double GapParams::RhoHat(int d) const {
  // Union bound over axes: a pair at distance r1 straddles a lattice
  // boundary with probability at most (sum of per-axis offsets) / side,
  // which for every supported metric is bounded by r1 * d / r2.
  const double rho = r1 * static_cast<double>(d) / EffectiveR2(d);
  return rho < 0.95 ? rho : 0.95;
}

namespace {

// One randomly shifted lattice per function; shifts are doubles in
// [0, side) derived from the public seed.
class LatticeKeys {
 public:
  LatticeKeys(const Universe& universe, double side, int h, uint64_t seed)
      : universe_(universe), side_(side), h_(h) {
    RSR_CHECK(side > 0.0);
    Rng rng(seed ^ 0x676170ULL);  // "gap" tag
    shifts_.resize(static_cast<size_t>(h) *
                   static_cast<size_t>(universe.d));
    for (auto& s : shifts_) s = rng.NextDouble() * side;
  }

  /// Raw entry key of point `p` under lattice `j`.
  uint64_t Key(const Point& p, int j) const {
    const double* shift =
        shifts_.data() +
        static_cast<size_t>(j) * static_cast<size_t>(universe_.d);
    uint64_t hash = Hash64(static_cast<uint64_t>(j), 0x6c617474ULL);
    for (int i = 0; i < universe_.d; ++i) {
      const int64_t cell = static_cast<int64_t>(std::floor(
          (static_cast<double>(p[static_cast<size_t>(i)]) + shift[i]) /
          side_));
      hash = HashCombine(hash, static_cast<uint64_t>(cell));
    }
    return hash;
  }

  int h() const { return h_; }

 private:
  Universe universe_;
  double side_;
  int h_;
  std::vector<double> shifts_;
};

// Raw-key histogram plus the canonical occurrence-indexed key multiset.
struct EntrySet {
  std::unordered_map<uint64_t, int64_t> raw_counts;
  std::vector<uint64_t> occ_keys;
};

EntrySet BuildEntrySet(const PointSet& points, const LatticeKeys& lattice) {
  EntrySet set;
  set.raw_counts.reserve(points.size() * static_cast<size_t>(lattice.h()));
  for (const Point& p : points) {
    for (int j = 0; j < lattice.h(); ++j) {
      ++set.raw_counts[lattice.Key(p, j)];
    }
  }
  set.occ_keys.reserve(points.size() * static_cast<size_t>(lattice.h()));
  for (const auto& [raw, count] : set.raw_counts) {
    for (int64_t occ = 0; occ < count; ++occ) {
      set.occ_keys.push_back(HashCombine(raw, static_cast<uint64_t>(occ)));
    }
  }
  return set;
}

StrataConfig GapStrataConfig(uint64_t seed) {
  StrataConfig config;
  config.num_strata = 16;
  config.cells_per_stratum = 24;
  config.q = 4;
  config.checksum_bits = 32;
  config.count_bits = 10;
  config.seed = seed ^ 0x676170737472ULL;  // "gapstr" tag
  return config;
}

// h derivation from a set size (the initiator's, now that no single
// endpoint knows both sizes).
int DeriveNumFunctions(const GapParams& params, double rho, size_t n) {
  int h = params.num_functions;
  if (h <= 0) {
    const double target =
        std::log(20.0 * static_cast<double>(n > 1 ? n : 2));
    h = static_cast<int>(std::ceil(target / std::log(1.0 / rho)));
    if (h < 2) h = 2;
  }
  return h;
}

// Entry-key IBLT configuration of attempt `attempt` (cells travel on the
// wire; everything else is public).
IbltConfig GapIbltConfig(const GapParams& params, uint64_t seed,
                         uint64_t target, size_t attempt) {
  IbltConfig config;
  config.cells = RecommendedCells(static_cast<size_t>(target) << attempt,
                                  params.q, params.headroom);
  config.q = params.q;
  config.value_bits = 0;
  config.seed = Hash64(attempt, seed ^ 0x676170696274ULL);  // "gapibt"
  return config;
}

// Alice: opens with (h, strata estimator of her entry keys), decodes Bob's
// entry-key IBLT, and ships her uncovered points at full precision.
class GapAlice : public recon::PartySessionBase {
 public:
  GapAlice(const recon::ProtocolContext& context, const GapParams& params,
           const PointSet& points)
      : context_(context), params_(params), points_(points) {
    const int d = context_.universe.d;
    const double rho = params_.RhoHat(d);
    RSR_CHECK_MSG(rho < 1.0, "gap model requires r2 > r1 * d");
    h_ = DeriveNumFunctions(params_, rho, points_.size());
    lattice_ = std::make_unique<LatticeKeys>(
        context_.universe, params_.CellSide(d), h_, context_.seed);
    entries_ = BuildEntrySet(points_, *lattice_);
  }

  std::vector<transport::Message> Start() override {
    // --- Round 1 (A->B): h, then a strata estimator over Alice's entry
    // keys. ---
    StrataEstimator est(GapStrataConfig(context_.seed));
    for (uint64_t key : entries_.occ_keys) est.Insert(key);
    BitWriter w;
    w.WriteVarint(static_cast<uint64_t>(h_));
    est.Serialize(&w);
    return OneMessage(transport::MakeMessage("gap-strata", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_ || message.label != "gap-iblt") {
      FailWith(recon::SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    result_.attempts = attempt_ + 1;
    BitReader r(message.payload);
    uint64_t cells = 0;
    if (!r.ReadVarint(&cells)) {
      FailWith(recon::SessionError::kMalformedMessage);
      return NoMessages();
    }
    IbltConfig config =
        GapIbltConfig(params_, context_.seed, /*target=*/16, attempt_);
    config.cells = static_cast<size_t>(cells);
    std::optional<Iblt> table = Iblt::Deserialize(config, &r);
    if (!table.has_value()) {
      FailWith(recon::SessionError::kMalformedMessage);
      return NoMessages();
    }
    for (uint64_t key : entries_.occ_keys) table->Erase(key, {});
    const IbltDecodeResult decoded = table->Decode();
    if (!decoded.success) {
      ++attempt_;
      if (attempt_ >= params_.max_attempts) {
        Finish();  // every attempt failed to decode
        return NoMessages();
      }
      BitWriter w;
      w.WriteVarint(attempt_);
      return OneMessage(transport::MakeMessage("gap-retry", std::move(w)));
    }

    // Keys with sign -1 are Alice-only entries: cells Bob lacks.
    std::unordered_set<uint64_t> alice_only;
    alice_only.reserve(decoded.entries.size());
    for (const IbltEntry& entry : decoded.entries) {
      if (entry.sign < 0) alice_only.insert(entry.key);
    }

    // A raw cell key of Alice's is covered by Bob iff not every one of
    // her occurrence keys for it is in the Alice-only diff.
    auto covered_raw = [&](uint64_t raw) {
      const auto it = entries_.raw_counts.find(raw);
      RSR_DCHECK(it != entries_.raw_counts.end());
      const int64_t count = it->second;
      int64_t missing = 0;
      for (int64_t occ = 0; occ < count; ++occ) {
        if (alice_only.count(
                HashCombine(raw, static_cast<uint64_t>(occ)))) {
          ++missing;
        }
      }
      return missing < count;
    };

    // T_A: every point none of whose h cells is shared with Bob.
    std::unordered_set<uint64_t> sent_exact;  // dedupe identical points
    PointSet to_send;
    for (const Point& p : points_) {
      bool covered = false;
      for (int j = 0; j < h_ && !covered; ++j) {
        covered = covered_raw(lattice_->Key(p, j));
      }
      if (!covered) {
        const uint64_t exact = PointKey(p, context_.seed);
        if (sent_exact.insert(exact).second) to_send.push_back(p);
      }
    }

    // A -> B: the uncovered points at full precision.
    BitWriter w;
    w.WriteVarint(to_send.size());
    PackPoints(context_.universe, to_send, &w);
    result_.success = true;
    result_.transmitted = to_send.size();
    Finish();
    return OneMessage(transport::MakeMessage("gap-points", std::move(w)));
  }

 private:
  recon::ProtocolContext context_;
  GapParams params_;
  const PointSet& points_;
  int h_ = 0;
  std::unique_ptr<LatticeKeys> lattice_;
  EntrySet entries_;
  size_t attempt_ = 0;
};

// Bob: estimates the entry-key difference from Alice's opening, ships an
// IBLT of his entry keys (doubled on each retry), and appends the points
// Alice finally transmits.
class GapBob : public recon::BobSessionBase {
 public:
  GapBob(const recon::ProtocolContext& context, const GapParams& params,
         const PointSet& points)
      : BobSessionBase(points), context_(context), params_(params) {
    const double rho = params_.RhoHat(context_.universe.d);
    RSR_CHECK_MSG(rho < 1.0, "gap model requires r2 > r1 * d");
  }

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(recon::SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    if (state_ == State::kAwaitStrata) {
      if (message.label != "gap-strata") {
        FailWith(recon::SessionError::kUnexpectedMessage);
        return NoMessages();
      }
      BitReader r(message.payload);
      uint64_t h = 0;
      if (!r.ReadVarint(&h) || h < 1 || h > 4096) {
        FailWith(recon::SessionError::kMalformedMessage);
        return NoMessages();
      }
      const StrataConfig strata_config = GapStrataConfig(context_.seed);
      std::optional<StrataEstimator> alice_est =
          StrataEstimator::Deserialize(strata_config, &r);
      if (!alice_est.has_value()) {
        FailWith(recon::SessionError::kMalformedMessage);
        return NoMessages();
      }
      const LatticeKeys lattice(context_.universe,
                                params_.CellSide(context_.universe.d),
                                static_cast<int>(h), context_.seed);
      entries_ = BuildEntrySet(points_, lattice);
      StrataEstimator bob_est(strata_config);
      for (uint64_t key : entries_.occ_keys) bob_est.Insert(key);
      const uint64_t estimate = bob_est.EstimateDifference(*alice_est);
      target_ = static_cast<uint64_t>(static_cast<double>(estimate) *
                                      params_.estimate_safety);
      if (target_ < 16) target_ = 16;
      state_ = State::kAwaitReply;
      return OneMessage(MakeIbltMessage(/*attempt=*/0));
    }
    // State::kAwaitReply.
    if (message.label == "gap-retry") {
      BitReader r(message.payload);
      uint64_t attempt = 0;
      if (!r.ReadVarint(&attempt)) {
        FailWith(recon::SessionError::kMalformedMessage);
        return NoMessages();
      }
      if (attempt >= params_.max_attempts) {
        FailWith(recon::SessionError::kUnexpectedMessage);
        return NoMessages();
      }
      return OneMessage(MakeIbltMessage(static_cast<size_t>(attempt)));
    }
    if (message.label == "gap-points") {
      BitReader pr(message.payload);
      uint64_t count = 0;
      if (!pr.ReadVarint(&count)) {
        FailWith(recon::SessionError::kMalformedMessage);
        return NoMessages();
      }
      // S'_B = S_B plus T_A: nothing of Bob's is removed.
      recon::RepairedSet repair(points_);
      for (uint64_t i = 0; i < count; ++i) {
        Point p;
        if (!UnpackPoint(context_.universe, &pr, &p)) {
          FailWith(recon::SessionError::kMalformedMessage);
          return NoMessages();
        }
        repair.additions.push_back(std::move(p));
      }
      SetRepair(std::move(repair));
      result_.transmitted = static_cast<size_t>(count);
      result_.success = true;
      Finish();
      return NoMessages();
    }
    FailWith(recon::SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  enum class State { kAwaitStrata, kAwaitReply };

  // B -> A: his entry keys (cells prefixed for config agreement).
  transport::Message MakeIbltMessage(size_t attempt) {
    result_.attempts = attempt + 1;
    const IbltConfig config =
        GapIbltConfig(params_, context_.seed, target_, attempt);
    Iblt table(config);
    for (uint64_t key : entries_.occ_keys) table.Insert(key, {});
    BitWriter w;
    w.WriteVarint(config.cells);
    table.Serialize(&w);
    return transport::MakeMessage("gap-iblt", std::move(w));
  }

  recon::ProtocolContext context_;
  GapParams params_;
  State state_ = State::kAwaitStrata;
  EntrySet entries_;
  uint64_t target_ = 0;
};

}  // namespace

std::unique_ptr<recon::PartySession> GapReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<GapAlice>(context_, params_, points);
}

std::unique_ptr<recon::PartySession> GapReconciler::NewBobSession(
    const PointSet& points, const recon::CanonicalSketchProvider*) const {
  return std::make_unique<GapBob>(context_, params_, points);
}

bool SatisfiesGapGuarantee(const PointSet& alice, const PointSet& bob_final,
                           const GapParams& params, int d) {
  const double r2 = params.EffectiveR2(d);
  for (const Point& a : alice) {
    bool covered = false;
    for (const Point& b : bob_final) {
      if (Distance(a, b, params.metric) <= r2) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace gaprecon
}  // namespace rsr
