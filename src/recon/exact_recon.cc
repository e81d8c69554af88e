#include "recon/exact_recon.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash/mix.h"
#include "iblt/iblt.h"
#include "iblt/sizing.h"
#include "iblt/strata.h"
#include "recon/session.h"

namespace rsr {
namespace recon {

// Occurrence-indexed keys make duplicate points in one party's multiset
// distinct sketch elements (plain IBLTs cannot hold duplicate keys), while
// the i-th copy of a shared point still cancels across parties.
KeyedPointList ExactKeyedPoints(const PointSet& points, uint64_t seed) {
  PointSet sorted = points;
  std::sort(sorted.begin(), sorted.end(), PointLess);
  KeyedPointList keyed;
  keyed.reserve(sorted.size());
  size_t occurrence = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    // Compare against the copy already stored in `keyed` — sorted[i - 1]
    // must not be used after it was moved out of.
    occurrence =
        (i > 0 && sorted[i] == keyed[i - 1].second) ? occurrence + 1 : 0;
    const uint64_t key = ExactOccurrenceKey(sorted[i], occurrence, seed);
    keyed.emplace_back(key, std::move(sorted[i]));
  }
  return keyed;
}

uint64_t ExactOccurrenceKey(const Point& p, size_t occurrence,
                            uint64_t seed) {
  return HashCombine(PointKey(p, seed), occurrence);
}

StrataConfig ExactReconStrataConfig(uint64_t seed) {
  StrataConfig config;
  config.num_strata = 20;
  config.cells_per_stratum = 32;
  config.q = 4;
  config.checksum_bits = 32;
  config.count_bits = 12;
  config.seed = seed ^ 0x657874737472ULL;  // "extstr" tag
  return config;
}

namespace {

// IBLT configuration of attempt `attempt` (shared derivation; only the
// cell count travels on the wire).
IbltConfig ExactIbltConfig(const ProtocolContext& context,
                           const ExactReconParams& params, uint64_t target,
                           size_t attempt) {
  IbltConfig config;
  config.cells = RecommendedCells(static_cast<size_t>(target) << attempt,
                                  params.q, params.headroom);
  config.q = params.q;
  config.value_bits = context.universe.BitsPerPoint();
  config.checksum_bits = params.checksum_bits;
  config.count_bits = params.count_bits;
  config.seed =
      Hash64(attempt, context.seed ^ 0x6578616374ULL);  // "exact" tag
  return config;
}

// Alice: awaits Bob's strata estimator, then serves IBLTs — the first
// sized from the estimate, each retry doubled.
class ExactAlice : public PartySessionBase {
 public:
  ExactAlice(const ProtocolContext& context, const ExactReconParams& params,
             const PointSet& points)
      : context_(context),
        params_(params),
        keyed_(ExactKeyedPoints(points, context.seed)) {}

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    if (state_ == State::kAwaitStrata) {
      // --- Estimate the difference from Bob's estimator. ---
      const StrataConfig strata_config =
          ExactReconStrataConfig(context_.seed);
      BitReader r(message.payload);
      std::optional<StrataEstimator> bob_est =
          StrataEstimator::Deserialize(strata_config, &r);
      if (!bob_est.has_value()) {
        FailWith(SessionError::kMalformedMessage);
        return NoMessages();
      }
      StrataEstimator alice_est(strata_config);
      for (const auto& [key, point] : keyed_) {
        (void)point;
        alice_est.Insert(key);
      }
      const uint64_t estimate = alice_est.EstimateDifference(*bob_est);
      target_ = static_cast<uint64_t>(static_cast<double>(estimate) *
                                      params_.estimate_safety);
      if (target_ < 16) target_ = 16;
      state_ = State::kServing;
      result_.success = true;
      return OneMessage(MakeIbltMessage(/*attempt=*/0));
    }
    // State::kServing — an "exact-retry" carrying the next attempt index.
    BitReader r(message.payload);
    uint64_t attempt = 0;
    if (!r.ReadVarint(&attempt)) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    if (attempt >= params_.max_attempts) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    return OneMessage(MakeIbltMessage(static_cast<size_t>(attempt)));
  }

 private:
  enum class State { kAwaitStrata, kServing };

  // Alice -> Bob: her set sketched into the IBLT (cells prefixed so Bob
  // can reconstruct the config without further negotiation).
  transport::Message MakeIbltMessage(size_t attempt) {
    const IbltConfig config =
        ExactIbltConfig(context_, params_, target_, attempt);
    Iblt table(config);
    std::vector<uint64_t> value(table.value_words());
    for (const auto& [key, point] : keyed_) {
      PackPointWords(context_.universe, point, value.data());
      table.Insert(key, value.data());
    }
    BitWriter w;
    w.WriteVarint(config.cells);
    table.Serialize(&w);
    return transport::MakeMessage("exact-iblt", std::move(w));
  }

  ProtocolContext context_;
  ExactReconParams params_;
  KeyedPointList keyed_;
  State state_ = State::kAwaitStrata;
  uint64_t target_ = 0;
};

// Bob: opens with his strata estimator, then decodes each IBLT reply,
// requesting a doubled table on failure while attempts remain.
class ExactBob : public BobSessionBase {
 public:
  ExactBob(const ProtocolContext& context, const ExactReconParams& params,
           const PointSet& points, const CanonicalSketchProvider* sketches)
      : BobSessionBase(points), context_(context), params_(params) {
    // The keyed list itself is shareable canonical state (the sort is the
    // per-session cost worth skipping); the difference-sized IBLT below is
    // not — its size comes from the client's estimate.
    if (sketches != nullptr) {
      keyed_ = sketches->ExactKeyedPoints(context_.seed);
    }
    if (keyed_ == nullptr) {
      keyed_ = std::make_shared<const KeyedPointList>(
          ExactKeyedPoints(points_, context_.seed));
    }
    if (sketches != nullptr) {
      cached_strata_ =
          sketches->ExactStrata(ExactReconStrataConfig(context_.seed));
    }
  }

  std::vector<transport::Message> Start() override {
    // --- Message 1 (B->A): strata estimator of Bob's keys. ---
    std::optional<StrataEstimator> est = std::move(cached_strata_);
    if (!est.has_value()) {
      est.emplace(ExactReconStrataConfig(context_.seed));
      for (const auto& [key, point] : *keyed_) {
        (void)point;
        est->Insert(key);
      }
    }
    BitWriter w;
    est->Serialize(&w);
    return OneMessage(transport::MakeMessage("exact-strata", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    result_.attempts = attempt_ + 1;
    const uint64_t seed = context_.seed;
    BitReader r(message.payload);
    uint64_t cells = 0;
    if (!r.ReadVarint(&cells)) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    // target is irrelevant for deserialisation: the cell count comes from
    // the wire, everything else from public parameters and the attempt.
    IbltConfig config =
        ExactIbltConfig(context_, params_, /*target=*/16, attempt_);
    config.cells = static_cast<size_t>(cells);
    std::optional<Iblt> table = Iblt::Deserialize(config, &r);
    if (!table.has_value()) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    std::vector<uint64_t> value(table->value_words());
    for (const auto& [key, point] : *keyed_) {
      PackPointWords(context_.universe, point, value.data());
      table->Erase(key, value.data());
    }
    const IbltDecodeResult decoded = table->Decode();
    if (decoded.success) {
      // Apply: +1 entries are Alice-only points, -1 entries Bob-only.
      std::unordered_map<uint64_t, int64_t> to_remove;  // key -> copies
      RepairedSet repair(points_);
      bool parse_ok = true;
      for (const IbltEntry& entry : decoded.entries) {
        BitReader vr(entry.value);
        Point p;
        if (!UnpackPoint(context_.universe, &vr, &p)) {
          parse_ok = false;
          break;
        }
        if (entry.sign > 0) {
          repair.additions.push_back(std::move(p));
        } else {
          ++to_remove[PointKey(p, seed)];
        }
      }
      if (parse_ok) {
        // Each -1 key retires Bob's first remaining copy of it.
        repair.removed.assign(points_.size(), 0);
        for (size_t i = 0; i < points_.size(); ++i) {
          auto it = to_remove.find(PointKey(points_[i], seed));
          if (it != to_remove.end() && it->second > 0) {
            --it->second;
            repair.removed[i] = 1;
          }
        }
        result_.success = true;
        result_.decoded_entries = decoded.entries.size();
        SetRepair(std::move(repair));
        Finish();
        return NoMessages();
      }
    }
    // Decode failed: request a doubled table unless out of attempts.
    ++attempt_;
    if (attempt_ >= params_.max_attempts) {
      Finish();  // unsuccessful
      return NoMessages();
    }
    BitWriter w;
    w.WriteVarint(attempt_);
    return OneMessage(transport::MakeMessage("exact-retry", std::move(w)));
  }

 private:
  ProtocolContext context_;
  ExactReconParams params_;
  std::shared_ptr<const KeyedPointList> keyed_;
  std::optional<StrataEstimator> cached_strata_;
  size_t attempt_ = 0;
};

}  // namespace

std::unique_ptr<PartySession> ExactReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<ExactAlice>(context_, params_, points);
}

std::unique_ptr<PartySession> ExactReconciler::NewBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return std::make_unique<ExactBob>(context_, params_, points, sketches);
}

}  // namespace recon
}  // namespace rsr
