#include "iblt/strata.h"

#include <bit>
#include <utility>

#include "hash/mix.h"
#include "util/check.h"

namespace rsr {

namespace {
IbltConfig StratumIbltConfig(const StrataConfig& config, int stratum) {
  IbltConfig c;
  c.cells = config.cells_per_stratum;
  c.q = config.q;
  c.value_bits = 0;
  c.checksum_bits = config.checksum_bits;
  c.count_bits = config.count_bits;
  c.seed = Hash64(static_cast<uint64_t>(stratum),
                  config.seed ^ 0x7374726174ULL);  // "strat" tag
  return c;
}
}  // namespace

size_t StrataConfig::SerializedBits() const {
  size_t total = 0;
  for (int i = 0; i < num_strata; ++i) {
    StrataConfig copy = *this;
    total += StratumIbltConfig(copy, i).SerializedBits();
  }
  return total;
}

StrataEstimator::StrataEstimator(const StrataConfig& config)
    : config_(config),
      assign_seed_(config.seed ^ 0x6173736967ULL) {  // "assig" tag
  RSR_CHECK(config.num_strata >= 1);
  strata_.reserve(static_cast<size_t>(config.num_strata));
  for (int i = 0; i < config.num_strata; ++i) {
    strata_.emplace_back(StratumIbltConfig(config_, i));
  }
}

int StrataEstimator::StratumOf(uint64_t key) const {
  const uint64_t h = Hash64(key, assign_seed_);
  const int tz = h == 0 ? 64 : std::countr_zero(h);
  return tz >= config_.num_strata ? config_.num_strata - 1 : tz;
}

void StrataEstimator::Insert(uint64_t key) {
  strata_[static_cast<size_t>(StratumOf(key))].Insert(key, {});
}

void StrataEstimator::Erase(uint64_t key) {
  strata_[static_cast<size_t>(StratumOf(key))].Erase(key, {});
}

uint64_t StrataEstimator::EstimateDifference(
    const StrataEstimator& other) const {
  RSR_CHECK(config_.num_strata == other.config_.num_strata);
  // Decode strata from the deepest (sparsest) downward, accumulating
  // recovered difference elements. The first stratum that fails to decode
  // determines the scaling factor.
  uint64_t recovered = 0;
  for (int i = config_.num_strata - 1; i >= 0; --i) {
    Iblt diff = strata_[static_cast<size_t>(i)];
    diff.Subtract(other.strata_[static_cast<size_t>(i)]);
    const IbltDecodeResult decoded = std::move(diff).Decode();
    if (!decoded.success) {
      if (i == config_.num_strata - 1) {
        // Even the sparsest stratum overflowed: the difference exceeds what
        // this estimator can measure. Return a saturating lower bound (the
        // stratum's capacity scaled up) so callers treat it as "huge"
        // rather than zero.
        return cells_per_stratum_capacity() << config_.num_strata;
      }
      // Elements in strata > i form a 2^-(i+1) sample of the difference.
      return recovered << (i + 1);
    }
    recovered += decoded.entries.size();
  }
  return recovered;  // every stratum decoded: exact count
}

void StrataEstimator::Serialize(BitWriter* out) const {
  for (const Iblt& s : strata_) s.Serialize(out);
}

std::optional<StrataEstimator> StrataEstimator::Deserialize(
    const StrataConfig& config, BitReader* in) {
  StrataEstimator est(config);
  est.strata_.clear();
  for (int i = 0; i < config.num_strata; ++i) {
    std::optional<Iblt> table =
        Iblt::Deserialize(StratumIbltConfig(config, i), in);
    if (!table.has_value()) return std::nullopt;
    est.strata_.push_back(std::move(*table));
  }
  return est;
}

}  // namespace rsr
