#include "recon/params.h"

#include "hash/mix.h"
#include "iblt/sizing.h"
#include "util/check.h"

namespace rsr {
namespace recon {

int HistogramCountBits(size_t n) {
  // Counts range over [1, n]; reserve one extra value so n itself fits.
  const int bits = BitWidthForUniverse(static_cast<uint64_t>(n) + 1);
  return bits < 1 ? 1 : bits;
}

int HistogramValueBits(const ShiftedGrid& grid, int level, size_t n) {
  return grid.CellBits(level) + HistogramCountBits(n);
}

IbltConfig LevelIbltConfig(const ShiftedGrid& grid, int level, size_t n,
                           const QuadtreeParams& params, uint64_t seed) {
  RSR_CHECK(level >= 0 && level <= grid.max_level());
  IbltConfig config;
  config.cells = RecommendedCells(params.DecodeBudget(), params.q,
                                  params.headroom);
  config.q = params.q;
  config.value_bits = HistogramValueBits(grid, level, n);
  config.checksum_bits = params.checksum_bits;
  config.count_bits = params.count_bits;
  config.seed = Hash64(static_cast<uint64_t>(level),
                       seed ^ 0x6c65766c696274ULL);  // "levlibt" tag
  return config;
}

bool LevelRangeFits(const Universe& universe, const QuadtreeParams& params) {
  const int hi = params.max_level < 0 ? universe.Levels() : params.max_level;
  return params.min_level >= 0 && params.min_level <= hi &&
         hi <= universe.Levels();
}

std::vector<int> ProtocolLevels(const ShiftedGrid& grid,
                                const QuadtreeParams& params) {
  RSR_CHECK(LevelRangeFits(grid.universe(), params));
  const int hi = params.max_level < 0 ? grid.max_level() : params.max_level;
  const int stride = params.level_stride < 1 ? 1 : params.level_stride;
  std::vector<int> levels;
  for (int level = params.min_level; level <= hi; level += stride) {
    levels.push_back(level);
  }
  if (levels.back() != hi) levels.push_back(hi);
  return levels;
}

StrataConfig LevelStrataConfig(uint64_t seed) {
  // Deliberately tiny: a probe is sent for every level, so its size is
  // multiplied by log Δ. Factor-2..3 estimation error is fine — the level
  // choice only needs "fits in the budget or not", and the attempt loop
  // recovers from underestimates by doubling.
  StrataConfig config;
  config.num_strata = 10;
  config.cells_per_stratum = 16;
  config.q = 3;
  config.checksum_bits = 24;
  config.count_bits = 6;
  config.seed = seed ^ 0x6c65767374ULL;  // "levst" tag
  return config;
}

}  // namespace recon
}  // namespace rsr
