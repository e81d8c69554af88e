// Parameter derivation shared by the robust protocols.
//
// Everything here is a deterministic function of public quantities (the
// universe, n, k, the seed), so both parties derive identical configurations
// without communication — the public-coins convention of the paper.

#ifndef RSR_RECON_PARAMS_H_
#define RSR_RECON_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/grid.h"
#include "geometry/point.h"
#include "iblt/iblt.h"
#include "iblt/strata.h"

namespace rsr {
namespace recon {

/// Tunables of the quadtree protocols (defaults follow DESIGN.md §3).
struct QuadtreeParams {
  size_t k = 16;          ///< Outlier budget the tables are sized for.
  int q = 4;              ///< IBLT hash functions.
  double headroom = 1.35; ///< IBLT sizing multiplier over the threshold.
  /// Maximum differing (cell, count) pairs accepted at the chosen level;
  /// 0 derives the default 4k + 8 (2 pairs per differing cell, with slack).
  size_t decode_budget = 0;
  int checksum_bits = 32;
  int count_bits = 16;
  /// Restricts the level range (defaults: all levels 0..L).
  int min_level = 0;
  int max_level = -1;  ///< -1 = grid.max_level().
  /// Ship only every stride-th level (the coarsest level is always
  /// included). Stride s cuts the one-shot communication by ~s at the cost
  /// of a worst-case 2^(s-1) factor on the repair cell diameter.
  int level_stride = 1;

  /// Effective decode budget.
  size_t DecodeBudget() const {
    return decode_budget > 0 ? decode_budget : 4 * k + 8;
  }
};

/// Bits used for the point-count field inside histogram values; n is the
/// (public) set size.
int HistogramCountBits(size_t n);

/// Width in bits of the value payload of a level-`level` histogram entry:
/// the packed cell id plus the count field.
int HistogramValueBits(const ShiftedGrid& grid, int level, size_t n);

/// IBLT configuration for the level-`level` histogram table.
IbltConfig LevelIbltConfig(const ShiftedGrid& grid, int level, size_t n,
                           const QuadtreeParams& params, uint64_t seed);

/// True when `params`' level range lies within the universe's grid levels
/// [0, universe.Levels()] — the precondition of ProtocolLevels, which the
/// registry checks before it builds a quadtree reconciler.
bool LevelRangeFits(const Universe& universe, const QuadtreeParams& params);

/// The level ladder a protocol instance uses: min_level, min_level+stride,
/// …, always ending at the effective max level.
std::vector<int> ProtocolLevels(const ShiftedGrid& grid,
                                const QuadtreeParams& params);

/// Strata-estimator configuration used by the adaptive variant's level
/// probe (deliberately small; accuracy within ~2x is enough to pick a
/// level).
StrataConfig LevelStrataConfig(uint64_t seed);

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_PARAMS_H_
