// Test helper shared by the store and replication tests: checks every
// sketch family a SketchSnapshot serves against a from-scratch build over
// its points, bit for bit.

#ifndef RSR_TESTS_SKETCH_FAMILIES_H_
#define RSR_TESTS_SKETCH_FAMILIES_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "iblt/iblt.h"
#include "iblt/strata.h"
#include "lshrecon/mlsh_recon.h"
#include "recon/exact_recon.h"
#include "recon/params.h"
#include "recon/quadtree_recon.h"
#include "riblt/riblt.h"
#include "riblt/riblt_recon.h"
#include "server/sketch_store.h"
#include "util/bitio.h"

namespace rsr {
namespace server {

inline std::vector<uint8_t> Bits(const Iblt& table) {
  BitWriter w;
  table.Serialize(&w);
  return std::move(w).TakeBytes();
}

inline std::vector<uint8_t> Bits(const StrataEstimator& est) {
  BitWriter w;
  est.Serialize(&w);
  return std::move(w).TakeBytes();
}

inline std::vector<uint8_t> Bits(const Riblt& table) {
  BitWriter w;
  table.Serialize(&w);
  return std::move(w).TakeBytes();
}

/// Asserts that every sketch the snapshot serves is bit-identical to a
/// from-scratch build over `expected` (which must equal snapshot->points()
/// as a multiset — in fact, by ApplyUpdate's first-equal erase semantics,
/// as an ordered sequence too). `context` and `protocol_params` are the
/// ones the snapshot's store was built with. A family the snapshot holds
/// is checked as carried; any other is built on this first request.
inline void ExpectFamiliesMatchScratch(
    const SketchSnapshot& snapshot, const PointSet& expected,
    const recon::ProtocolContext& context,
    const recon::ProtocolParams& protocol_params) {
  ASSERT_EQ(snapshot.points(), expected);
  const recon::ProtocolContext& ctx = context;
  const recon::ProtocolParams params = protocol_params.Resolved();
  const size_t n = expected.size();
  const ShiftedGrid grid(ctx.universe, ctx.seed);

  // Quadtree level IBLTs + adaptive probes, over the one-shot ladder and
  // the single-grid forced level.
  std::vector<int> levels = recon::ProtocolLevels(grid, params.quadtree);
  if (std::find(levels.begin(), levels.end(), params.single_grid_level) ==
      levels.end()) {
    levels.push_back(params.single_grid_level);
  }
  for (int level : levels) {
    const IbltConfig config =
        recon::LevelIbltConfig(grid, level, n, params.quadtree, ctx.seed);
    const auto cached = snapshot.QuadtreeLevelIblt(config, level);
    ASSERT_TRUE(cached.has_value()) << "level " << level;
    EXPECT_EQ(Bits(*cached),
              Bits(recon::BuildLevelIblt(grid, expected, level, n,
                                         params.quadtree, ctx.seed)))
        << "level " << level;

    const StrataConfig probe_config =
        recon::AdaptiveLevelProbeConfig(level, ctx.seed);
    const auto probe = snapshot.QuadtreeLevelProbe(probe_config, level);
    ASSERT_TRUE(probe.has_value()) << "level " << level;
    EXPECT_EQ(Bits(*probe),
              Bits(recon::BuildLevelProbe(grid, expected, level, ctx.seed)))
        << "level " << level;
  }

  // Exact baseline: strata estimator + keyed list.
  const StrataConfig exact_config = recon::ExactReconStrataConfig(ctx.seed);
  const auto exact = snapshot.ExactStrata(exact_config);
  ASSERT_TRUE(exact.has_value());
  const recon::KeyedPointList keyed =
      recon::ExactKeyedPoints(expected, ctx.seed);
  StrataEstimator scratch_exact(exact_config);
  for (const auto& [key, point] : keyed) {
    (void)point;
    scratch_exact.Insert(key);
  }
  EXPECT_EQ(Bits(*exact), Bits(scratch_exact));
  const auto cached_keyed = snapshot.ExactKeyedPoints(ctx.seed);
  ASSERT_NE(cached_keyed, nullptr);
  EXPECT_EQ(*cached_keyed, keyed);

  // MLSH ladder RIBLTs.
  const auto prefixes =
      lshrecon::MlshPrefixLadder(params.mlsh.NumFunctions());
  const auto family = lshrecon::MakeMlshFamily(
      params.mlsh.family, ctx.universe,
      lshrecon::MlshEffectiveWidth(ctx.universe, params.mlsh),
      params.mlsh.NumFunctions(), ctx.seed);
  for (size_t li = 0; li < prefixes.size(); ++li) {
    const RibltConfig config = lshrecon::MlshLevelConfig(
        ctx.universe, params.mlsh, n, li, ctx.seed);
    const auto cached = snapshot.MlshLevelRiblt(config, li);
    ASSERT_TRUE(cached.has_value()) << "mlsh level " << li;
    Riblt scratch(config);
    for (const Point& p : expected) {
      scratch.Insert(
          lshrecon::MlshKeyChain(*family, p, ctx.seed)[prefixes[li] - 1], p);
    }
    EXPECT_EQ(Bits(*cached), Bits(scratch)) << "mlsh level " << li;
  }

  // One-shot RIBLT.
  const RibltConfig oneshot_config =
      RibltOneShotConfig(ctx.universe, params.riblt, n, ctx.seed);
  const auto oneshot = snapshot.OneShotRiblt(oneshot_config);
  ASSERT_TRUE(oneshot.has_value());
  Riblt scratch_oneshot(oneshot_config);
  for (const Point& p : expected) {
    scratch_oneshot.Insert(PointKey(p, ctx.seed), p);
  }
  EXPECT_EQ(Bits(*oneshot), Bits(scratch_oneshot));
}

}  // namespace server
}  // namespace rsr

#endif  // RSR_TESTS_SKETCH_FAMILIES_H_
