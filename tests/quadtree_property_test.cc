// Parameterized end-to-end property sweep of the quadtree protocols over a
// grid of (Δ, d, noise) configurations: the protocol must either fail
// cleanly (Bob unchanged) or produce a valid repaired set, and on success
// must never degrade EMD beyond the level-ℓ* cell-diameter bound.
//
// Byte identity of the one-pass ladder build: every level IBLT, probe and
// Alice message built from one Z-order sort must serialize exactly like a
// plain per-level map histogram encoded through BitWriter.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "geometry/emd.h"
#include "hash/mix.h"
#include "recon/quadtree_recon.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rsr {
namespace recon {
namespace {

using workload::CloudSpec;
using workload::MakeReplicaPair;
using workload::NoiseKind;
using workload::PerturbationSpec;
using workload::ReplicaPair;

// (log2 delta, d, noise scale)
using Config = std::tuple<int, int, double>;

class QuadtreeSweep : public ::testing::TestWithParam<Config> {};

TEST_P(QuadtreeSweep, EndToEndInvariants) {
  const auto [log_delta, d, noise] = GetParam();
  const int64_t delta = int64_t{1} << log_delta;
  const size_t n = 160;
  const size_t k = 6;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CloudSpec cloud;
    cloud.universe = MakeUniverse(delta, d);
    cloud.n = n;
    PerturbationSpec spec;
    spec.noise = noise > 0 ? NoiseKind::kGaussian : NoiseKind::kNone;
    spec.noise_scale = noise;
    spec.outliers = k;
    const ReplicaPair pair = MakeReplicaPair(cloud, spec, seed);

    ProtocolContext ctx;
    ctx.universe = cloud.universe;
    ctx.seed = seed * 7919;
    QuadtreeParams params;
    params.k = k;
    QuadtreeReconciler protocol(ctx, params);
    transport::Channel channel;
    const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);

    // Invariant 1: one round, Alice-to-Bob only.
    EXPECT_EQ(channel.stats().rounds, 1u);

    // Invariant 2: size preservation and universe containment.
    EXPECT_EQ(result.bob_final.size(), n);
    for (const Point& p : result.bob_final) {
      ASSERT_TRUE(ctx.universe.Contains(p));
    }

    if (!result.success) {
      // Clean failure: Bob unchanged.
      EXPECT_EQ(result.bob_final, pair.bob);
      continue;
    }

    // Invariant 3: the repair moves at most decoded_entries cells' worth
    // of points, each by at most one cell diameter at the chosen level.
    const double before = ExactEmd(pair.alice, pair.bob, Metric::kL2);
    const double after =
        ExactEmd(pair.alice, result.bob_final, Metric::kL2);
    const double cell_diam =
        static_cast<double>(int64_t{1} << result.chosen_level) *
        std::sqrt(static_cast<double>(d));
    const double slack =
        cell_diam * static_cast<double>(result.decoded_entries) * n;
    EXPECT_LE(after, before + slack) << "ld=" << log_delta << " d=" << d
                                     << " noise=" << noise;

    // Invariant 4: determinism — rerunning gives identical output.
    transport::Channel channel2;
    const ReconResult again = protocol.Run(pair.alice, pair.bob, &channel2);
    EXPECT_EQ(again.bob_final, result.bob_final);
    EXPECT_EQ(channel2.stats().total_bits, channel.stats().total_bits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QuadtreeSweep,
    ::testing::Values(Config{8, 1, 0.0}, Config{8, 1, 1.0},
                      Config{10, 2, 0.0}, Config{10, 2, 1.0},
                      Config{10, 2, 4.0}, Config{14, 2, 2.0},
                      Config{10, 3, 1.0}, Config{8, 4, 1.0},
                      Config{20, 2, 8.0}, Config{12, 1, 16.0}));

class AdaptiveSweep : public ::testing::TestWithParam<Config> {};

TEST_P(AdaptiveSweep, EndToEndInvariants) {
  const auto [log_delta, d, noise] = GetParam();
  const int64_t delta = int64_t{1} << log_delta;
  const size_t n = 160, k = 6;

  CloudSpec cloud;
  cloud.universe = MakeUniverse(delta, d);
  cloud.n = n;
  PerturbationSpec spec;
  spec.noise = noise > 0 ? NoiseKind::kGaussian : NoiseKind::kNone;
  spec.noise_scale = noise;
  spec.outliers = k;
  const ReplicaPair pair = MakeReplicaPair(cloud, spec, 5);

  ProtocolContext ctx;
  ctx.universe = cloud.universe;
  ctx.seed = 271828;
  QuadtreeParams params;
  params.k = k;
  AdaptiveQuadtreeReconciler protocol(ctx, params);
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);

  EXPECT_GE(channel.stats().rounds, 3u);
  EXPECT_EQ(result.bob_final.size(), n);
  for (const Point& p : result.bob_final) {
    ASSERT_TRUE(ctx.universe.Contains(p));
  }
  if (result.success) {
    EXPECT_GE(result.chosen_level, 0);
    EXPECT_LE(result.chosen_level,
              MakeUniverse(delta, d).BitsPerCoord());
  } else {
    EXPECT_EQ(result.bob_final, pair.bob);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AdaptiveSweep,
    ::testing::Values(Config{10, 2, 0.0}, Config{10, 2, 2.0},
                      Config{14, 2, 4.0}, Config{10, 3, 1.0},
                      Config{20, 2, 16.0}));

TEST(LevelStrideTest, CutsBytesAndStillReconciles) {
  CloudSpec cloud;
  cloud.universe = MakeUniverse(1 << 16, 2);
  cloud.n = 256;
  PerturbationSpec spec;
  spec.noise = NoiseKind::kGaussian;
  spec.noise_scale = 2.0;
  spec.outliers = 8;
  const ReplicaPair pair = MakeReplicaPair(cloud, spec, 9);

  ProtocolContext ctx;
  ctx.universe = cloud.universe;
  ctx.seed = 33;

  QuadtreeParams dense;
  dense.k = 8;
  QuadtreeParams strided = dense;
  strided.level_stride = 3;

  transport::Channel dense_channel, strided_channel;
  const ReconResult dense_result =
      QuadtreeReconciler(ctx, dense).Run(pair.alice, pair.bob,
                                         &dense_channel);
  const ReconResult strided_result =
      QuadtreeReconciler(ctx, strided).Run(pair.alice, pair.bob,
                                           &strided_channel);
  ASSERT_TRUE(dense_result.success);
  ASSERT_TRUE(strided_result.success);
  // Stride 3 ships ~1/3 of the levels.
  EXPECT_LT(strided_channel.stats().total_bits,
            dense_channel.stats().total_bits / 2);
  // It can only decode at a ladder level >= the dense choice.
  EXPECT_GE(strided_result.chosen_level, dense_result.chosen_level);
  // Quality degrades by at most the coarser cell diameter factor.
  const double dense_emd =
      ExactEmd(pair.alice, dense_result.bob_final, Metric::kL2);
  const double strided_emd =
      ExactEmd(pair.alice, strided_result.bob_final, Metric::kL2);
  const double factor = static_cast<double>(
      int64_t{1} << (strided_result.chosen_level -
                     dense_result.chosen_level));
  EXPECT_LE(strided_emd, dense_emd * factor * 4 + 100.0);
}

// --- Byte identity of the one-pass ladder build. ---

// A plain per-level histogram: cells from CellOf, counted in a map.
std::map<Cell, int64_t> ReferenceHistogram(const ShiftedGrid& grid,
                                           const PointSet& points, int level) {
  std::map<Cell, int64_t> histogram;
  for (const Point& p : points) ++histogram[grid.CellOf(p, level)];
  return histogram;
}

// The entry value as BitWriter lays it out: packed cell, then the count.
std::vector<uint8_t> ReferenceValue(const ShiftedGrid& grid, const Cell& cell,
                                    int level, int64_t count, size_t n) {
  BitWriter w;
  grid.PackCell(cell, level, &w);
  w.WriteBits(static_cast<uint64_t>(count), HistogramCountBits(n));
  return std::move(w).TakeBytes();
}

// HistogramEntryCodec::Pack's words as the entry's value bytes: the low
// ceil(value_bits / 8) bytes, little-endian.
std::vector<uint8_t> CodecValue(const ShiftedGrid& grid, const Cell& cell,
                                int level, int64_t count, size_t n) {
  HistogramEntryCodec codec(grid, level, n);
  const uint64_t* words = codec.Pack(cell, count);
  std::vector<uint8_t> bytes((static_cast<size_t>(codec.value_bits()) + 7) /
                             8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(words[i / 8] >> (8 * (i % 8)));
  }
  return bytes;
}

Iblt ReferenceIblt(const ShiftedGrid& grid, const PointSet& points, int level,
                   const IbltConfig& config) {
  Iblt table(config);
  for (const auto& [cell, count] : ReferenceHistogram(grid, points, level)) {
    table.Insert(HistogramEntryKey(grid, cell, level, count),
                 ReferenceValue(grid, cell, level, count, points.size()));
  }
  return table;
}

StrataEstimator ReferenceProbe(const ShiftedGrid& grid, const PointSet& points,
                               int level, uint64_t seed) {
  StrataEstimator est(AdaptiveLevelProbeConfig(level, seed));
  for (const auto& [cell, count] : ReferenceHistogram(grid, points, level)) {
    est.Insert(HistogramEntryKey(grid, cell, level, count));
  }
  return est;
}

template <typename Sketch>
std::vector<uint8_t> Bits(const Sketch& sketch) {
  BitWriter w;
  sketch.Serialize(&w);
  return std::move(w).TakeBytes();
}

// Alice's opening message of `protocol` over `points`.
std::vector<uint8_t> AliceOpening(const Reconciler& protocol,
                                  const PointSet& points) {
  const std::vector<transport::Message> out =
      protocol.MakeAliceSession(points)->Start();
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? std::vector<uint8_t>{} : out.front().payload;
}

struct NamedSet {
  std::string name;
  PointSet points;
};

// Random, duplicated, clustered, all-equal, empty and single-point sets.
std::vector<NamedSet> LadderSets(const Universe& u, uint64_t seed) {
  Rng rng(seed);
  auto random_point = [&] {
    Point p(static_cast<size_t>(u.d));
    for (int64_t& c : p) c = rng.Uniform(0, u.delta - 1);
    return p;
  };
  std::vector<NamedSet> sets;
  PointSet random;
  for (int i = 0; i < 200; ++i) random.push_back(random_point());
  sets.push_back({"random", random});
  PointSet duplicated;
  for (int i = 0; i < 60; ++i) {
    const Point p = random_point();
    for (int64_t c = rng.Uniform(1, 4); c > 0; --c) duplicated.push_back(p);
  }
  std::shuffle(duplicated.begin(), duplicated.end(), rng);
  sets.push_back({"duplicated", duplicated});
  PointSet clustered;
  for (int cluster = 0; cluster < 4; ++cluster) {
    const Point centre = random_point();
    for (int i = 0; i < 40; ++i) {
      Point p = centre;
      for (int64_t& c : p) {
        c = std::clamp<int64_t>(c + rng.Uniform(-3, 3), 0, u.delta - 1);
      }
      clustered.push_back(p);
    }
  }
  sets.push_back({"clustered", clustered});
  sets.push_back({"all-equal", PointSet(50, random_point())});
  sets.push_back({"empty", {}});
  sets.push_back({"single", {random_point()}});
  return sets;
}

using LadderConfig = std::tuple<int64_t, int>;  // (delta, d)

class LadderByteIdentity : public ::testing::TestWithParam<LadderConfig> {};

TEST_P(LadderByteIdentity, MatchesPerLevelMapHistogram) {
  const auto [delta, d] = GetParam();
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(delta, d);
  ctx.seed = 1000 + static_cast<uint64_t>(delta) + static_cast<uint64_t>(d);
  const ShiftedGrid grid(ctx.universe, ctx.seed);
  const int top = grid.max_level();

  std::vector<QuadtreeParams> ladders(5);
  ladders[1].level_stride = 2;
  ladders[2].level_stride = 3;
  ladders[3].min_level = 3;
  ladders[4].min_level = 2;
  ladders[4].level_stride = 3;

  for (const NamedSet& set : LadderSets(ctx.universe, ctx.seed)) {
    SCOPED_TRACE(set.name);
    const PointSet& points = set.points;
    const size_t n = points.size();
    const QuadtreeParams defaults;

    // Every level, one at a time: IBLT and probe.
    for (int level = 0; level <= top; ++level) {
      const IbltConfig config =
          LevelIbltConfig(grid, level, n, defaults, ctx.seed);
      EXPECT_EQ(
          Bits(BuildLevelIblt(grid, points, level, n, defaults, ctx.seed)),
          Bits(ReferenceIblt(grid, points, level, config)))
          << "level " << level;
      EXPECT_EQ(Bits(BuildLevelProbe(grid, points, level, ctx.seed)),
                Bits(ReferenceProbe(grid, points, level, ctx.seed)))
          << "level " << level;
    }

    // One-shot Alice: every ladder level from one sort, one message.
    for (const QuadtreeParams& params : ladders) {
      SCOPED_TRACE("min_level " + std::to_string(params.min_level) +
                   " stride " + std::to_string(params.level_stride));
      BitWriter expected;
      for (int level : ProtocolLevels(grid, params)) {
        ReferenceIblt(grid, points, level,
                      LevelIbltConfig(grid, level, n, params, ctx.seed))
            .Serialize(&expected);
      }
      EXPECT_EQ(AliceOpening(QuadtreeReconciler(ctx, params), points),
                expected.bytes());
    }

    // Adaptive Alice: the probe message, then a served level IBLT.
    BitWriter probes;
    for (int level : ProtocolLevels(grid, defaults)) {
      ReferenceProbe(grid, points, level, ctx.seed).Serialize(&probes);
    }
    const AdaptiveQuadtreeReconciler adaptive(ctx, defaults);
    std::unique_ptr<PartySession> alice = adaptive.MakeAliceSession(points);
    const std::vector<transport::Message> opening = alice->Start();
    ASSERT_EQ(opening.size(), 1u);
    EXPECT_EQ(opening.front().payload, probes.bytes());
    const int served_level = top / 2;
    const uint64_t cells = 40, attempt = 1;
    BitWriter request;
    request.WriteVarint(static_cast<uint64_t>(served_level));
    request.WriteVarint(cells);
    request.WriteVarint(attempt);
    const std::vector<transport::Message> served = alice->OnMessage(
        transport::MakeMessage("qt-level-request", std::move(request)));
    ASSERT_EQ(served.size(), 1u);
    IbltConfig served_config =
        LevelIbltConfig(grid, served_level, n, defaults, ctx.seed);
    served_config.cells = cells;
    served_config.seed = Hash64(attempt, served_config.seed);
    EXPECT_EQ(served.front().payload,
              Bits(ReferenceIblt(grid, points, served_level, served_config)));

    // Single-grid Alice: the one-shot quadtree at a forced level.
    const int forced = std::min(6, top);
    ProtocolParams single_grid;
    single_grid.single_grid_level = forced;
    EXPECT_EQ(AliceOpening(*MakeReconciler("single-grid", ctx, single_grid),
                           points),
              Bits(ReferenceIblt(
                  grid, points, forced,
                  LevelIbltConfig(grid, forced, n, defaults, ctx.seed))));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LadderByteIdentity,
    ::testing::Combine(::testing::Values(int64_t{1000}, int64_t{1} << 20),
                       ::testing::Values(1, 2, 3, 5)));

// d = 5 at Δ = 2^20 packs 5 · 21 cell bits plus the count: wider than one
// 64-bit word, so the packer's word spill is on the path.
TEST(HistogramEntryValueTest, MatchesBitWriterBeyond64Bits) {
  const Universe u = MakeUniverse(int64_t{1} << 20, 5);
  const ShiftedGrid grid(u, 77);
  Rng rng(78);
  for (size_t n : {size_t{1}, size_t{1000}, size_t{1} << 14}) {
    for (int level = 0; level <= grid.max_level(); ++level) {
      for (int i = 0; i < 20; ++i) {
        Point p(5);
        for (int64_t& c : p) c = rng.Uniform(0, u.delta - 1);
        const Cell cell = grid.CellOf(p, level);
        const int64_t count = rng.Uniform(1, static_cast<int64_t>(n));
        EXPECT_EQ(CodecValue(grid, cell, level, count, n),
                  ReferenceValue(grid, cell, level, count, n))
            << "level " << level << " n " << n;
      }
    }
  }
  EXPECT_GT(HistogramValueBits(grid, 0, size_t{1} << 14), 64);
}

}  // namespace
}  // namespace recon
}  // namespace rsr
