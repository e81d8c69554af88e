#include "recon/quadtree_recon.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "geometry/emd.h"
#include "recon/evaluate.h"
#include "recon/session.h"
#include "workload/generator.h"

namespace rsr {
namespace recon {
namespace {

using workload::CloudSpec;
using workload::MakeReplicaPair;
using workload::NoiseKind;
using workload::PerturbationSpec;
using workload::ReplicaPair;

ProtocolContext Context(int64_t delta, int d, uint64_t seed = 7) {
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(delta, d);
  ctx.seed = seed;
  return ctx;
}

QuadtreeParams Params(size_t k) {
  QuadtreeParams p;
  p.k = k;
  return p;
}

ReplicaPair MakeInstance(int64_t delta, int d, size_t n, size_t k,
                         double noise, uint64_t seed = 3) {
  CloudSpec cloud;
  cloud.universe = MakeUniverse(delta, d);
  cloud.n = n;
  cloud.shape = workload::CloudShape::kUniform;
  PerturbationSpec spec;
  spec.noise = noise > 0 ? NoiseKind::kGaussian : NoiseKind::kNone;
  spec.noise_scale = noise;
  spec.outliers = k;
  return MakeReplicaPair(cloud, spec, seed);
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

TEST(HistogramEntryTest, KeyAndValueRoundTrip) {
  const Universe u = MakeUniverse(1 << 10, 2);
  const ShiftedGrid grid(u, 5);
  const size_t n = 100;
  for (int level : {0, 3, 7, 10}) {
    const Cell cell = grid.CellOf({123, 456}, level);
    for (int64_t count : {int64_t{1}, int64_t{7}, int64_t{100}}) {
      IbltEntry raw;
      raw.key = HistogramEntryKey(grid, cell, level, count);
      raw.value = CodecValue(grid, cell, level, count, n);
      raw.sign = 1;
      LevelDiffEntry parsed;
      ASSERT_TRUE(ParseHistogramEntry(grid, level, n, raw, &parsed));
      EXPECT_EQ(parsed.cell, cell);
      EXPECT_EQ(parsed.count, count);
      EXPECT_EQ(parsed.sign, 1);
    }
  }
}

TEST(HistogramEntryTest, CountZeroOrTooLargeRejected) {
  const Universe u = MakeUniverse(1 << 8, 1);
  const ShiftedGrid grid(u, 6);
  const Cell cell = grid.CellOf({10}, 2);
  IbltEntry raw;
  raw.key = HistogramEntryKey(grid, cell, 2, 5);
  raw.value = CodecValue(grid, cell, 2, 5, /*n=*/4);  // count > n
  LevelDiffEntry parsed;
  EXPECT_FALSE(ParseHistogramEntry(grid, 2, 4, raw, &parsed));
}

TEST(HistogramEntryTest, KeyMismatchRejected) {
  const Universe u = MakeUniverse(1 << 8, 1);
  const ShiftedGrid grid(u, 7);
  const Cell cell = grid.CellOf({10}, 2);
  IbltEntry raw;
  raw.key = 12345;  // inconsistent with the payload
  raw.value = CodecValue(grid, cell, 2, 3, 100);
  LevelDiffEntry parsed;
  EXPECT_FALSE(ParseHistogramEntry(grid, 2, 100, raw, &parsed));
}

TEST(RepairBobTest, AddsAndRemovesPerDelta) {
  const Universe u = MakeUniverse(1 << 8, 2);
  const ShiftedGrid grid(u, 8);
  const int level = 4;
  // Bob has three points in one cell; Alice (per diff) has one there plus
  // two in a cell Bob does not occupy.
  // Identical points trivially share every cell, making the construction
  // deterministic regardless of the random shift.
  const Point b1 = {100, 100};
  const Point b2 = {100, 100};
  const Point b3 = {100, 100};
  const Cell bob_cell = grid.CellOf(b1, level);
  const Point far = {200, 30};
  const Cell alice_cell = grid.CellOf(far, level);

  std::vector<LevelDiffEntry> diff;
  diff.push_back({bob_cell, 1, +1});   // Alice count 1
  diff.push_back({bob_cell, 3, -1});   // Bob count 3
  diff.push_back({alice_cell, 2, +1}); // Alice-only cell with 2 points

  const PointSet bob = {b1, b2, b3};
  const RepairedSet repair = RepairBob(grid, bob, level, diff);
  EXPECT_EQ(repair.base, &bob);
  EXPECT_EQ(repair.size(), 3u);
  const PointSet repaired = repair.Materialize();
  EXPECT_EQ(repaired.size(), 3u);  // -2 +2
  // Exactly one of Bob's original points survives.
  int original = 0, added = 0;
  for (const Point& p : repaired) {
    if (p == b1 || p == b2 || p == b3) {
      ++original;
    } else {
      EXPECT_EQ(grid.CellOf(p, level), alice_cell);
      ++added;
    }
  }
  EXPECT_EQ(original, 1);
  EXPECT_EQ(added, 2);
}

TEST(QuadtreeReconcilerTest, IdenticalSetsDecodeAtLevelZero) {
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 200, 0, 0.0);
  const ProtocolContext ctx = Context(1 << 12, 2);
  QuadtreeReconciler protocol(ctx, Params(8));
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.chosen_level, 0);
  EXPECT_EQ(result.decoded_entries, 0u);
  // S'_B is exactly Bob's (== Alice's up to permutation) set.
  EXPECT_EQ(ExactEmd(pair.alice, result.bob_final, Metric::kL2), 0.0);
}

TEST(QuadtreeReconcilerTest, LevelsAfterTheRepairMustStillBeThere) {
  // Bob repairs at level 0 and only checks that the other levels are
  // present; a frame cut short inside them is malformed all the same.
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 200, 0, 0.0);
  const ProtocolContext ctx = Context(1 << 12, 2);
  QuadtreeReconciler protocol(ctx, Params(8));
  transport::Message frame = protocol.MakeAliceSession(pair.alice)->Start()[0];
  for (size_t cut : {size_t{0}, size_t{1}, size_t{8}}) {
    transport::Message sent = frame;
    sent.payload.resize(sent.payload.size() - cut);
    sent.payload_bits = std::min(sent.payload_bits, 8 * sent.payload.size());
    std::unique_ptr<PartySession> bob = protocol.MakeBobSession(pair.bob);
    (void)bob->OnMessage(std::move(sent));
    const ReconResult result = bob->TakeResult();
    EXPECT_EQ(result.chosen_level, 0);
    EXPECT_EQ(result.success, cut == 0) << "cut " << cut;
    EXPECT_EQ(result.error, cut == 0 ? SessionError::kNone
                                     : SessionError::kMalformedMessage);
  }
}

TEST(QuadtreeReconcilerTest, PureOutliersAreRecovered) {
  // No noise, only k outliers: the protocol should decode at level 0 and
  // repair exactly — final EMD 0 (level-0 representatives are the points
  // themselves).
  const size_t k = 6;
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 300, k, 0.0);
  const ProtocolContext ctx = Context(1 << 12, 2);
  QuadtreeReconciler protocol(ctx, Params(k));
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.chosen_level, 0);
  EXPECT_EQ(result.bob_final.size(), 300u);
  EXPECT_EQ(ExactEmd(pair.alice, result.bob_final, Metric::kL2), 0.0);
}

TEST(QuadtreeReconcilerTest, NoiseOnlyImprovesNothingButSucceeds) {
  // Noise below the relevant scale with zero outliers: some level decodes
  // and the repair must not make things worse by more than the cell bound.
  const ReplicaPair pair = MakeInstance(1 << 14, 2, 256, 0, 2.0, 11);
  const ProtocolContext ctx = Context(1 << 14, 2, 12);
  QuadtreeReconciler protocol(ctx, Params(8));
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.bob_final.size(), 256u);
  const double before = ExactEmd(pair.alice, pair.bob, Metric::kL2);
  const double after = ExactEmd(pair.alice, result.bob_final, Metric::kL2);
  // Repairing at level ℓ* can move points by at most a cell diameter per
  // differing pair; sanity-bound the blow-up.
  EXPECT_LE(after, before + 16.0 * result.decoded_entries *
                                static_cast<double>(
                                    int64_t{1} << result.chosen_level));
}

TEST(QuadtreeReconcilerTest, NoiseAndOutliersReduceEmdSubstantially) {
  const size_t n = 256, k = 8;
  const ReplicaPair pair = MakeInstance(1 << 16, 2, n, k, 2.0, 13);
  const ProtocolContext ctx = Context(1 << 16, 2, 14);
  QuadtreeReconciler protocol(ctx, Params(k));
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.bob_final.size(), n);
  const double before = ExactEmd(pair.alice, pair.bob, Metric::kL2);
  const double after = ExactEmd(pair.alice, result.bob_final, Metric::kL2);
  // Outliers dominate EMD before; repair should reclaim most of it.
  EXPECT_LT(after, before * 0.5);
}

TEST(QuadtreeReconcilerTest, SizeAlwaysPreserved) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const ReplicaPair pair = MakeInstance(1 << 12, 3, 128, 5, 1.5, seed);
    const ProtocolContext ctx = Context(1 << 12, 3, seed * 17);
    QuadtreeReconciler protocol(ctx, Params(5));
    transport::Channel channel;
    const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
    if (result.success) {
      EXPECT_EQ(result.bob_final.size(), 128u);
      for (const Point& p : result.bob_final) {
        EXPECT_TRUE(ctx.universe.Contains(p));
      }
    }
  }
}

TEST(QuadtreeReconcilerTest, OneRoundOnly) {
  const ReplicaPair pair = MakeInstance(1 << 10, 2, 64, 3, 1.0);
  const ProtocolContext ctx = Context(1 << 10, 2);
  QuadtreeReconciler protocol(ctx, Params(3));
  transport::Channel channel;
  (void)protocol.Run(pair.alice, pair.bob, &channel);
  EXPECT_EQ(channel.stats().rounds, 1u);
  EXPECT_EQ(channel.stats().message_count, 1u);
  EXPECT_EQ(channel.stats().bob_to_alice_bits, 0u);
}

TEST(QuadtreeReconcilerTest, CommunicationIndependentOfN) {
  // One-shot quadtree communication depends on k and Δ, not on n.
  const ProtocolContext ctx = Context(1 << 12, 2);
  size_t bits_small = 0, bits_large = 0;
  {
    const ReplicaPair pair = MakeInstance(1 << 12, 2, 64, 4, 1.0);
    transport::Channel channel;
    QuadtreeReconciler(ctx, Params(4)).Run(pair.alice, pair.bob, &channel);
    bits_small = channel.stats().total_bits;
  }
  {
    const ReplicaPair pair = MakeInstance(1 << 12, 2, 1024, 4, 1.0);
    transport::Channel channel;
    QuadtreeReconciler(ctx, Params(4)).Run(pair.alice, pair.bob, &channel);
    bits_large = channel.stats().total_bits;
  }
  // Value payloads include a count field of width log2(n+1), so allow a
  // modest growth, but nothing close to 16x.
  EXPECT_LT(static_cast<double>(bits_large),
            1.5 * static_cast<double>(bits_small));
}

TEST(QuadtreeReconcilerTest, LevelRestrictionForcesCoarser) {
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 128, 4, 0.0, 21);
  const ProtocolContext ctx = Context(1 << 12, 2, 22);
  QuadtreeParams p = Params(4);
  p.min_level = 5;
  QuadtreeReconciler protocol(ctx, p);
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_GE(result.chosen_level, 5);
}

TEST(AdaptiveQuadtreeTest, MatchesOneShotQualityWithFewerIbltBits) {
  const size_t n = 256, k = 8;
  const ReplicaPair pair = MakeInstance(1 << 16, 2, n, k, 2.0, 23);
  const ProtocolContext ctx = Context(1 << 16, 2, 24);

  transport::Channel oneshot_channel, adaptive_channel;
  const ReconResult oneshot =
      QuadtreeReconciler(ctx, Params(k))
          .Run(pair.alice, pair.bob, &oneshot_channel);
  const ReconResult adaptive =
      AdaptiveQuadtreeReconciler(ctx, Params(k))
          .Run(pair.alice, pair.bob, &adaptive_channel);
  ASSERT_TRUE(oneshot.success);
  ASSERT_TRUE(adaptive.success);
  EXPECT_EQ(adaptive.bob_final.size(), n);

  const double emd_oneshot =
      ExactEmd(pair.alice, oneshot.bob_final, Metric::kL2);
  const double emd_adaptive =
      ExactEmd(pair.alice, adaptive.bob_final, Metric::kL2);
  const double emd_before = ExactEmd(pair.alice, pair.bob, Metric::kL2);
  EXPECT_LT(emd_adaptive, emd_before);
  EXPECT_LT(emd_oneshot, emd_before);
}

TEST(AdaptiveQuadtreeTest, UsesMultipleRounds) {
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 128, 4, 1.0, 25);
  const ProtocolContext ctx = Context(1 << 12, 2, 26);
  transport::Channel channel;
  const ReconResult result = AdaptiveQuadtreeReconciler(ctx, Params(4))
                                 .Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_GE(channel.stats().rounds, 3u);  // strata, request, iblt
  EXPECT_GT(channel.stats().bob_to_alice_bits, 0u);
}

TEST(EvaluateProtocolTest, MeasuresEverything) {
  const size_t n = 128, k = 4;
  const ReplicaPair pair = MakeInstance(1 << 12, 2, n, k, 1.0, 31);
  const ProtocolContext ctx = Context(1 << 12, 2, 32);
  ProtocolParams params;
  params.quadtree = Params(k);
  EvaluateOptions options;
  options.metric = Metric::kL2;
  options.k = k;
  const Evaluation eval = EvaluateProtocol("quadtree", ctx, params,
                                           pair.alice, pair.bob, options);
  EXPECT_EQ(eval.protocol, "quadtree");
  EXPECT_TRUE(eval.success);
  EXPECT_GT(eval.comm_bits, 0u);
  EXPECT_EQ(eval.rounds, 1u);
  EXPECT_GE(eval.emd_before, eval.emd_k);
  EXPECT_GT(eval.ratio_vs_emdk, 0.0);
  EXPECT_GE(eval.wall_seconds, 0.0);
}

// gap-lattice's S'_B is S_B plus T_A, so it is larger than S_A: with the
// default options the run is measured without an EMD between sets of
// different sizes, and it has no ratio.
TEST(EvaluateProtocolTest, GapLatticeOutputLargerThanAliceHasNoRatio) {
  const size_t n = 128, k = 4;
  const ReplicaPair pair = MakeInstance(1 << 12, 2, n, k, 1.0, 33);
  const ProtocolContext ctx = Context(1 << 12, 2, 34);
  EvaluateOptions options;
  options.k = k;
  const Evaluation eval = EvaluateProtocol("gap-lattice", ctx,
                                           ProtocolParams(), pair.alice,
                                           pair.bob, options);
  EXPECT_EQ(eval.protocol, "gap-lattice");
  EXPECT_TRUE(eval.success);
  EXPECT_GT(eval.comm_bits, 0u);
  EXPECT_GT(eval.emd_before, 0.0);
  EXPECT_EQ(eval.emd_after, 0.0);
  EXPECT_EQ(eval.ratio_vs_emdk, 0.0);
}

// Approximation-quality sweep: across dimensions, the achieved EMD must be
// within a (generous) O(d log n)-flavoured factor of EMD_k.
class QuadtreeQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(QuadtreeQualitySweep, RatioBounded) {
  const int d = GetParam();
  const size_t n = 128, k = 4;
  const ReplicaPair pair = MakeInstance(1 << 10, d, n, k, 1.0, 40 + d);
  const ProtocolContext ctx = Context(1 << 10, d, 41 + d);
  ProtocolParams params;
  params.quadtree = Params(k);
  EvaluateOptions options;
  options.metric = Metric::kL2;
  options.k = k;
  const Evaluation eval = EvaluateProtocol("quadtree", ctx, params,
                                           pair.alice, pair.bob, options);
  ASSERT_TRUE(eval.success);
  // The theory gives O(d) (up to constants and EMD_k granularity); allow a
  // wide constant so the test is robust to unlucky shifts while still
  // catching broken repairs (which blow up by orders of magnitude).
  const double bound =
      64.0 * static_cast<double>(d) *
      std::max(eval.emd_k, static_cast<double>(d));
  EXPECT_LE(eval.emd_after, std::max(bound, eval.emd_before));
}

INSTANTIATE_TEST_SUITE_P(Dims, QuadtreeQualitySweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace recon
}  // namespace rsr
