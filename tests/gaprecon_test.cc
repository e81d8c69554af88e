#include "gaprecon/gap_recon.h"

#include <gtest/gtest.h>

#include "workload/generator.h"

namespace rsr {
namespace gaprecon {
namespace {

using recon::ProtocolContext;
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

// Alice = noisy copy of Bob's cloud plus `far_points` fresh uniform points.
ReplicaPair MakeInstance(int64_t delta, int d, size_t n, size_t far_points,
                         double noise, uint64_t seed = 3) {
  CloudSpec cloud;
  cloud.universe = MakeUniverse(delta, d);
  cloud.n = n;
  PerturbationSpec spec;
  spec.noise = noise > 0 ? NoiseKind::kUniformBox : NoiseKind::kNone;
  spec.noise_scale = noise;
  spec.outliers = far_points;
  return MakeReplicaPair(cloud, spec, seed);
}

TEST(GapParamsTest, DerivedQuantities) {
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 64.0;
  params.metric = Metric::kL1;
  EXPECT_DOUBLE_EQ(params.EffectiveR2(4), 64.0);
  EXPECT_DOUBLE_EQ(params.CellSide(4), 16.0);  // r2 / d
  EXPECT_DOUBLE_EQ(params.RhoHat(4), 2.0 * 4 / 64.0);
  // Default r2 derivation.
  GapParams defaulted;
  defaulted.r1 = 3.0;
  EXPECT_DOUBLE_EQ(defaulted.EffectiveR2(2), 4.0 * 3.0 * 2);
}

TEST(GapParamsTest, RhoHatSaturates) {
  GapParams params;
  params.r1 = 100.0;
  params.r2 = 101.0;
  EXPECT_LT(params.RhoHat(8), 1.0);
}

TEST(GapReconcilerTest, IdenticalSetsTransmitNothing) {
  const ReplicaPair pair = MakeInstance(1 << 16, 2, 200, 0, 0.0);
  const ProtocolContext ctx = Context(1 << 16, 2);
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 64.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.transmitted, 0u);
  EXPECT_EQ(result.bob_final.size(), pair.bob.size());
}

TEST(GapReconcilerTest, GuaranteeHoldsWithFarPoints) {
  const size_t n = 300, far = 10;
  const ReplicaPair pair = MakeInstance(1 << 16, 2, n, far, 1.0, 5);
  const ProtocolContext ctx = Context(1 << 16, 2, 6);
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 128.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(SatisfiesGapGuarantee(pair.alice, result.bob_final, params,
                                    ctx.universe.d));
  // All far points must have been transmitted; noise straddlers may add a
  // few more, but nothing near n.
  EXPECT_GE(result.transmitted, 1u);
  EXPECT_LT(result.transmitted, n / 4);
}

TEST(GapReconcilerTest, NearPointsAreMostlyNotTransmitted) {
  // Pure noise (within r1), no far points: transmission should be a small
  // fraction (straddler probability rho-hat^h is tiny by construction).
  const size_t n = 400;
  const ReplicaPair pair = MakeInstance(1 << 16, 2, n, 0, 1.0, 7);
  const ProtocolContext ctx = Context(1 << 16, 2, 8);
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 128.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.transmitted, n / 20);
}

TEST(GapReconcilerTest, GuaranteeAcrossSeedsAndDims) {
  for (int d : {1, 2, 3}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const ReplicaPair pair = MakeInstance(1 << 14, d, 150, 5, 1.0, seed);
      const ProtocolContext ctx = Context(1 << 14, d, seed * 13);
      GapParams params;
      params.r1 = 2.0;
      params.r2 = 64.0 * d;
      GapReconciler protocol(ctx, params);
      transport::Channel channel;
      const recon::ReconResult result =
          protocol.Run(pair.alice, pair.bob, &channel);
      ASSERT_TRUE(result.success) << "d=" << d << " seed=" << seed;
      EXPECT_TRUE(SatisfiesGapGuarantee(pair.alice, result.bob_final, params,
                                        d))
          << "d=" << d << " seed=" << seed;
    }
  }
}

TEST(GapReconcilerTest, CommunicationBeatsFullTransferForSmallK) {
  const size_t n = 3000, far = 8;
  const ReplicaPair pair = MakeInstance(1 << 20, 2, n, far, 1.0, 9);
  const ProtocolContext ctx = Context(1 << 20, 2, 10);
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 512.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  const size_t full_bits = n * 2 * 20;
  EXPECT_LT(channel.stats().total_bits, full_bits);
}

TEST(GapReconcilerTest, UsesThreeRounds) {
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 100, 3, 0.0, 11);
  const ProtocolContext ctx = Context(1 << 12, 2, 12);
  GapParams params;
  params.r1 = 1.0;
  params.r2 = 32.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(channel.stats().rounds, 3u);  // A->B, B->A, A->B
}

TEST(GapReconcilerTest, BobNeverLosesPoints) {
  const ReplicaPair pair = MakeInstance(1 << 14, 2, 200, 6, 1.0, 13);
  const ProtocolContext ctx = Context(1 << 14, 2, 14);
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 96.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  ASSERT_GE(result.bob_final.size(), pair.bob.size());
  for (size_t i = 0; i < pair.bob.size(); ++i) {
    EXPECT_EQ(result.bob_final[i], pair.bob[i]);
  }
}

TEST(GapReconcilerTest, ExplicitFunctionCountRespected) {
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 80, 2, 0.0, 15);
  const ProtocolContext ctx = Context(1 << 12, 2, 16);
  GapParams params;
  params.r1 = 1.0;
  params.r2 = 64.0;
  params.num_functions = 4;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(SatisfiesGapGuarantee(pair.alice, result.bob_final, params,
                                    2));
}

// Coverage-vs-gap sweep: with a generous gap (r2 >> r1 d) the protocol
// transmits almost exactly the planted far points.
class GapPrecisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(GapPrecisionSweep, TransmitsRoughlyThePlantedFarPoints) {
  const size_t far = static_cast<size_t>(GetParam());
  const size_t n = 500;
  const ReplicaPair pair = MakeInstance(1 << 18, 2, n, far, 1.0,
                                        17 + far);
  const ProtocolContext ctx = Context(1 << 18, 2, 18 + far);
  GapParams params;
  params.r1 = 2.0;
  params.r2 = 1024.0;
  GapReconciler protocol(ctx, params);
  transport::Channel channel;
  const recon::ReconResult result =
      protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(SatisfiesGapGuarantee(pair.alice, result.bob_final, params,
                                    2));
  // Some planted "far" points may by chance land near the cloud, so allow
  // slack downward; upward slack covers rho-hat straddlers.
  EXPECT_LE(result.transmitted, far + n / 25 + 2);
}

INSTANTIATE_TEST_SUITE_P(FarCounts, GapPrecisionSweep,
                         ::testing::Values(0, 4, 16, 48));

}  // namespace
}  // namespace gaprecon
}  // namespace rsr
