#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "geometry/emd.h"
#include "recon/exact_recon.h"
#include "recon/full_transfer.h"
#include "recon/registry.h"
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

ReplicaPair MakeInstance(int64_t delta, int d, size_t n, size_t k,
                         double noise, uint64_t seed = 3) {
  CloudSpec cloud;
  cloud.universe = MakeUniverse(delta, d);
  cloud.n = n;
  PerturbationSpec spec;
  spec.noise = noise > 0 ? NoiseKind::kGaussian : NoiseKind::kNone;
  spec.noise_scale = noise;
  spec.outliers = k;
  return MakeReplicaPair(cloud, spec, seed);
}

// "single-grid" from the registry: the one-shot quadtree, budget k = 4,
// held to `level`.
std::unique_ptr<Reconciler> SingleGrid(const ProtocolContext& ctx,
                                       int level) {
  ProtocolParams params;
  params.quadtree.k = 4;
  params.single_grid_level = level;
  return MakeReconciler("single-grid", ctx, params);
}

PointSet Sorted(PointSet points) {
  std::sort(points.begin(), points.end(), PointLess);
  return points;
}

TEST(FullTransferTest, BobEndsWithAlicesSet) {
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 200, 10, 3.0);
  const ProtocolContext ctx = Context(1 << 12, 2);
  FullTransferReconciler protocol(ctx);
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(Sorted(result.bob_final), Sorted(pair.alice));
}

TEST(FullTransferTest, CommunicationIsExactlyNPoints) {
  const size_t n = 100;
  const ReplicaPair pair = MakeInstance(1 << 10, 3, n, 0, 0.0);
  const ProtocolContext ctx = Context(1 << 10, 3);
  FullTransferReconciler protocol(ctx);
  transport::Channel channel;
  (void)protocol.Run(pair.alice, pair.bob, &channel);
  // One varint byte for n=100, then n points at 3 coords x 10 bits each.
  const size_t expected = 8 + n * 3 * 10;
  EXPECT_EQ(channel.stats().total_bits, expected);
  EXPECT_EQ(channel.stats().rounds, 1u);
}

TEST(ExactReconTest, RecoversExactDifference) {
  const ReplicaPair pair = MakeInstance(1 << 14, 2, 300, 12, 0.0, 5);
  const ProtocolContext ctx = Context(1 << 14, 2, 6);
  ExactReconciler protocol(ctx, {});
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  // Exact reconciliation: Bob ends with precisely Alice's multiset.
  EXPECT_EQ(Sorted(result.bob_final), Sorted(pair.alice));
}

TEST(ExactReconTest, IdenticalSetsAreCheap) {
  const ReplicaPair pair = MakeInstance(1 << 14, 2, 400, 0, 0.0, 7);
  const ProtocolContext ctx = Context(1 << 14, 2, 8);
  ExactReconciler protocol(ctx, {});
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(Sorted(result.bob_final), Sorted(pair.alice));
  // Strata estimator + minimal IBLT only; far less than full transfer
  // (400 points x 28 bits = 11200 bits for the data alone).
  EXPECT_LT(channel.stats().total_bits, 90000u);
}

TEST(ExactReconTest, HandlesDuplicatePoints) {
  // Multisets with duplicates exercise the occurrence-indexed keys.
  PointSet alice, bob;
  for (int i = 0; i < 50; ++i) {
    alice.push_back({7, 7});
    bob.push_back({7, 7});
  }
  alice.push_back({1, 2});
  alice.push_back({1, 2});  // Alice has two extra copies
  bob.push_back({9, 9});
  bob.push_back({9, 9});    // Bob has two extra copies
  const ProtocolContext ctx = Context(1 << 8, 2, 9);
  ExactReconciler protocol(ctx, {});
  transport::Channel channel;
  const ReconResult result = protocol.Run(alice, bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(Sorted(result.bob_final), Sorted(alice));
}

TEST(ExactReconTest, NoiseMakesItExpensive) {
  // The paper's core motivation: with per-point noise the exact difference
  // is ~2n and exact reconciliation costs more than the robust protocol by
  // a large factor (here: just assert it exceeds a big chunk of full
  // transfer cost).
  const size_t n = 300;
  const ReplicaPair pair = MakeInstance(1 << 14, 2, n, 0, 2.0, 10);
  const ProtocolContext ctx = Context(1 << 14, 2, 11);
  ExactReconciler protocol(ctx, {});
  transport::Channel channel;
  const ReconResult result = protocol.Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(Sorted(result.bob_final), Sorted(pair.alice));
  const size_t full_transfer_bits = n * 2 * 14;
  EXPECT_GT(channel.stats().total_bits, full_transfer_bits);
}

TEST(ExactReconTest, UnequalSizesSupported) {
  PointSet alice, bob;
  for (int i = 0; i < 40; ++i) alice.push_back({i, i});
  for (int i = 0; i < 30; ++i) bob.push_back({i, i});
  const ProtocolContext ctx = Context(1 << 8, 2, 12);
  ExactReconciler protocol(ctx, {});
  transport::Channel channel;
  const ReconResult result = protocol.Run(alice, bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(Sorted(result.bob_final), Sorted(alice));
}

TEST(SingleGridTest, FineLevelFailsUnderNoise) {
  const ReplicaPair pair = MakeInstance(1 << 14, 2, 256, 4, 4.0, 13);
  const ProtocolContext ctx = Context(1 << 14, 2, 14);
  const std::unique_ptr<Reconciler> protocol = SingleGrid(ctx, /*level=*/0);
  transport::Channel channel;
  const ReconResult result = protocol->Run(pair.alice, pair.bob, &channel);
  // Nearly every point moved, so the level-0 histogram difference is ~2n,
  // far beyond a k=4-sized IBLT.
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.bob_final.size(), pair.bob.size());  // unchanged
}

TEST(SingleGridTest, CoarseLevelSucceedsUnderNoise) {
  const ReplicaPair pair = MakeInstance(1 << 14, 2, 256, 4, 4.0, 15);
  const ProtocolContext ctx = Context(1 << 14, 2, 16);
  // Side 2^9 = 512 vastly exceeds the noise scale 4: nearly all noisy pairs
  // land in the same cell and cancel.
  const std::unique_ptr<Reconciler> protocol = SingleGrid(ctx, /*level=*/9);
  transport::Channel channel;
  const ReconResult result = protocol->Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.bob_final.size(), 256u);
  const double before = ExactEmd(pair.alice, pair.bob, Metric::kL2);
  const double after = ExactEmd(pair.alice, result.bob_final, Metric::kL2);
  EXPECT_LT(after, before);  // outliers reclaimed, coarse error added
}

TEST(SingleGridTest, MatchesQuadtreeAtForcedLevel) {
  // Single-grid at level ℓ sends exactly one of the quadtree's per-level
  // messages; its communication must be ~ 1/(L+1) of the one-shot total.
  const ReplicaPair pair = MakeInstance(1 << 12, 2, 128, 4, 1.0, 17);
  const ProtocolContext ctx = Context(1 << 12, 2, 18);
  transport::Channel channel;
  SingleGrid(ctx, 6)->Run(pair.alice, pair.bob, &channel);
  const size_t single_bits = channel.stats().total_bits;
  EXPECT_GT(single_bits, 0u);
  EXPECT_LT(single_bits, 40000u);
}

}  // namespace
}  // namespace recon
}  // namespace rsr
