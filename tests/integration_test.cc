// End-to-end integration tests: every protocol on the shared scenarios,
// cross-protocol invariants, and the headline robustness comparison.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/emd.h"
#include "lshrecon/mlsh_recon.h"
#include "recon/evaluate.h"
#include "recon/quadtree_recon.h"
#include "workload/scenario.h"

namespace rsr {
namespace {

using recon::EvaluateOptions;
using recon::EvaluateProtocol;
using recon::Evaluation;
using recon::ProtocolContext;
using recon::ProtocolParams;
using recon::QuadtreeParams;
using recon::QuadtreeReconciler;
using workload::ReplicaPair;
using workload::Scenario;

// Every protocol of the EMD model, by registry name.
const char* const kEmdProtocols[] = {"full-transfer", "exact-iblt",
                                     "quadtree", "quadtree-adaptive",
                                     "mlsh-riblt"};

// Each family's budget is k; every other tunable keeps its default.
ProtocolParams ParamsWithK(size_t k) {
  ProtocolParams params;
  params.k = k;
  return params;
}

TEST(IntegrationTest, AllProtocolsImproveOrPreserveEmdOnStandardScenario) {
  const size_t n = 160, k = 6;
  const Scenario scenario = workload::StandardScenario(n, 2, 1 << 16, k, 2.0);
  const ReplicaPair pair = scenario.Materialize();
  ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 99;

  EvaluateOptions options;
  options.metric = scenario.metric;
  options.k = k;

  for (const char* protocol : kEmdProtocols) {
    const Evaluation eval = EvaluateProtocol(protocol, ctx, ParamsWithK(k),
                                             pair.alice, pair.bob, options);
    EXPECT_TRUE(eval.success) << protocol;
    // No protocol should leave Bob further from Alice than he started
    // (modulo small repair noise: allow 10%).
    EXPECT_LE(eval.emd_after, eval.emd_before * 1.1 + 1.0) << protocol;
  }
}

TEST(IntegrationTest, RobustBeatsExactOnCommunicationUnderNoise) {
  // The headline result: with noise, exact reconciliation transfers ~2n
  // full-precision points while the quadtree transfers O(k log Δ) cells.
  const size_t n = 512, k = 8;
  const Scenario scenario = workload::StandardScenario(n, 2, 1 << 20, k, 3.0);
  const ReplicaPair pair = scenario.Materialize();
  ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 5;

  EvaluateOptions options;
  options.measure_quality = false;

  const ProtocolParams pp = ParamsWithK(k);
  const Evaluation quadtree = EvaluateProtocol(
      "quadtree", ctx, pp, pair.alice, pair.bob, options);
  const Evaluation adaptive = EvaluateProtocol(
      "quadtree-adaptive", ctx, pp, pair.alice, pair.bob, options);
  const Evaluation exact = EvaluateProtocol(
      "exact-iblt", ctx, pp, pair.alice, pair.bob, options);

  ASSERT_TRUE(quadtree.success);
  ASSERT_TRUE(adaptive.success);
  ASSERT_TRUE(exact.success);
  EXPECT_LT(quadtree.comm_bits, exact.comm_bits);
  EXPECT_LT(adaptive.comm_bits, exact.comm_bits);
}

TEST(IntegrationTest, AdaptiveSavesBitsOverOneShotForLargeDelta) {
  const size_t n = 256, k = 16;
  const Scenario scenario =
      workload::StandardScenario(n, 2, int64_t{1} << 24, k, 2.0);
  const ReplicaPair pair = scenario.Materialize();
  ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 6;
  EvaluateOptions options;
  options.measure_quality = false;

  const ProtocolParams pp = ParamsWithK(k);
  const Evaluation oneshot = EvaluateProtocol(
      "quadtree", ctx, pp, pair.alice, pair.bob, options);
  const Evaluation adaptive = EvaluateProtocol(
      "quadtree-adaptive", ctx, pp, pair.alice, pair.bob, options);
  ASSERT_TRUE(oneshot.success);
  ASSERT_TRUE(adaptive.success);
  EXPECT_LT(adaptive.comm_bits, oneshot.comm_bits);
  EXPECT_GT(adaptive.rounds, oneshot.rounds);
}

TEST(IntegrationTest, SensorScenarioEndToEnd) {
  const size_t n = 200, k = 8;
  const Scenario scenario = workload::SensorScenario(n, k, 4.0);
  const ReplicaPair pair = scenario.Materialize();
  ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 7;
  const ProtocolParams pp = ParamsWithK(k);
  EvaluateOptions options;
  options.metric = scenario.metric;
  options.k = k;
  const Evaluation eval = EvaluateProtocol(
      "quadtree", ctx, pp, pair.alice, pair.bob, options);
  ASSERT_TRUE(eval.success);
  EXPECT_LT(eval.emd_after, eval.emd_before);
  // Communication should be a small fraction of full transfer
  // (n * d * 20 bits = 8000 per... n=200 d=2 log=20 -> 8000 bits).
  const Evaluation full = EvaluateProtocol(
      "full-transfer", ctx, pp, pair.alice, pair.bob, options);
  EXPECT_DOUBLE_EQ(full.emd_after, 0.0);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const Scenario scenario = workload::StandardScenario(96, 2, 1 << 12, 4, 1.0);
  const ReplicaPair pair = scenario.Materialize();
  ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 11;
  QuadtreeParams qp;
  qp.k = 4;
  QuadtreeReconciler protocol(ctx, qp);
  transport::Channel c1, c2;
  const auto r1 = protocol.Run(pair.alice, pair.bob, &c1);
  const auto r2 = protocol.Run(pair.alice, pair.bob, &c2);
  EXPECT_EQ(r1.success, r2.success);
  EXPECT_EQ(r1.chosen_level, r2.chosen_level);
  EXPECT_EQ(r1.bob_final, r2.bob_final);
  EXPECT_EQ(c1.stats().total_bits, c2.stats().total_bits);
}

TEST(IntegrationTest, NoiseSweepShapesMatchPaperClaim) {
  // As noise grows (k fixed), exact-recon bits grow toward full-transfer
  // scale while quadtree bits stay flat.
  const size_t n = 512, k = 4;
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 16, 2);
  ctx.seed = 13;
  EvaluateOptions options;
  options.measure_quality = false;
  const ProtocolParams pp = ParamsWithK(k);

  size_t exact_low = 0, exact_high = 0, qt_low = 0, qt_high = 0;
  for (double noise : {0.0, 8.0}) {
    const Scenario scenario =
        workload::StandardScenario(n, 2, 1 << 16, k, noise, /*seed=*/17);
    const ReplicaPair pair = scenario.Materialize();
    const Evaluation exact = EvaluateProtocol(
        "exact-iblt", ctx, pp, pair.alice, pair.bob, options);
    const Evaluation quadtree = EvaluateProtocol(
        "quadtree", ctx, pp, pair.alice, pair.bob, options);
    ASSERT_TRUE(exact.success);
    ASSERT_TRUE(quadtree.success);
    if (noise == 0.0) {
      exact_low = exact.comm_bits;
      qt_low = quadtree.comm_bits;
    } else {
      exact_high = exact.comm_bits;
      qt_high = quadtree.comm_bits;
    }
  }
  EXPECT_GT(exact_high, exact_low * 3);  // exact blows up
  EXPECT_EQ(qt_high, qt_low);            // quadtree is noise-oblivious
}

}  // namespace
}  // namespace rsr
