#include "recon/registry.h"

#include <gtest/gtest.h>

#include "recon/evaluate.h"
#include "recon/quadtree_recon.h"
#include "workload/scenario.h"

namespace rsr {
namespace recon {
namespace {

ProtocolContext Ctx() {
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 21;
  return ctx;
}

TEST(RegistryTest, BuiltinsArePresent) {
  const ProtocolRegistry& registry = ProtocolRegistry::Global();
  for (const char* name :
       {"full-transfer", "exact-iblt", "quadtree", "quadtree-adaptive",
        "single-grid", "mlsh-riblt", "riblt-oneshot", "gap-lattice"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_FALSE(registry.Describe(name).empty()) << name;
  }
  EXPECT_GE(registry.ListProtocols().size(), 8u);
}

TEST(RegistryTest, CreateInstantiatesTheRequestedProtocol) {
  ProtocolParams params;
  for (const std::string& name : ProtocolRegistry::Global().ListProtocols()) {
    EXPECT_NE(MakeReconciler(name, Ctx(), params), nullptr) << name;
  }
}

// A quadtree level range the universe's grid cannot hold is refused at
// Create, never carried into a session.
TEST(RegistryTest, LevelsBeyondTheGridAreRefused) {
  ProtocolContext ctx = Ctx();
  ctx.universe = MakeUniverse(16, 2);  // levels 0..4
  ProtocolParams params;
  params.single_grid_level = 4;
  EXPECT_NE(MakeReconciler("single-grid", ctx, params), nullptr);
  params.single_grid_level = 5;
  EXPECT_EQ(MakeReconciler("single-grid", ctx, params), nullptr);
  params.single_grid_level = -1;
  EXPECT_EQ(MakeReconciler("single-grid", ctx, params), nullptr);
  EXPECT_NE(MakeReconciler("quadtree", ctx, params), nullptr);
  params.quadtree.max_level = 5;
  EXPECT_EQ(MakeReconciler("quadtree", ctx, params), nullptr);
  EXPECT_EQ(MakeReconciler("quadtree-adaptive", ctx, params), nullptr);
}

TEST(RegistryTest, UnknownNameYieldsNull) {
  ProtocolParams params;
  EXPECT_EQ(MakeReconciler("no-such-protocol", Ctx(), params), nullptr);
  EXPECT_FALSE(ProtocolRegistry::Global().Contains("no-such-protocol"));
  EXPECT_EQ(ProtocolRegistry::Global().Describe("no-such-protocol"), "");
}

TEST(RegistryTest, SharedKOverridesFamilyBudgets) {
  ProtocolParams params;
  params.k = 48;
  const ProtocolParams resolved = params.Resolved();
  EXPECT_EQ(resolved.quadtree.k, 48u);
  EXPECT_EQ(resolved.mlsh.k, 48u);
  EXPECT_EQ(resolved.riblt.k, 48u);
  // k == 0 keeps the per-family defaults.
  const ProtocolParams untouched = ProtocolParams{}.Resolved();
  EXPECT_EQ(untouched.quadtree.k, QuadtreeParams{}.k);
}

TEST(RegistryTest, ListProtocolsIsSortedAndMatchesContains) {
  const ProtocolRegistry& registry = ProtocolRegistry::Global();
  const std::vector<std::string> names = registry.ListProtocols();
  ASSERT_GE(names.size(), 8u);
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);  // strictly sorted: no duplicates
  }
  for (const std::string& name : names) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
}

TEST(RegistryTest, DuplicateRegistrationIsRejected) {
  ProtocolRegistry registry;
  auto factory = [](const ProtocolContext& ctx, const ProtocolParams& p) {
    return std::unique_ptr<Reconciler>(
        std::make_unique<QuadtreeReconciler>(ctx, p.quadtree));
  };
  EXPECT_TRUE(registry.Register("qt", "first", factory));
  EXPECT_FALSE(registry.Register("qt", "second", factory));
  EXPECT_EQ(registry.Describe("qt"), "first");
}

TEST(RegistryTest, EvaluateByNameRunsTheProtocol) {
  const workload::Scenario scenario =
      workload::StandardScenario(96, 2, 1 << 14, 4, 1.0);
  const workload::ReplicaPair pair = scenario.Materialize();
  ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 9;
  ProtocolParams params;
  params.k = 4;
  EvaluateOptions options;
  options.measure_quality = false;

  const Evaluation eval = EvaluateProtocol("quadtree", ctx, params,
                                           pair.alice, pair.bob, options);
  EXPECT_TRUE(eval.success);
  EXPECT_EQ(eval.protocol, "quadtree");
  EXPECT_GT(eval.comm_bits, 0u);
  EXPECT_EQ(eval.rounds, 1u);

  const Evaluation unknown = EvaluateProtocol(
      "no-such-protocol", ctx, params, pair.alice, pair.bob, options);
  EXPECT_FALSE(unknown.success);
  EXPECT_EQ(unknown.protocol, "no-such-protocol");
  EXPECT_EQ(unknown.comm_bits, 0u);
}

}  // namespace
}  // namespace recon
}  // namespace rsr
