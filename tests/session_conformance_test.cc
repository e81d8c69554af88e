// Protocol-conformance suite for the session API.
//
// For every protocol in the registry and every named workload scenario:
// drive the two endpoint sessions by hand (an independent pump, not
// recon::DrivePair) and assert the transcript is bit-for-bit identical to
// the driver-loop run (`Reconciler::Run`), and that the results match
// field by field. Also pins each protocol's documented round count.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gaprecon/gap_recon.h"
#include "lshrecon/mlsh_recon.h"
#include "recon/driver.h"
#include "recon/exact_recon.h"
#include "recon/full_transfer.h"
#include "recon/quadtree_recon.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "riblt/riblt_recon.h"
#include "util/random.h"
#include "workload/scenario.h"

namespace rsr {
namespace recon {
namespace {

using workload::ReplicaPair;
using workload::Scenario;

struct NamedInstance {
  std::string scenario;
  Universe universe;
  ReplicaPair pair;
};

std::vector<NamedInstance> Instances() {
  std::vector<NamedInstance> instances;
  {
    const Scenario s =
        workload::StandardScenario(160, 2, 1 << 16, 6, /*noise=*/2.0);
    instances.push_back({"standard", s.universe, s.Materialize()});
  }
  {
    const Scenario s = workload::SensorScenario(144, 8, /*noise=*/4.0);
    instances.push_back({"sensor", s.universe, s.Materialize()});
  }
  {
    const Scenario s = workload::HighDimScenario(128, 8, 6, /*noise=*/1.0);
    instances.push_back({"highdim", s.universe, s.Materialize()});
  }
  return instances;
}

// Hand-written session pump, deliberately independent of recon::DrivePair:
// opening sends, then alternate deliveries (Bob's inbox first).
ReconResult PumpByHand(const Reconciler& protocol, const PointSet& alice,
                       const PointSet& bob, transport::Channel* channel) {
  using transport::Direction;
  std::unique_ptr<PartySession> a = protocol.MakeAliceSession(alice);
  std::unique_ptr<PartySession> b = protocol.MakeBobSession(bob);
  for (auto& m : a->Start()) channel->Send(Direction::kAliceToBob, std::move(m));
  for (auto& m : b->Start()) channel->Send(Direction::kBobToAlice, std::move(m));
  int guard = 0;
  while (!b->IsDone() && guard++ < 1000) {
    bool moved = false;
    while (!b->IsDone() && channel->HasPending(Direction::kAliceToBob)) {
      auto msg = channel->Receive(Direction::kAliceToBob);
      for (auto& m : b->OnMessage(std::move(*msg))) {
        channel->Send(Direction::kBobToAlice, std::move(m));
      }
      moved = true;
    }
    while (!a->IsDone() && channel->HasPending(Direction::kBobToAlice)) {
      auto msg = channel->Receive(Direction::kBobToAlice);
      for (auto& m : a->OnMessage(std::move(*msg))) {
        channel->Send(Direction::kAliceToBob, std::move(m));
      }
      moved = true;
    }
    if (!moved) break;
  }
  return b->TakeResult();
}

void ExpectSameTranscript(const transport::Channel& x,
                          const transport::Channel& y,
                          const std::string& what) {
  EXPECT_EQ(x.stats().total_bits, y.stats().total_bits) << what;
  EXPECT_EQ(x.stats().alice_to_bob_bits, y.stats().alice_to_bob_bits) << what;
  EXPECT_EQ(x.stats().bob_to_alice_bits, y.stats().bob_to_alice_bits) << what;
  EXPECT_EQ(x.stats().message_count, y.stats().message_count) << what;
  EXPECT_EQ(x.stats().rounds, y.stats().rounds) << what;
  ASSERT_EQ(x.transcript().size(), y.transcript().size()) << what;
  for (size_t i = 0; i < x.transcript().size(); ++i) {
    EXPECT_EQ(x.transcript()[i].direction, y.transcript()[i].direction)
        << what << " entry " << i;
    EXPECT_EQ(x.transcript()[i].label, y.transcript()[i].label)
        << what << " entry " << i;
    EXPECT_EQ(x.transcript()[i].bits, y.transcript()[i].bits)
        << what << " entry " << i;
  }
}

TEST(SessionConformanceTest, DriverMatchesHandPumpedSessionsEverywhere) {
  ProtocolParams params;
  params.k = 8;
  for (const NamedInstance& instance : Instances()) {
    ProtocolContext ctx;
    ctx.universe = instance.universe;
    ctx.seed = 71;
    for (const std::string& name : ProtocolRegistry::Global().ListProtocols()) {
      const std::string what = name + " on " + instance.scenario;
      const std::unique_ptr<Reconciler> protocol =
          MakeReconciler(name, ctx, params);
      ASSERT_NE(protocol, nullptr) << what;

      transport::Channel run_channel, pump_channel;
      const ReconResult via_run = protocol->Run(
          instance.pair.alice, instance.pair.bob, &run_channel);
      const ReconResult via_pump = PumpByHand(
          *protocol, instance.pair.alice, instance.pair.bob, &pump_channel);

      ExpectSameTranscript(run_channel, pump_channel, what);
      EXPECT_EQ(via_run.success, via_pump.success) << what;
      EXPECT_EQ(via_run.bob_final, via_pump.bob_final) << what;
      EXPECT_EQ(via_run.chosen_level, via_pump.chosen_level) << what;
      EXPECT_EQ(via_run.decoded_entries, via_pump.decoded_entries) << what;
      EXPECT_EQ(via_run.attempts, via_pump.attempts) << what;
      EXPECT_EQ(via_run.transmitted, via_pump.transmitted) << what;
      EXPECT_EQ(via_run.error, via_pump.error) << what;
    }
  }
}

TEST(SessionConformanceTest, RoundCountsMatchDocumentation) {
  // One-shot protocols: 1 round. Adaptive quadtree: 1 + 2 per attempt
  // (3 messages / 3 rounds when the first IBLT decodes). Exact: 2 per
  // attempt. Gap: 1 + 2 per attempt (3 on the no-retry path).
  const Scenario s =
      workload::StandardScenario(160, 2, 1 << 16, 6, /*noise=*/2.0);
  const ReplicaPair pair = s.Materialize();
  ProtocolContext ctx;
  ctx.universe = s.universe;
  ctx.seed = 71;
  ProtocolParams params;
  params.k = 8;

  auto rounds_of = [&](const std::string& name, ReconResult* result) {
    const std::unique_ptr<Reconciler> protocol =
        MakeReconciler(name, ctx, params);
    transport::Channel channel;
    *result = protocol->Run(pair.alice, pair.bob, &channel);
    return channel.stats().rounds;
  };

  ReconResult r;
  for (const char* one_shot :
       {"full-transfer", "quadtree", "single-grid", "mlsh-riblt",
        "riblt-oneshot"}) {
    EXPECT_EQ(rounds_of(one_shot, &r), 1u) << one_shot;
  }

  size_t rounds = rounds_of("quadtree-adaptive", &r);
  EXPECT_EQ(rounds, 1 + 2 * r.attempts);
  EXPECT_TRUE(r.success);

  rounds = rounds_of("exact-iblt", &r);
  EXPECT_EQ(rounds, 2 * r.attempts);

  rounds = rounds_of("gap-lattice", &r);
  EXPECT_EQ(rounds, 1 + 2 * r.attempts);
  EXPECT_TRUE(r.success);
}

TEST(SessionConformanceTest, AdaptiveQuadtreeIsThreeRoundsWhenFirstDecodes) {
  // The documented happy path: strata probes (A->B), level request (B->A),
  // level IBLT (A->B) — 3 messages, 3 rounds. Low noise and a generous
  // budget make the first attempt decode.
  const Scenario s =
      workload::StandardScenario(160, 2, 1 << 16, 4, /*noise=*/0.0);
  const ReplicaPair pair = s.Materialize();
  ProtocolContext ctx;
  ctx.universe = s.universe;
  ctx.seed = 71;
  ProtocolParams params;
  params.k = 16;
  const std::unique_ptr<Reconciler> protocol =
      MakeReconciler("quadtree-adaptive", ctx, params);
  transport::Channel channel;
  const ReconResult result =
      protocol->Run(pair.alice, pair.bob, &channel);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(channel.stats().message_count, 3u);
  EXPECT_EQ(channel.stats().rounds, 3u);
}

TEST(SessionConformanceTest, MalformedMessageSurfacesErrorInsteadOfAbort) {
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 3;
  ProtocolParams params;
  const std::unique_ptr<Reconciler> protocol =
      MakeReconciler("full-transfer", ctx, params);
  const PointSet bob_set = {{1, 2}, {3, 4}};  // borrowed by the session
  std::unique_ptr<PartySession> bob = protocol->MakeBobSession(bob_set);
  (void)bob->Start();
  // A truncated payload: varint count says 100 points, none follow.
  BitWriter w;
  w.WriteVarint(100);
  auto replies =
      bob->OnMessage(transport::MakeMessage("full-transfer", std::move(w)));
  EXPECT_TRUE(replies.empty());
  EXPECT_TRUE(bob->IsDone());
  const ReconResult result = bob->TakeResult();
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.error, SessionError::kMalformedMessage);
  // Bob keeps his own set on failure.
  EXPECT_EQ(result.bob_final, bob_set);
}

// Both endpoints borrow their set, so a session factory handed a temporary
// must not compile — through the interface and through every protocol
// class.
template <typename R>
concept MakesAliceFromLvalue = requires(const R& r, const PointSet& points) {
  r.MakeAliceSession(points);
};
template <typename R>
concept MakesAliceFromTemporary =
    requires(const R& r) { r.MakeAliceSession(PointSet{}); };
template <typename R>
constexpr bool kBorrowsAliceSet =
    MakesAliceFromLvalue<R> && !MakesAliceFromTemporary<R>;
static_assert(kBorrowsAliceSet<Reconciler>);
static_assert(kBorrowsAliceSet<QuadtreeReconciler>);
static_assert(kBorrowsAliceSet<AdaptiveQuadtreeReconciler>);
static_assert(kBorrowsAliceSet<ExactReconciler>);
static_assert(kBorrowsAliceSet<FullTransferReconciler>);
static_assert(kBorrowsAliceSet<lshrecon::MlshReconciler>);
static_assert(kBorrowsAliceSet<RibltReconciler>);
static_assert(kBorrowsAliceSet<gaprecon::GapReconciler>);

template <typename R>
concept MakesBobFromLvalue = requires(const R& r, const PointSet& points,
                                      const CanonicalSketchProvider* cache) {
  r.MakeBobSession(points);
  r.MakeBobSession(points, cache);
};
template <typename R>
concept MakesBobFromTemporary =
    requires(const R& r) { r.MakeBobSession(PointSet{}); } ||
    requires(const R& r, const CanonicalSketchProvider* cache) {
      r.MakeBobSession(PointSet{}, cache);
    };
template <typename R>
constexpr bool kBorrowsBobSet =
    MakesBobFromLvalue<R> && !MakesBobFromTemporary<R>;
static_assert(kBorrowsBobSet<Reconciler>);
static_assert(kBorrowsBobSet<QuadtreeReconciler>);
static_assert(kBorrowsBobSet<AdaptiveQuadtreeReconciler>);
static_assert(kBorrowsBobSet<ExactReconciler>);
static_assert(kBorrowsBobSet<FullTransferReconciler>);
static_assert(kBorrowsBobSet<lshrecon::MlshReconciler>);
static_assert(kBorrowsBobSet<RibltReconciler>);
static_assert(kBorrowsBobSet<gaprecon::GapReconciler>);

// A Bob session that ends without a repair still returns exactly its own
// (borrowed) set: on a malformed frame, for every protocol; when its
// result is taken before any frame; and on a decode failure.
TEST(SessionConformanceTest, BobWithoutRepairReturnsHisOwnSet) {
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 6;
  ProtocolParams params;
  params.k = 2;
  Rng rng(6);
  PointSet own(100), other(100);
  for (PointSet* set : {&own, &other}) {
    for (Point& p : *set) {
      p = {rng.Uniform(0, (1 << 12) - 1), rng.Uniform(0, (1 << 12) - 1)};
    }
  }
  for (const std::string& name : ProtocolRegistry::Global().ListProtocols()) {
    const std::unique_ptr<Reconciler> protocol =
        MakeReconciler(name, ctx, params);
    // An all-ones payload: a runaway varint, or a truncated sketch.
    std::unique_ptr<PartySession> bob = protocol->MakeBobSession(own);
    (void)bob->Start();
    BitWriter garbage;
    garbage.WriteBits(0xffffff, 24);
    (void)bob->OnMessage(transport::MakeMessage("garbage", std::move(garbage)));
    const ReconResult malformed = bob->TakeResult();
    EXPECT_FALSE(malformed.success) << name;
    EXPECT_NE(malformed.error, SessionError::kNone) << name;
    EXPECT_EQ(malformed.bob_final, own) << name;

    std::unique_ptr<PartySession> idle = protocol->MakeBobSession(own);
    EXPECT_EQ(idle->TakeResult().bob_final, own) << name;
  }
  // Level 0 of a single grid over 200 differing points cannot decode
  // within a budget of 4k + 8 = 16 entries.
  params.single_grid_level = 0;
  const std::unique_ptr<Reconciler> single =
      MakeReconciler("single-grid", ctx, params);
  transport::Channel channel;
  const ReconResult failed = single->Run(other, own, &channel);
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(failed.error, SessionError::kNone);
  EXPECT_EQ(failed.bob_final, own);
}

TEST(SessionConformanceTest, UnexpectedMessageSurfacesError) {
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 4;
  ProtocolParams params;
  const std::unique_ptr<Reconciler> protocol =
      MakeReconciler("quadtree", ctx, params);
  const PointSet alice_set = {{1, 2}, {3, 4}};  // borrowed by the session
  std::unique_ptr<PartySession> alice = protocol->MakeAliceSession(alice_set);
  (void)alice->Start();  // one-shot Alice is done after Start
  EXPECT_TRUE(alice->IsDone());
  BitWriter w;
  w.WriteVarint(1);
  (void)alice->OnMessage(transport::MakeMessage("stray", std::move(w)));
  const ReconResult result = alice->TakeResult();
  EXPECT_EQ(result.error, SessionError::kUnexpectedMessage);
}

TEST(SessionConformanceTest, StalledDriveReportsError) {
  // Pair a quadtree-adaptive Bob with a one-shot quadtree Alice: Bob's
  // level request is never answered, so the drive stalls instead of
  // deadlocking or crashing.
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 5;
  ProtocolParams params;
  const std::unique_ptr<Reconciler> adaptive =
      MakeReconciler("quadtree-adaptive", ctx, params);
  const std::unique_ptr<Reconciler> oneshot =
      MakeReconciler("quadtree", ctx, params);
  const PointSet points = {{1, 2}, {3, 4}, {9, 9}};
  std::unique_ptr<PartySession> alice = oneshot->MakeAliceSession(points);
  std::unique_ptr<PartySession> bob = adaptive->MakeBobSession(points);
  transport::Channel channel;
  const ReconResult result = DrivePair(alice.get(), bob.get(), &channel);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error, SessionError::kNone);
}

}  // namespace
}  // namespace recon
}  // namespace rsr
