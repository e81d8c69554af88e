// Replication subsystem: tail replay bit-identity, fall-off-the-log
// protocol repair, approximate-repair dirtiness, mesh convergence to
// exact zero divergence, replica-aware client serving, retry-on-reject,
// and the stats dump. The concurrency-heavy pieces (pipe serving threads,
// scheduler rounds) run under TSan in CI.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "recon/exact_recon.h"
#include "recon/registry.h"
#include "replica/anti_entropy.h"
#include "replica/mesh.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "sketch_families.h"
#include "transport/channel.h"
#include "util/bitio.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rsr {
namespace replica {
namespace {

using RoundPath = RoundRecord::Path;

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 9;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.k = 8;
  return params;
}

PointSet Cloud(size_t n, uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(seed);
  return workload::GenerateCloud(spec, &rng);
}

ReplicaNodeOptions NodeOptions(size_t log_capacity) {
  ReplicaNodeOptions options;
  options.server.context = Ctx();
  options.server.params = Params();
  options.changelog.capacity = log_capacity;
  return options;
}

workload::ChurnSpec SmallChurn() {
  workload::ChurnSpec spec;
  spec.fraction = 0.0;  // min_updates floors it: one replacement per batch
  spec.min_updates = 1;
  return spec;
}

/// Applies `batches` churn batches to the writer node.
void Churn(ReplicaNode* writer, const workload::ChurnSpec& spec,
           size_t batches, Rng* rng) {
  for (size_t i = 0; i < batches; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        writer->points(), Ctx().universe, spec, rng);
    writer->Apply(batch.inserts, batch.erases);
  }
}

std::vector<uint8_t> StrataBits(const server::SketchSnapshot& snapshot) {
  const auto strata = recon::ExactStrataSpec(Ctx().seed).Find(&snapshot);
  BitWriter w;
  if (strata != nullptr) strata->Serialize(&w);
  return std::move(w).TakeBytes();
}

TEST(ReplicaNodeTest, TailReplayIsBitIdenticalToWriter) {
  ReplicaMeshOptions options;
  options.nodes = 2;
  options.node = NodeOptions(64);
  ReplicaMesh mesh(Cloud(96, 4242), options);

  Rng rng(7);
  Churn(&mesh.node(0), SmallChurn(), 3, &rng);
  ASSERT_EQ(mesh.node(0).applied_seq(), 3u);

  const RoundRecord round = mesh.RunRound(1, 0);
  EXPECT_EQ(round.path, RoundPath::kTail) << round.error_detail;
  EXPECT_TRUE(round.ok);
  EXPECT_EQ(round.entries_applied, 3u);
  EXPECT_EQ(round.peer_seq, 3u);
  EXPECT_EQ(mesh.node(1).applied_seq(), 3u);

  // Same batches replayed in the same order: the follower's point SEQUENCE
  // (not just multiset) and its cached serving sketches must come out
  // bit-identical to the writer's.
  EXPECT_EQ(mesh.node(1).points(), mesh.node(0).points());
  EXPECT_EQ(StrataBits(*mesh.node(1).snapshot()),
            StrataBits(*mesh.node(0).snapshot()));

  // Mirrored changelog: a third replica could now tail from the follower.
  const FetchedEntries mirrored = mesh.node(1).changelog().Fetch(0);
  ASSERT_TRUE(mirrored.ok);
  EXPECT_EQ(mirrored.entries.size(), 3u);

  const RoundRecord idle = mesh.RunRound(1, 0);
  EXPECT_EQ(idle.path, RoundPath::kInSync);
  EXPECT_TRUE(idle.ok);
  mesh.StopSchedulers();
}

TEST(ReplicaNodeTest, FallOffLogForcesRepairThenTailResumes) {
  ReplicaMeshOptions options;
  options.nodes = 2;
  options.node = NodeOptions(1);       // ring keeps only the newest entry
  options.node.exact_budget = 1000;    // keep the repair on the exact path
  ReplicaMesh mesh(Cloud(96, 4242), options);

  Rng rng(8);
  Churn(&mesh.node(0), SmallChurn(), 3, &rng);

  // The follower (at seq 0) has fallen off the writer's one-entry ring.
  const RoundRecord repair = mesh.RunRound(1, 0);
  EXPECT_EQ(repair.path, RoundPath::kRepairExact) << repair.error_detail;
  EXPECT_TRUE(repair.ok);
  EXPECT_EQ(repair.protocol, "riblt-oneshot");
  EXPECT_EQ(repair.seq_after, 3u);
  EXPECT_FALSE(repair.dirty_after);
  EXPECT_EQ(mesh.Divergence(0, 1), 0u);

  // Exact install re-based the follower's coverage at the peer's seq, so
  // the next writer batch tails normally again.
  Churn(&mesh.node(0), SmallChurn(), 1, &rng);
  const RoundRecord tail = mesh.RunRound(1, 0);
  EXPECT_EQ(tail.path, RoundPath::kTail) << tail.error_detail;
  EXPECT_EQ(tail.entries_applied, 1u);
  EXPECT_EQ(mesh.Divergence(0, 1), 0u);
  mesh.StopSchedulers();
}

TEST(ReplicaNodeTest, ApproximateRepairGoesDirtyUntilExactRepair) {
  ReplicaMeshOptions options;
  options.nodes = 2;
  options.node = NodeOptions(1);
  options.node.exact_budget = 1;        // force the delta past the exact band
  options.node.approx_budget = 100000;  // ...into the approximate one
  ReplicaMesh mesh(Cloud(96, 4242), options);

  Rng rng(11);
  Churn(&mesh.node(0), SmallChurn(), 3, &rng);

  const RoundRecord approx = mesh.RunRound(1, 0);
  EXPECT_EQ(approx.path, RoundPath::kRepairApprox) << approx.error_detail;
  EXPECT_TRUE(approx.ok);
  EXPECT_EQ(approx.protocol, "quadtree");
  EXPECT_TRUE(approx.dirty_after);
  // The set corresponds to no journal position now; seq did not move.
  EXPECT_EQ(approx.seq_after, 0u);

  // A dirty node never tail-replays and never re-approximates: the next
  // round escalates to an exact install, which clears the flag and adopts
  // the peer's position.
  const RoundRecord exact = mesh.RunRound(1, 0);
  EXPECT_TRUE(exact.ok) << exact.error_detail;
  EXPECT_TRUE(exact.path == RoundPath::kRepairExact ||
              exact.path == RoundPath::kRepairFull)
      << RoundPathName(exact.path);
  EXPECT_FALSE(exact.dirty_after);
  EXPECT_EQ(exact.seq_after, mesh.node(0).applied_seq());
  EXPECT_EQ(mesh.Divergence(0, 1), 0u);
  mesh.StopSchedulers();
}

/// Asserts that every sketch family the node serves — each one made live
/// before its repair, so carried across it — is bit-identical to a build
/// from the node's points.
void ExpectFamiliesMatchPoints(const ReplicaNode& node) {
  const auto snapshot = node.snapshot();
  server::ExpectFamiliesMatchScratch(*snapshot, snapshot->points(), Ctx(),
                                     Params());
}

TEST(ReplicaNodeTest, ExactRepairOfAMultisetInstallsTheSessionsEdit) {
  // Duplicate points on both sides: the writer drops one of three copies
  // and gains a third copy of another point, so the riblt-oneshot repair
  // retires one copy of an equal point and adds one.
  PointSet start = Cloud(64, 4242);
  start.push_back(start[0]);
  start.push_back(start[0]);
  start.push_back(start[5]);
  ReplicaMeshOptions options;
  options.nodes = 2;
  options.node = NodeOptions(1);     // ring keeps only the newest entry
  options.node.exact_budget = 1000;  // keep the repair on the exact path
  ReplicaMesh mesh(start, options);
  ExpectFamiliesMatchPoints(mesh.node(1));

  mesh.node(0).Apply({start[5]}, {start[0]});
  Rng rng(17);
  Churn(&mesh.node(0), SmallChurn(), 2, &rng);  // the follower falls off

  const RoundRecord round = mesh.RunRound(1, 0);
  EXPECT_EQ(round.path, RoundPath::kRepairExact) << round.error_detail;
  EXPECT_EQ(round.protocol, "riblt-oneshot");
  EXPECT_EQ(round.seq_after, 3u);
  EXPECT_FALSE(round.dirty_after);
  EXPECT_EQ(mesh.Divergence(0, 1), 0u);
  ExpectFamiliesMatchPoints(mesh.node(1));
  mesh.StopSchedulers();
}

TEST(ReplicaNodeTest, FullTransferRepairErasesAndReinsertsEqualPoints) {
  // A follower a few points off its peer: the full-transfer install
  // erases all of its points and inserts all of the peer's, most of them
  // equal to a point just erased.
  PointSet start = Cloud(96, 4242);
  start.push_back(start[3]);
  ReplicaMeshOptions options;
  options.nodes = 2;
  options.node = NodeOptions(64);
  options.node.exact_budget = 1;  // force the delta past the exact band
  ReplicaMesh mesh(start, options);
  ExpectFamiliesMatchPoints(mesh.node(1));

  // An off-log edit: the follower goes dirty, so its next round repairs.
  const PointSet moved = Cloud(3, 99);
  ReplicaNode& follower = mesh.node(1);
  follower.host().InstallRepair({moved[0], moved[1], start[3]},
                                {start[1], start[2]}, follower.applied_seq(),
                                /*exact=*/false);
  ASSERT_TRUE(follower.dirty());
  ASSERT_GT(mesh.Divergence(0, 1), 0u);

  const RoundRecord round = mesh.RunRound(1, 0);
  EXPECT_EQ(round.path, RoundPath::kRepairFull) << round.error_detail;
  EXPECT_EQ(round.protocol, "full-transfer");
  EXPECT_FALSE(round.dirty_after);
  EXPECT_EQ(mesh.Divergence(0, 1), 0u);
  ExpectFamiliesMatchPoints(follower);
  mesh.StopSchedulers();
}

TEST(ReplicaMeshTest, ThreeNodesConvergeToExactZeroDivergence) {
  ReplicaMeshOptions options;
  options.nodes = 3;
  options.node = NodeOptions(4);
  ReplicaMesh mesh(Cloud(128, 1234), options);

  Rng rng(21);
  workload::ChurnSpec spec = SmallChurn();
  spec.min_updates = 2;

  std::vector<RoundRecord> records;
  // Churn while the followers pull — node 2 pulls from node 1, so the
  // follower-to-follower serving path (mirrored changelog) is exercised.
  for (size_t phase = 0; phase < 6; ++phase) {
    Churn(&mesh.node(0), spec, 2, &rng);
    records.push_back(mesh.RunRound(1, 0));
    records.push_back(mesh.RunRound(2, 1));
  }
  // Quiescence: no more writes; a few more rounds must reach exact zero.
  for (size_t round = 0; round < 12 && mesh.MaxDivergence() > 0; ++round) {
    records.push_back(mesh.RunRound(1, 0));
    records.push_back(mesh.RunRound(2, 1));
    records.push_back(mesh.RunRound(2, 0));
  }
  EXPECT_EQ(mesh.MaxDivergence(), 0u);
  EXPECT_EQ(mesh.node(1).applied_seq(), mesh.node(0).applied_seq());
  EXPECT_EQ(mesh.node(2).applied_seq(), mesh.node(0).applied_seq());
  for (const RoundRecord& record : records) {
    EXPECT_NE(record.path, RoundPath::kError) << record.error_detail;
  }
  const bool tailed = std::any_of(
      records.begin(), records.end(),
      [](const RoundRecord& r) { return r.path == RoundPath::kTail; });
  EXPECT_TRUE(tailed);
  mesh.StopSchedulers();
}

TEST(ReplicaMeshTest, SchedulerConvergesInBackground) {
  ReplicaMeshOptions options;
  options.nodes = 3;
  options.node = NodeOptions(64);
  options.anti_entropy.period = std::chrono::milliseconds(5);
  ReplicaMesh mesh(Cloud(96, 77), options);

  Rng rng(31);
  ASSERT_TRUE(mesh.StartScheduler(1));
  ASSERT_TRUE(mesh.StartScheduler(2));
  Churn(&mesh.node(0), SmallChurn(), 5, &rng);
  // Wait (bounded) for the periodic pulls to spread the writes.
  for (int i = 0; i < 400 && mesh.MaxDivergence() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mesh.StopSchedulers();
  // One final deterministic sweep settles any round that raced the stop.
  mesh.RunRound(1, 0);
  mesh.RunRound(2, 0);
  EXPECT_EQ(mesh.MaxDivergence(), 0u);
  EXPECT_GE(mesh.scheduler(1).rounds_run(), 1u);
  EXPECT_GE(mesh.scheduler(2).rounds_run(), 1u);
  mesh.StopSchedulers();
}

TEST(ReplicaServingTest, ClientSyncMatchesDriverAndSeesReplicaSeq) {
  ReplicaNodeOptions node_options = NodeOptions(64);
  ReplicaNode node(Cloud(96, 4242), node_options);
  Rng rng(41);
  Churn(&node, SmallChurn(), 2, &rng);
  ASSERT_EQ(node.applied_seq(), 2u);

  // A drifted client replica (same size; perturbed copies).
  PointSet client_points = node.points();
  for (size_t i = 0; i < 6; ++i) {
    client_points[i] = workload::PerturbPoint(
        client_points[i], Ctx().universe, workload::NoiseKind::kGaussian,
        4.0, &rng);
  }

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);

  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread server_thread([&node, end = std::move(server_end)]() mutable {
    node.host().ServeConnection(end.get());
  });
  const server::SyncOutcome outcome =
      client.Sync(client_end.get(), "riblt-oneshot", client_points);
  server_thread.join();

  ASSERT_TRUE(outcome.handshake_ok) << outcome.error_detail;
  EXPECT_EQ(outcome.server_replica_seq, 2u);
  EXPECT_EQ(outcome.server_generation,
            node.host().snapshot()->generation());

  // Bit-identical to the in-process two-party driver on the same inputs.
  const auto reconciler =
      recon::MakeReconciler("riblt-oneshot", Ctx(), Params());
  transport::Channel channel;
  const recon::ReconResult expected =
      reconciler->Run(client_points, node.points(), &channel);
  ASSERT_TRUE(outcome.result.success);
  EXPECT_EQ(outcome.result.bob_final, expected.bob_final);
  EXPECT_EQ(outcome.result.transmitted, expected.transmitted);
}

TEST(SyncRetryTest, RejectedHandshakeRetriesAllAttempts) {
  // A server with an empty registry rejects every protocol.
  const recon::ProtocolRegistry empty_registry;
  server::SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.registry = &empty_registry;
  server::SyncServer server(Cloud(64, 5), server_options);

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);

  std::vector<std::thread> serve_threads;
  const auto connect = [&]() -> std::unique_ptr<net::ByteStream> {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    serve_threads.emplace_back(
        [&server, end = std::move(server_end)]() mutable {
          server.ServeConnection(end.get());
        });
    return std::move(client_end);
  };

  server::SyncRetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  const server::SyncOutcome outcome =
      client.SyncWithRetry(connect, "riblt-oneshot", Cloud(64, 6), policy);
  for (std::thread& t : serve_threads) t.join();

  EXPECT_FALSE(outcome.result.success);
  EXPECT_EQ(outcome.result.error, recon::SessionError::kProtocolRejected);
  EXPECT_EQ(outcome.attempts_used, 3u);
  EXPECT_FALSE(outcome.reject_reason.empty());
  EXPECT_EQ(server.metrics_registry().CounterValue(
                "rsr_sync_handshakes_rejected_total"),
            3u);
}

TEST(SyncRetryTest, RecoversOnSecondAttemptAfterDeadStream) {
  server::SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server::SyncServer server(Cloud(64, 5), server_options);

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);

  std::vector<std::thread> serve_threads;
  size_t dials = 0;
  const auto connect = [&]() -> std::unique_ptr<net::ByteStream> {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    if (++dials == 1) {
      // First dial reaches a dead peer: handshake fails pre-@accept,
      // which is the retryable class.
      server_end->Close();
      return std::move(client_end);
    }
    serve_threads.emplace_back(
        [&server, end = std::move(server_end)]() mutable {
          server.ServeConnection(end.get());
        });
    return std::move(client_end);
  };

  server::SyncRetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  // full-transfer: decode cannot fail, so success isolates the transport
  // recovery under test from protocol capacity.
  const server::SyncOutcome outcome =
      client.SyncWithRetry(connect, "full-transfer", Cloud(64, 6), policy);
  for (std::thread& t : serve_threads) t.join();

  EXPECT_TRUE(outcome.result.success) << outcome.error_detail;
  EXPECT_EQ(outcome.attempts_used, 2u);
  EXPECT_EQ(dials, 2u);
}

TEST(SyncRetryTest, BackoffScheduleIsBoundedAndJittered) {
  // Every handshake is rejected, so the client consumes all attempts and
  // the recorder sees every backoff wait — with NO wall-clock sleeping,
  // thanks to the policy's clock seam.
  const recon::ProtocolRegistry empty_registry;
  server::SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.registry = &empty_registry;
  server::SyncServer server(Cloud(64, 5), server_options);

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);

  std::vector<std::thread> serve_threads;
  const auto connect = [&]() -> std::unique_ptr<net::ByteStream> {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    serve_threads.emplace_back(
        [&server, end = std::move(server_end)]() mutable {
          server.ServeConnection(end.get());
        });
    return std::move(client_end);
  };

  server::SyncRetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = std::chrono::milliseconds(100);
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  policy.seed = 7;
  std::vector<std::chrono::milliseconds> sleeps;
  policy.sleep_fn = [&sleeps](std::chrono::milliseconds wait) {
    sleeps.push_back(wait);
  };
  const server::SyncOutcome outcome =
      client.SyncWithRetry(connect, "riblt-oneshot", Cloud(64, 6), policy);
  for (std::thread& t : serve_threads) t.join();

  EXPECT_EQ(outcome.attempts_used, 4u);
  // One wait between consecutive attempts: attempts - 1 of them, each
  // inside the jitter band around initial_backoff * multiplier^i.
  ASSERT_EQ(sleeps.size(), 3u);
  bool jitter_moved_something = false;
  for (size_t i = 0; i < sleeps.size(); ++i) {
    const int64_t nominal = 100 * (int64_t{1} << i);
    const int64_t lo = nominal * 3 / 4;   // (1 - jitter) * nominal
    const int64_t hi = nominal * 5 / 4;   // (1 + jitter) * nominal
    EXPECT_GE(sleeps[i].count(), lo) << "backoff " << i;
    EXPECT_LE(sleeps[i].count(), hi) << "backoff " << i;
    jitter_moved_something =
        jitter_moved_something || sleeps[i].count() != nominal;
  }
  // The jitter RNG (seeded, deterministic) must actually spread retries.
  EXPECT_TRUE(jitter_moved_something);
}

TEST(SyncRetryTest, NoRetryAfterAcceptObserved) {
  // A hand-rolled server that completes the handshake and then hangs up:
  // the failure is post-"@accept", where the session's outcome is unknown
  // and a blind retry could double-apply — so the client must NOT retry.
  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);

  std::vector<std::thread> serve_threads;
  size_t dials = 0;
  const auto connect = [&]() -> std::unique_ptr<net::ByteStream> {
    ++dials;
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    serve_threads.emplace_back([end = std::move(server_end)]() mutable {
      net::FramedStream framed(end.get());
      transport::Message hello_message;
      if (framed.Receive(&hello_message) !=
          net::FramedStream::RecvStatus::kMessage) {
        return;
      }
      server::HelloFrame hello;
      if (!server::DecodeHello(hello_message, &hello)) return;
      server::AcceptFrame accept;
      accept.protocol = hello.protocol;
      accept.will_send_result_set = hello.want_result_set;
      accept.generation = 1;
      framed.Send(server::EncodeAccept(accept));
      end->Close();  // dies right after accepting
    });
    return std::move(client_end);
  };

  server::SyncRetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = std::chrono::milliseconds(1);
  size_t sleeps = 0;
  policy.sleep_fn = [&sleeps](std::chrono::milliseconds) { ++sleeps; };
  const server::SyncOutcome outcome =
      client.SyncWithRetry(connect, "full-transfer", Cloud(64, 6), policy);
  for (std::thread& t : serve_threads) t.join();

  EXPECT_TRUE(outcome.handshake_ok);
  EXPECT_FALSE(outcome.result.success);
  EXPECT_EQ(outcome.attempts_used, 1u);
  EXPECT_EQ(dials, 1u);
  EXPECT_EQ(sleeps, 0u);
}

TEST(ReplicaNodeTest, RepairFailureEscalatesNextRepairToFullTransfer) {
  // The writer's host serves only full-transfer, so it rejects the
  // follower's exact-band "@pull riblt-oneshot" and the sized repair band
  // fails deterministically. The escalation latch must route the NEXT
  // repair straight to the unconditional full transfer instead of looping
  // on the same choice — and clear itself once a round succeeds.
  recon::ProtocolRegistry full_only;
  full_only.Register(
      "full-transfer", "the only protocol served",
      [](const recon::ProtocolContext& ctx,
         const recon::ProtocolParams& params) {
        return recon::ProtocolRegistry::Global().Create("full-transfer", ctx,
                                                        params);
      });
  ReplicaNodeOptions options = NodeOptions(1);  // one-entry ring
  options.exact_budget = 1000;
  ReplicaNode follower(Cloud(96, 4242), options);
  options.server.registry = &full_only;
  ReplicaNode writer(Cloud(96, 4242), options);

  std::vector<std::thread> serve_threads;
  const StreamFactory peer = [&]() -> std::unique_ptr<net::ByteStream> {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    serve_threads.emplace_back(
        [&writer, end = std::move(server_end)]() mutable {
          writer.host().ServeConnection(end.get());
        });
    return std::move(client_end);
  };
  const auto run_round = [&]() {
    const RoundRecord record = follower.SyncWithPeer(peer);
    for (std::thread& t : serve_threads) t.join();
    serve_threads.clear();
    return record;
  };

  Rng rng(13);
  Churn(&writer, SmallChurn(), 3, &rng);  // follower falls off the ring

  const RoundRecord rejected = run_round();
  EXPECT_EQ(rejected.path, RoundPath::kError);
  EXPECT_EQ(rejected.protocol, "riblt-oneshot");

  const RoundRecord escalated = run_round();
  EXPECT_EQ(escalated.path, RoundPath::kRepairFull)
      << escalated.error_detail;
  EXPECT_TRUE(escalated.ok);
  EXPECT_EQ(follower.applied_seq(), writer.applied_seq());
  EXPECT_EQ(SetDivergence(follower.points(), writer.points()), 0u);

  // Success cleared the latch: the next fall-off attempts the sized exact
  // band again (and fails again) rather than jumping straight to full.
  Churn(&writer, SmallChurn(), 2, &rng);
  const RoundRecord relatched = run_round();
  EXPECT_EQ(relatched.path, RoundPath::kError);
  EXPECT_EQ(relatched.protocol, "riblt-oneshot");
}

TEST(ReplicaServingTest, RegistryReportsPositionAndReplicationVerbs) {
  ReplicaMeshOptions options;
  options.nodes = 2;
  options.node = NodeOptions(64);
  ReplicaMesh mesh(Cloud(64, 4242), options);
  Rng rng(51);
  Churn(&mesh.node(0), SmallChurn(), 2, &rng);
  ASSERT_EQ(mesh.RunRound(1, 0).path, RoundPath::kTail);
  mesh.StopSchedulers();

  const obs::MetricsRegistry& metrics = mesh.node(0).host().metrics_registry();
  EXPECT_EQ(metrics.GaugeValue("rsr_replica_seq"), 2);
  EXPECT_EQ(
      metrics.CounterValue("rsr_sync_sessions_total",
                           {{"protocol", "@log-fetch"}, {"outcome", "ok"}}),
      1u);
  EXPECT_GE(metrics.GaugeValue("rsr_sync_active_sessions_peak"), 1);
}

TEST(AsyncReplicaTest, AsyncHostJournalsServesLogFetchAndReportsSeq) {
  Changelog changelog;
  server::AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.changelog = &changelog;
  server::AsyncSyncServer server(Cloud(96, 4242), options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  Rng rng(61);
  workload::ChurnBatch batch = workload::MakeChurnBatch(
      server.canonical(), Ctx().universe, SmallChurn(), &rng);
  server.ApplyUpdate(batch.inserts, batch.erases);
  batch = workload::MakeChurnBatch(server.canonical(), Ctx().universe,
                                   SmallChurn(), &rng);
  server.ApplyUpdate(batch.inserts, batch.erases);
  EXPECT_EQ(server.replica_seq(), 2u);

  // Raw @log-fetch over TCP.
  {
    auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
    ASSERT_NE(stream, nullptr);
    net::FramedStream framed(stream.get());
    server::LogFetchFrame fetch;
    fetch.from_seq = 0;
    ASSERT_TRUE(framed.Send(server::EncodeLogFetch(fetch)));
    transport::Message reply;
    ASSERT_EQ(framed.Receive(&reply),
              net::FramedStream::RecvStatus::kMessage);
    server::LogBatchFrame log_batch;
    ASSERT_TRUE(server::DecodeLogBatch(
        reply, Ctx().universe,
        recon::ExactReconStrataConfig(Ctx().seed), &log_batch));
    EXPECT_TRUE(log_batch.ok);
    EXPECT_TRUE(log_batch.complete);
    EXPECT_EQ(log_batch.last_seq, 2u);
    EXPECT_EQ(log_batch.entries.size(), 2u);
    stream->Close();
  }

  // The replication position rides in the ordinary "@accept" too.
  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);
  auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  const server::SyncOutcome outcome =
      client.Sync(stream.get(), "riblt-oneshot", Cloud(96, 62));
  EXPECT_TRUE(outcome.handshake_ok) << outcome.error_detail;
  EXPECT_EQ(outcome.server_replica_seq, 2u);

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.GaugeValue("rsr_replica_seq"), 2);
  EXPECT_EQ(
      metrics.CounterValue("rsr_sync_sessions_total",
                           {{"protocol", "@log-fetch"}, {"outcome", "ok"}}),
      1u);
  server.Stop();
}

/// A follower repairs from a replicating reactor over TCP: the async host
/// serves "@pull" from the same Connection core as the threaded host, so
/// every repair band runs against it.
TEST(AsyncReplicaTest, FollowerRepairsFromAsyncHostOverTcp) {
  ChangelogOptions log_options;
  log_options.capacity = 1;  // the ring keeps only the newest entry
  Changelog changelog(log_options);
  server::AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.shards = 1;
  options.changelog = &changelog;
  const PointSet start = Cloud(96, 4242);
  server::AsyncSyncServer host(start, options);
  ASSERT_TRUE(host.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  Rng rng(71);
  for (int i = 0; i < 3; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        host.canonical(), Ctx().universe, SmallChurn(), &rng);
    host.ApplyUpdate(batch.inserts, batch.erases);
  }
  ASSERT_EQ(host.replica_seq(), 3u);
  const uint16_t port = host.port();
  const StreamFactory dial = [port]() -> std::unique_ptr<net::ByteStream> {
    return net::TcpStream::Connect("127.0.0.1", port);
  };

  // Exact band: riblt-oneshot installs the host's set-at-3 exactly.
  {
    ReplicaNodeOptions node_options = NodeOptions(64);
    node_options.exact_budget = 1000;
    ReplicaNode follower(start, node_options);
    const RoundRecord round = follower.SyncWithPeer(dial);
    EXPECT_EQ(round.path, RoundPath::kRepairExact) << round.error_detail;
    EXPECT_EQ(round.protocol, "riblt-oneshot");
    EXPECT_EQ(round.peer_seq, 3u);
    EXPECT_EQ(round.seq_after, 3u);
    EXPECT_FALSE(round.dirty_after);
    EXPECT_EQ(SetDivergence(follower.points(), host.canonical()), 0u);
  }
  // Approximate band: quadtree leaves the follower dirty at its old seq;
  // its next round escalates to an exact install.
  {
    ReplicaNodeOptions node_options = NodeOptions(64);
    node_options.exact_budget = 1;
    node_options.approx_budget = 100000;
    ReplicaNode follower(start, node_options);
    const RoundRecord approx = follower.SyncWithPeer(dial);
    EXPECT_EQ(approx.path, RoundPath::kRepairApprox) << approx.error_detail;
    EXPECT_EQ(approx.protocol, "quadtree");
    EXPECT_EQ(approx.peer_seq, 3u);
    EXPECT_EQ(approx.seq_after, 0u);
    EXPECT_TRUE(approx.dirty_after);
    const RoundRecord exact = follower.SyncWithPeer(dial);
    EXPECT_TRUE(exact.ok) << exact.error_detail;
    EXPECT_EQ(exact.seq_after, 3u);
    EXPECT_FALSE(exact.dirty_after);
    EXPECT_EQ(SetDivergence(follower.points(), host.canonical()), 0u);
  }
  // Full band: full-transfer, also an exact install.
  {
    ReplicaNodeOptions node_options = NodeOptions(64);
    node_options.exact_budget = 1;
    ReplicaNode follower(start, node_options);
    const RoundRecord round = follower.SyncWithPeer(dial);
    EXPECT_EQ(round.path, RoundPath::kRepairFull) << round.error_detail;
    EXPECT_EQ(round.protocol, "full-transfer");
    EXPECT_EQ(round.seq_after, 3u);
    EXPECT_FALSE(round.dirty_after);
    EXPECT_EQ(SetDivergence(follower.points(), host.canonical()), 0u);
  }
  // A dirty host advertises it in "@pull-accept": the pulled set is
  // adopted, but never as the host's journal position.
  host.InstallRepair({}, {}, host.replica_seq(), /*exact=*/false);
  ASSERT_TRUE(host.repair_dirty());
  {
    ReplicaNodeOptions node_options = NodeOptions(64);
    node_options.exact_budget = 1;
    ReplicaNode follower(start, node_options);
    const RoundRecord round = follower.SyncWithPeer(dial);
    EXPECT_EQ(round.path, RoundPath::kRepairFull) << round.error_detail;
    EXPECT_EQ(round.peer_seq, 3u);
    EXPECT_EQ(round.seq_after, 0u);
    EXPECT_TRUE(round.dirty_after);
    EXPECT_EQ(SetDivergence(follower.points(), host.canonical()), 0u);
  }
  // The follower's close ends a pull; Stop reads a close that already
  // arrived before it fails what is still open.
  host.Stop();
  EXPECT_EQ(host.metrics_registry().CounterValue(
                "rsr_sync_sessions_total",
                {{"protocol", "@pull:full-transfer"}, {"outcome", "ok"}}),
            2u);
}

}  // namespace
}  // namespace replica
}  // namespace rsr
