// Replication verbs under wire faults: "@log-fetch" tails and "@pull"
// repairs must survive dribbled (1-byte read / 1..3-byte write) streams
// over pipes (the host's blocking pump) and over the reactor's TCP, and a
// mid-verb disconnect must leave the puller's state untouched — same seq,
// same points — with the next clean round converging. Runs under TSan in
// CI alongside replica_test (serving threads + reactor shards race
// against the fault-injected client side).

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_stream.h"
#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/sync_client.h"
#include "util/random.h"
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
  spec.fraction = 0.0;
  spec.min_updates = 1;
  return spec;
}

void Churn(ReplicaNode* writer, size_t batches, Rng* rng) {
  for (size_t i = 0; i < batches; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        writer->points(), Ctx().universe, SmallChurn(), rng);
    writer->Apply(batch.inserts, batch.erases);
  }
}

/// Dials the writer's blocking pump through a fresh pipe pair, serving the
/// far end on a collected thread; the near end is wrapped in `faults`.
StreamFactory FaultyPipeTo(ReplicaNode* host,
                           std::vector<std::thread>* serve_threads,
                           net::FaultOptions faults) {
  return [host, serve_threads, faults]() -> std::unique_ptr<net::ByteStream> {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    serve_threads->emplace_back(
        [host, end = std::move(server_end)]() mutable {
          host->host().ServeConnection(end.get());
        });
    return net::MaybeWrapFaulty(std::move(client_end), faults);
  };
}

void JoinAll(std::vector<std::thread>* serve_threads) {
  for (std::thread& t : *serve_threads) t.join();
  serve_threads->clear();
}

TEST(ReplicationFaultTest, LogFetchTailSurvivesDribbledStream) {
  ReplicaNode writer(Cloud(96, 4242), NodeOptions(64));
  ReplicaNode follower(Cloud(96, 4242), NodeOptions(64));
  Rng rng(7);
  Churn(&writer, 3, &rng);

  net::FaultOptions dribble;
  dribble.dribble = true;
  dribble.seed = 77;
  std::vector<std::thread> serve_threads;
  const RoundRecord round =
      follower.SyncWithPeer(FaultyPipeTo(&writer, &serve_threads, dribble));
  JoinAll(&serve_threads);

  EXPECT_EQ(round.path, RoundPath::kTail) << round.error_detail;
  EXPECT_TRUE(round.ok);
  EXPECT_EQ(round.entries_applied, 3u);
  EXPECT_EQ(follower.applied_seq(), 3u);
  EXPECT_EQ(SetDivergence(follower.points(), writer.points()), 0u);
}

TEST(ReplicationFaultTest, PullRepairSurvivesDribbledStream) {
  ReplicaNodeOptions options = NodeOptions(1);  // one-entry ring
  options.exact_budget = 1000;                  // keep repairs exact
  ReplicaNode writer(Cloud(96, 4242), options);
  ReplicaNode follower(Cloud(96, 4242), options);
  Rng rng(8);
  Churn(&writer, 3, &rng);  // follower (seq 0) has fallen off the ring

  net::FaultOptions dribble;
  dribble.dribble = true;
  dribble.seed = 78;
  std::vector<std::thread> serve_threads;
  const RoundRecord round =
      follower.SyncWithPeer(FaultyPipeTo(&writer, &serve_threads, dribble));
  JoinAll(&serve_threads);

  EXPECT_EQ(round.path, RoundPath::kRepairExact) << round.error_detail;
  EXPECT_TRUE(round.ok);
  EXPECT_EQ(follower.applied_seq(), writer.applied_seq());
  EXPECT_EQ(SetDivergence(follower.points(), writer.points()), 0u);
}

TEST(ReplicationFaultTest, MidFetchDisconnectLeavesStateUntouchedThenRecovers) {
  ReplicaNode writer(Cloud(96, 4242), NodeOptions(64));
  ReplicaNode follower(Cloud(96, 4242), NodeOptions(64));
  Rng rng(9);
  Churn(&writer, 3, &rng);

  const uint64_t seq_before = follower.applied_seq();
  const PointSet points_before = follower.points();

  // The budget kills the stream mid-"@log-fetch": either the request or
  // the "@log-batch" reply dies partway.
  net::FaultOptions kill;
  kill.close_after_bytes = 24;
  std::vector<std::thread> serve_threads;
  const RoundRecord failed =
      follower.SyncWithPeer(FaultyPipeTo(&writer, &serve_threads, kill));
  JoinAll(&serve_threads);

  EXPECT_EQ(failed.path, RoundPath::kError);
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failed.error_detail.empty());
  // Nothing installed: the puller's position and set are untouched.
  EXPECT_EQ(follower.applied_seq(), seq_before);
  EXPECT_EQ(follower.points(), points_before);
  EXPECT_FALSE(follower.dirty());

  // The next clean round converges as if the fault never happened.
  const RoundRecord clean =
      follower.SyncWithPeer(FaultyPipeTo(&writer, &serve_threads, {}));
  JoinAll(&serve_threads);
  EXPECT_EQ(clean.path, RoundPath::kTail) << clean.error_detail;
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(SetDivergence(follower.points(), writer.points()), 0u);
}

TEST(ReplicationFaultTest, MidPullDisconnectEscalatesThenConverges) {
  ReplicaNodeOptions options = NodeOptions(1);
  options.exact_budget = 1000;
  ReplicaNode writer(Cloud(96, 4242), options);
  ReplicaNode follower(Cloud(96, 4242), options);
  Rng rng(10);
  Churn(&writer, 3, &rng);

  const uint64_t seq_before = follower.applied_seq();
  const PointSet points_before = follower.points();

  // Split-dialer seam: the fetch leg is clean (so the round reaches the
  // repair decision) and the "@pull" leg dies after a small byte budget —
  // a disconnect mid-repair-session.
  net::FaultOptions kill;
  kill.close_after_bytes = 96;
  std::vector<std::thread> serve_threads;
  const RoundRecord failed = follower.SyncWithPeer(
      FaultyPipeTo(&writer, &serve_threads, {}),
      FaultyPipeTo(&writer, &serve_threads, kill));
  JoinAll(&serve_threads);

  EXPECT_EQ(failed.path, RoundPath::kError);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(follower.applied_seq(), seq_before);
  EXPECT_EQ(follower.points(), points_before);

  // A failed repair SESSION arms the escalation latch: the next repair
  // skips the sized bands and full-transfers, then converges.
  const RoundRecord recovered =
      follower.SyncWithPeer(FaultyPipeTo(&writer, &serve_threads, {}));
  JoinAll(&serve_threads);
  EXPECT_TRUE(recovered.ok) << recovered.error_detail;
  EXPECT_EQ(recovered.path, RoundPath::kRepairFull)
      << RoundPathName(recovered.path);
  EXPECT_EQ(follower.applied_seq(), writer.applied_seq());
  EXPECT_EQ(SetDivergence(follower.points(), writer.points()), 0u);
}

TEST(ReplicationFaultTest, AsyncHostTailSurvivesDribbleAndDisconnect) {
  Changelog changelog;
  server::AsyncSyncServerOptions async_options;
  async_options.context = Ctx();
  async_options.params = Params();
  async_options.changelog = &changelog;
  server::AsyncSyncServer async_server(Cloud(96, 4242), async_options);
  ASSERT_TRUE(async_server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  Rng rng(11);
  for (size_t i = 0; i < 2; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        async_server.canonical(), Ctx().universe, SmallChurn(), &rng);
    async_server.ApplyUpdate(batch.inserts, batch.erases);
  }
  ASSERT_EQ(async_server.replica_seq(), 2u);

  ReplicaNode follower(Cloud(96, 4242), NodeOptions(64));
  const uint16_t port = async_server.port();
  const auto tcp_dialer =
      [port](net::FaultOptions faults) -> StreamFactory {
    return [port, faults]() -> std::unique_ptr<net::ByteStream> {
      auto stream = net::TcpStream::Connect("127.0.0.1", port);
      if (stream == nullptr) return nullptr;
      return net::MaybeWrapFaulty(std::move(stream), faults);
    };
  };
  // These rounds are pure tails, so the repair leg must never dial.
  const StreamFactory no_repair = []() -> std::unique_ptr<net::ByteStream> {
    ADD_FAILURE() << "tail round dialed the repair leg";
    return nullptr;
  };

  // Disconnect first: the reactor must shrug off the dead connection...
  net::FaultOptions kill;
  kill.close_after_bytes = 24;
  const RoundRecord failed =
      follower.SyncWithPeer(tcp_dialer(kill), no_repair);
  EXPECT_EQ(failed.path, RoundPath::kError);
  EXPECT_EQ(follower.applied_seq(), 0u);

  // ...and keep serving: a dribbled tail from the same follower succeeds.
  net::FaultOptions dribble;
  dribble.dribble = true;
  dribble.seed = 79;
  const RoundRecord tail =
      follower.SyncWithPeer(tcp_dialer(dribble), no_repair);
  EXPECT_EQ(tail.path, RoundPath::kTail) << tail.error_detail;
  EXPECT_TRUE(tail.ok);
  EXPECT_EQ(tail.entries_applied, 2u);
  EXPECT_EQ(follower.applied_seq(), 2u);
  EXPECT_EQ(SetDivergence(follower.points(), async_server.canonical()), 0u);

  async_server.Stop();
}

}  // namespace
}  // namespace replica
}  // namespace rsr
