// Serving-layer integration tests: the sync server + client over both
// transports (pipe pair and loopback TCP), asserting that a served sync's
// result — including the reconciled point set — is bit-for-bit identical
// to the in-process two-party driver on the same inputs, that the
// handshake rejects unknown protocols with a self-describing error, and
// that 8 concurrent clients with mixed protocols are all served correctly.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/changelog.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace rsr {
namespace server {
namespace {

using recon::ProtocolContext;
using recon::ProtocolParams;
using recon::ReconResult;
using recon::SessionError;

const char* kAllProtocols[] = {
    "exact-iblt",   "full-transfer", "gap-lattice",   "mlsh-riblt",
    "quadtree",     "quadtree-adaptive", "riblt-oneshot", "single-grid",
};

ProtocolContext Ctx() {
  ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 77;
  return ctx;
}

ProtocolParams Params() {
  ProtocolParams params;
  params.k = 8;
  return params;
}

/// The server's canonical set: a clustered cloud in Ctx()'s universe.
PointSet Canonical(size_t n) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(4242);
  return workload::GenerateCloud(spec, &rng);
}

/// A drifted replica of `base`: per-point Gaussian noise plus `outliers`
/// points replaced by fresh uniform ones. Same size as the base, so the
/// equal-size contract of the EMD-model protocols holds.
PointSet DriftedReplica(const PointSet& base, uint64_t seed,
                        size_t outliers = 4, double noise = 1.0) {
  const Universe universe = Ctx().universe;
  Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(workload::PerturbPoint(
        p, universe, workload::NoiseKind::kGaussian, noise, &rng));
  }
  for (size_t i = 0; i < outliers && !replica.empty(); ++i) {
    Point fresh(universe.d);
    for (int j = 0; j < universe.d; ++j) {
      fresh[j] = static_cast<int64_t>(rng.Below(universe.delta));
    }
    replica[rng.Below(replica.size())] = std::move(fresh);
  }
  return replica;
}

/// The reference: the same sync through recon::DrivePair (via Run).
ReconResult InProcessResult(const std::string& protocol,
                            const PointSet& client_points,
                            const PointSet& canonical) {
  const auto reconciler =
      recon::MakeReconciler(protocol, Ctx(), Params());
  transport::Channel channel;
  return reconciler->Run(client_points, canonical, &channel);
}

void ExpectMatchesInProcess(const std::string& protocol,
                            const SyncOutcome& outcome,
                            const ReconResult& expected) {
  EXPECT_TRUE(outcome.handshake_ok) << protocol;
  EXPECT_EQ(outcome.result.success, expected.success) << protocol;
  EXPECT_EQ(outcome.result.error, expected.error) << protocol;
  EXPECT_EQ(outcome.result.chosen_level, expected.chosen_level) << protocol;
  EXPECT_EQ(outcome.result.decoded_entries, expected.decoded_entries)
      << protocol;
  EXPECT_EQ(outcome.result.attempts, expected.attempts) << protocol;
  EXPECT_EQ(outcome.result.transmitted, expected.transmitted) << protocol;
  if (expected.success) {
    // The recovered set must match the driver's bit for bit, order
    // included: both sides ran the identical deterministic computation.
    EXPECT_EQ(outcome.result.bob_final, expected.bob_final) << protocol;
  }
}

TEST(SyncServerPipeTest, EveryProtocolMatchesInProcessDriver) {
  const PointSet canonical = Canonical(128);
  SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  SyncServer server(canonical, server_options);

  SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const SyncClient client(client_options);

  uint64_t seed = 1000;
  for (const char* protocol : kAllProtocols) {
    const PointSet client_points = DriftedReplica(canonical, ++seed);
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    std::thread server_thread(
        [&server, stream = std::move(server_end)] {
          server.ServeConnection(stream.get());
        });
    const SyncOutcome outcome =
        client.Sync(client_end.get(), protocol, client_points);
    server_thread.join();
    ExpectMatchesInProcess(protocol, outcome,
                           InProcessResult(protocol, client_points, canonical));
    EXPECT_GT(outcome.bytes_sent, 0u) << protocol;
    EXPECT_GT(outcome.bytes_received, 0u) << protocol;
  }

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.CounterValue("rsr_sync_connections_accepted_total"),
            std::size(kAllProtocols));
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  EXPECT_EQ(metrics.SumCounters("rsr_sync_sessions_total"),
            std::size(kAllProtocols));
  EXPECT_GT(metrics.CounterValue("rsr_sync_bytes_total", {{"direction", "in"}}),
            0u);
  EXPECT_GT(
      metrics.CounterValue("rsr_sync_bytes_total", {{"direction", "out"}}),
      0u);
}

TEST(SyncServerTcpTest, EightConcurrentClientsWithMixedProtocols) {
  const PointSet canonical = Canonical(128);
  SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.worker_threads = 4;
  SyncServer server(canonical, server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  ASSERT_GT(server.port(), 0);

  constexpr size_t kClients = 8;
  std::vector<PointSet> client_points(kClients);
  std::vector<SyncOutcome> outcomes(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    client_points[i] = DriftedReplica(canonical, 9000 + i);
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      SyncClientOptions options;
      options.context = Ctx();
      options.params = Params();
      const SyncClient client(options);
      auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
      ASSERT_NE(stream, nullptr);
      outcomes[i] = client.Sync(stream.get(), kAllProtocols[i],
                                client_points[i]);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  size_t expected_successes = 0;
  for (size_t i = 0; i < kClients; ++i) {
    const ReconResult expected =
        InProcessResult(kAllProtocols[i], client_points[i], canonical);
    ExpectMatchesInProcess(kAllProtocols[i], outcomes[i], expected);
    if (expected.success) ++expected_successes;
  }

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.CounterValue("rsr_sync_connections_accepted_total"),
            kClients);
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  EXPECT_EQ(
      metrics.SumCounters("rsr_sync_sessions_total", {{"outcome", "ok"}}),
      expected_successes);
  EXPECT_EQ(metrics.SumCounters("rsr_sync_sessions_total"), kClients);
  for (const std::string name : kAllProtocols) {
    EXPECT_EQ(
        metrics.SumCounters("rsr_sync_sessions_total", {{"protocol", name}}),
        1u)
        << name;
    EXPECT_GT(metrics.CounterValue("rsr_sync_protocol_bytes_total",
                                   {{"protocol", name}, {"direction", "in"}}),
              0u)
        << name;
    EXPECT_GT(metrics.CounterValue("rsr_sync_protocol_bytes_total",
                                   {{"protocol", name}, {"direction", "out"}}),
              0u)
        << name;
    const std::optional<obs::HistogramSnapshot> seconds =
        metrics.SnapshotHistogram("rsr_sync_session_seconds",
                                  {{"protocol", name}});
    ASSERT_TRUE(seconds.has_value()) << name;
    EXPECT_GE(seconds->sum, 0.0) << name;
  }
}

/// Syncs racing a writer on a journaling host: sessions read the pinned
/// (snapshot, replica_seq) pair under the pin lock while ApplyUpdate
/// publishes it. Every batch advances generation and seq by one, so each
/// "@accept" must carry seq == generation, and each result must match the
/// driver on exactly that generation's set. Run under TSan in CI.
template <typename Server, typename Options>
void ExpectPinnedPairsUnderWrites() {
  const PointSet canonical = Canonical(96);
  replica::Changelog changelog;
  Options options;
  options.context = Ctx();
  options.params = Params();
  options.changelog = &changelog;
  Server server(canonical, options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  std::mutex gens_mu;
  std::map<uint64_t, PointSet> gens = {{0, canonical}};
  // The writer keeps applying until every client is done, so sessions
  // pin throughout its batches.
  std::atomic<bool> clients_done{false};
  std::thread writer([&] {
    Rng rng(31);
    PointSet current = canonical;
    for (int batch = 0; batch < 2000 && !clients_done.load(); ++batch) {
      const size_t at = rng.Below(current.size());
      const PointSet erases = {current[at]};
      const PointSet inserts = {workload::PerturbPoint(
          current[at], Ctx().universe, workload::NoiseKind::kGaussian, 3.0,
          &rng)};
      const auto snapshot = server.ApplyUpdate(inserts, erases);
      std::lock_guard<std::mutex> lock(gens_mu);
      gens[snapshot->generation()] = snapshot->points();
      current = snapshot->points();
    }
  });
  constexpr size_t kClients = 4;
  constexpr size_t kSyncs = 5;
  std::vector<PointSet> replicas(kClients);
  std::vector<std::vector<SyncOutcome>> outcomes(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    replicas[i] = DriftedReplica(canonical, 700 + i, 2, 0.5);
    clients.emplace_back([&, i] {
      SyncClientOptions client_options;
      client_options.context = Ctx();
      client_options.params = Params();
      const SyncClient client(client_options);
      for (size_t k = 0; k < kSyncs; ++k) {
        auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
        ASSERT_NE(stream, nullptr);
        outcomes[i].push_back(
            client.Sync(stream.get(), "quadtree", replicas[i]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  clients_done.store(true);
  writer.join();
  server.Stop();

  for (size_t i = 0; i < kClients; ++i) {
    for (const SyncOutcome& outcome : outcomes[i]) {
      ASSERT_TRUE(outcome.handshake_ok) << outcome.error_detail;
      EXPECT_EQ(outcome.server_replica_seq, outcome.server_generation);
      ASSERT_EQ(gens.count(outcome.server_generation), 1u);
      ExpectMatchesInProcess(
          "quadtree", outcome,
          InProcessResult("quadtree", replicas[i],
                          gens.at(outcome.server_generation)));
    }
  }
}

TEST(SyncServerTcpTest, SessionsPinPairedGenerationAndSeqUnderWrites) {
  ExpectPinnedPairsUnderWrites<SyncServer, SyncServerOptions>();
}

TEST(AsyncSyncServerTcpTest, SessionsPinPairedGenerationAndSeqUnderWrites) {
  ExpectPinnedPairsUnderWrites<AsyncSyncServer, AsyncSyncServerOptions>();
}

/// Pumps a session pair in process until Bob is done.
void PumpUntilBobDone(recon::PartySession* alice, recon::PartySession* bob) {
  std::vector<transport::Message> to_bob = alice->Start();
  std::vector<transport::Message> to_alice = bob->Start();
  while (!bob->IsDone() && !(to_bob.empty() && to_alice.empty())) {
    for (transport::Message& m : std::exchange(to_alice, {})) {
      for (transport::Message& r : alice->OnMessage(std::move(m))) {
        to_bob.push_back(std::move(r));
      }
    }
    for (transport::Message& m : std::exchange(to_bob, {})) {
      for (transport::Message& r : bob->OnMessage(std::move(m))) {
        to_alice.push_back(std::move(r));
      }
    }
  }
}

// Every protocol's Bob records S'_B as a repair of his set. The host takes
// it with TakeRepairedSet and ships exactly the bytes PackPoints writes
// for the materialized result; TakeResult then carries no set.
TEST(SyncServerResultTest, RepairedSetShipsTheMaterializedBytes) {
  const PointSet canonical = Canonical(128);
  const PointSet replica = DriftedReplica(canonical, 55);
  for (const char* protocol : kAllProtocols) {
    const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
    const auto alice = reconciler->MakeAliceSession(replica);
    const auto bob = reconciler->MakeBobSession(canonical);
    PumpUntilBobDone(alice.get(), bob.get());
    const std::optional<recon::RepairedSet> repaired = bob->TakeRepairedSet();
    ASSERT_TRUE(repaired.has_value()) << protocol;
    EXPECT_EQ(repaired->base, &canonical) << protocol;
    EXPECT_FALSE(bob->TakeRepairedSet().has_value()) << protocol;
    ResultFrame frame;
    frame.result = bob->TakeResult();
    frame.has_set = true;
    EXPECT_TRUE(frame.result.bob_final.empty()) << protocol;

    const recon::ReconResult& r = frame.result;
    const PointSet materialized = repaired->Materialize();
    BitWriter reference;
    reference.WriteBit(r.success);
    reference.WriteBits(static_cast<uint64_t>(r.error), 8);
    reference.WriteSignedVarint(r.chosen_level);
    reference.WriteVarint(r.decoded_entries);
    reference.WriteVarint(r.attempts);
    reference.WriteVarint(r.transmitted);
    reference.WriteBit(true);
    reference.WriteVarint(materialized.size());
    PackPoints(Ctx().universe, materialized, &reference);
    EXPECT_EQ(EncodeResult(frame, Ctx().universe, *repaired).payload,
              transport::MakeMessage(kResultLabel, std::move(reference))
                  .payload)
        << protocol;
    EXPECT_EQ(materialized, InProcessResult(protocol, replica, canonical)
                                .bob_final)
        << protocol;
  }
}

TEST(SyncServerTcpTest, StopUnblocksSilentClients) {
  SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.worker_threads = 2;
  SyncServer server(Canonical(16), server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  // Three clients connect and then never speak: two pin the workers in
  // their handshake read, one sits in the queue. Stop() must close all of
  // them and return rather than wait forever.
  std::vector<std::unique_ptr<net::TcpStream>> silent;
  for (int i = 0; i < 3; ++i) {
    auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
    ASSERT_NE(stream, nullptr);
    silent.push_back(std::move(stream));
  }
  // Wait until the accept thread has seen them (bounded poll).
  for (int spin = 0; spin < 200; ++spin) {
    if (server.metrics_registry().CounterValue(
            "rsr_sync_connections_accepted_total") == 3) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();  // would hang before streams were closed on shutdown

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  EXPECT_EQ(
      metrics.SumCounters("rsr_sync_sessions_total", {{"outcome", "ok"}}), 0u);
}

TEST(SyncServerHandshakeTest, UnknownProtocolIsRejectedWithProtocolList) {
  // Give the server a registry with a single protocol, so a registry-valid
  // client request is still unknown server-side.
  recon::ProtocolRegistry restricted;
  restricted.Register("full-transfer", "only offering",
                      [](const ProtocolContext& ctx, const ProtocolParams&) {
                        return recon::ProtocolRegistry::Global().Create(
                            "full-transfer", ctx, ProtocolParams{});
                      });

  const PointSet canonical = Canonical(32);
  SyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.registry = &restricted;
  SyncServer server(canonical, server_options);

  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread server_thread([&server, stream = std::move(server_end)] {
    server.ServeConnection(stream.get());
  });

  SyncClientOptions options;
  options.context = Ctx();
  const SyncClient client(options);
  const SyncOutcome outcome =
      client.Sync(client_end.get(), "quadtree", Canonical(32));
  server_thread.join();

  EXPECT_FALSE(outcome.handshake_ok);
  EXPECT_FALSE(outcome.result.success);
  EXPECT_EQ(outcome.result.error, SessionError::kProtocolRejected);
  EXPECT_NE(outcome.reject_reason.find("unknown protocol"), std::string::npos);
  EXPECT_EQ(outcome.server_protocols,
            std::vector<std::string>{"full-transfer"});
  EXPECT_EQ(server.metrics_registry().CounterValue(
                "rsr_sync_handshakes_rejected_total"),
            1u);
  EXPECT_EQ(server.metrics_registry().GaugeValue("rsr_sync_active_sessions"),
            0);
}

TEST(SyncServerHandshakeTest, UnknownLocalProtocolFailsBeforeAnyTraffic) {
  SyncClientOptions options;
  options.context = Ctx();
  const SyncClient client(options);
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  const SyncOutcome outcome =
      client.Sync(client_end.get(), "no-such-protocol", PointSet{});
  EXPECT_FALSE(outcome.handshake_ok);
  EXPECT_EQ(outcome.result.error, SessionError::kProtocolRejected);
  EXPECT_EQ(outcome.bytes_sent, 0u);
}

TEST(SyncServerHandshakeTest, PeerVanishingMidHandshakeIsTransportClosed) {
  SyncClientOptions options;
  options.context = Ctx();
  const SyncClient client(options);
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  server_end->Close();  // server hangs up before answering
  const SyncOutcome outcome =
      client.Sync(client_end.get(), "full-transfer", Canonical(16));
  EXPECT_FALSE(outcome.handshake_ok);
  EXPECT_FALSE(outcome.result.success);
  EXPECT_EQ(outcome.result.error, SessionError::kTransportClosed);
  // The stage is named: with the pipe already closed the failure lands on
  // sending "@hello" — still the handshake, not a mid-session death.
  EXPECT_NE(outcome.error_detail.find("handshake"), std::string::npos);
  EXPECT_NE(outcome.error_detail.find("@hello"), std::string::npos);
}

TEST(SyncServerHandshakeTest, EofAfterHelloIsTransportClosedWithStage) {
  // The server reads the "@hello" and then dies without answering: the
  // client must report kTransportClosed pinned to the handshake stage,
  // not a generic failure.
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread server_thread([stream = std::move(server_end)] {
    net::FramedStream framed(stream.get());
    transport::Message hello;
    ASSERT_EQ(framed.Receive(&hello), net::FramedStream::RecvStatus::kMessage);
    EXPECT_EQ(hello.label, kHelloLabel);
    stream->Close();
  });
  SyncClientOptions options;
  options.context = Ctx();
  const SyncClient client(options);
  const SyncOutcome outcome =
      client.Sync(client_end.get(), "quadtree", Canonical(16));
  server_thread.join();
  EXPECT_FALSE(outcome.handshake_ok);
  EXPECT_FALSE(outcome.result.success);
  EXPECT_EQ(outcome.result.error, SessionError::kTransportClosed);
  EXPECT_NE(outcome.error_detail.find("handshake"), std::string::npos);
  EXPECT_NE(outcome.error_detail.find("@accept"), std::string::npos);
}

TEST(SyncServerHandshakeTest, MidSessionDeathNamesTheSessionStage) {
  // The server completes the handshake and then vanishes: the detail must
  // name the session stage, distinguishing it from a handshake failure.
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread server_thread([stream = std::move(server_end)] {
    net::FramedStream framed(stream.get());
    transport::Message incoming;
    ASSERT_EQ(framed.Receive(&incoming),
              net::FramedStream::RecvStatus::kMessage);
    AcceptFrame ack;
    ack.protocol = "quadtree";
    framed.Send(EncodeAccept(ack));
    stream->Close();
  });
  SyncClientOptions options;
  options.context = Ctx();
  options.params = Params();
  const SyncClient client(options);
  const SyncOutcome outcome =
      client.Sync(client_end.get(), "quadtree", Canonical(16));
  server_thread.join();
  EXPECT_TRUE(outcome.handshake_ok);
  EXPECT_FALSE(outcome.result.success);
  EXPECT_EQ(outcome.result.error, SessionError::kTransportClosed);
  EXPECT_NE(outcome.error_detail.find("session"), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace rsr
