// Async serving-layer integration tests: the epoll-sharded AsyncSyncServer
// over loopback TCP. Asserts (1) a served sync's result — reconciled set
// included — is bit-for-bit identical to the in-process two-party driver
// for EVERY protocol in the registry, (2) two shards sustain 256 genuinely
// concurrent mixed-protocol clients (peak_active_sessions == 256, a state
// a 2-worker threaded host can never reach), (3) per-connection idle
// deadlines surface as SessionError::kTransportClosed, and (4) Stop()
// drains deterministically with silent clients connected and settles a
// pull its puller already closed as ok.

#include <sys/socket.h>

#include <barrier>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sync_client.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace rsr {
namespace server {
namespace {

using recon::ProtocolContext;
using recon::ProtocolParams;
using recon::ReconResult;
using recon::SessionError;

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

PointSet Canonical(size_t n) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(4242);
  return workload::GenerateCloud(spec, &rng);
}

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

ReconResult InProcessResult(const std::string& protocol,
                            const PointSet& client_points,
                            const PointSet& canonical) {
  const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
  transport::Channel channel;
  return reconciler->Run(client_points, canonical, &channel);
}

void ExpectMatchesInProcess(const std::string& protocol,
                            const ReconResult& served,
                            const ReconResult& expected) {
  EXPECT_EQ(served.success, expected.success) << protocol;
  EXPECT_EQ(served.error, expected.error) << protocol;
  EXPECT_EQ(served.chosen_level, expected.chosen_level) << protocol;
  EXPECT_EQ(served.decoded_entries, expected.decoded_entries) << protocol;
  EXPECT_EQ(served.attempts, expected.attempts) << protocol;
  EXPECT_EQ(served.transmitted, expected.transmitted) << protocol;
  if (expected.success) {
    EXPECT_EQ(served.bob_final, expected.bob_final) << protocol;
  }
}

TEST(AsyncServerConformance, EveryRegisteredProtocolMatchesInProcessDriver) {
  const PointSet canonical = Canonical(128);
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.shards = 2;
  AsyncSyncServer server(canonical, server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  ASSERT_GT(server.port(), 0);

  const std::vector<std::string> protocols =
      recon::ProtocolRegistry::Global().ListProtocols();
  ASSERT_FALSE(protocols.empty());

  SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const SyncClient client(client_options);

  uint64_t seed = 5000;
  for (const std::string& protocol : protocols) {
    const PointSet client_points = DriftedReplica(canonical, ++seed);
    auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
    ASSERT_NE(stream, nullptr) << protocol;
    const SyncOutcome outcome =
        client.Sync(stream.get(), protocol, client_points);
    EXPECT_TRUE(outcome.handshake_ok) << protocol;
    ExpectMatchesInProcess(protocol, outcome.result,
                           InProcessResult(protocol, client_points,
                                           canonical));
  }
  server.Stop();

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.CounterValue("rsr_sync_connections_accepted_total"),
            protocols.size());
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  EXPECT_EQ(metrics.SumCounters("rsr_sync_sessions_total"),
            protocols.size());
  for (const std::string& protocol : protocols) {
    EXPECT_EQ(metrics.SumCounters("rsr_sync_sessions_total",
                                  {{"protocol", protocol}}),
              1u)
        << protocol;
  }
  EXPECT_GT(metrics.CounterValue("rsr_sync_bytes_total", {{"direction", "in"}}),
            0u);
  EXPECT_GT(
      metrics.CounterValue("rsr_sync_bytes_total", {{"direction", "out"}}),
      0u);
}

/// A client that handshakes, then waits on `ready` until every other
/// client's session is open before pumping Alice — pinning the number of
/// simultaneously live server-side sessions to the full burst size.
struct GatedClientResult {
  bool ok = false;
  ReconResult result;
};

GatedClientResult GatedSync(uint16_t port, const std::string& protocol,
                            const PointSet& points, std::barrier<>* ready) {
  GatedClientResult out;
  const auto stream = net::TcpStream::Connect("127.0.0.1", port);
  if (stream == nullptr) {
    ready->arrive_and_wait();
    return out;
  }
  net::FramedStream framed(stream.get());
  const auto reconciler =
      recon::MakeReconciler(protocol, Ctx(), Params());
  const std::unique_ptr<recon::PartySession> alice =
      reconciler->MakeAliceSession(points);

  HelloFrame hello;
  hello.protocol = protocol;
  hello.client_set_size = points.size();
  transport::Message incoming;
  AcceptFrame accept;
  const bool handshake_ok =
      framed.Send(EncodeHello(hello)) &&
      framed.Receive(&incoming) == net::FramedStream::RecvStatus::kMessage &&
      DecodeAccept(incoming, &accept);
  // Everyone holds here with a live accepted session: the server provably
  // has the whole burst open at once.
  ready->arrive_and_wait();
  if (!handshake_ok) return out;

  for (transport::Message& opening : alice->Start()) {
    if (!framed.Send(opening)) return out;
  }
  for (size_t deliveries = 0; deliveries < (1u << 16); ++deliveries) {
    if (framed.Receive(&incoming) !=
        net::FramedStream::RecvStatus::kMessage) {
      return out;
    }
    if (incoming.label == kResultLabel) {
      ResultFrame frame;
      if (!DecodeResult(incoming, Ctx().universe, &frame)) return out;
      out.ok = true;
      out.result = std::move(frame.result);
      stream->Close();
      return out;
    }
    for (transport::Message& reply :
         alice->OnMessage(std::move(incoming))) {
      if (!framed.Send(reply)) return out;
    }
  }
  return out;
}

TEST(AsyncServerLoad, TwoShardsSustain256ConcurrentMixedClients) {
  const PointSet canonical = Canonical(128);
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.shards = 2;  // equal total thread count vs 2 workers
  AsyncSyncServer server(canonical, server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  const std::vector<std::string> protocols =
      recon::ProtocolRegistry::Global().ListProtocols();
  constexpr size_t kClients = 256;
  std::vector<PointSet> replicas(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    replicas[i] = DriftedReplica(canonical, 7000 + i);
  }

  std::barrier ready(kClients);
  std::vector<GatedClientResult> outcomes(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      outcomes[i] = GatedSync(server.port(),
                              protocols[i % protocols.size()], replicas[i],
                              &ready);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  for (size_t i = 0; i < kClients; ++i) {
    const std::string& protocol = protocols[i % protocols.size()];
    ASSERT_TRUE(outcomes[i].ok) << "client " << i << " " << protocol;
    ExpectMatchesInProcess(
        protocol, outcomes[i].result,
        InProcessResult(protocol, replicas[i], canonical));
  }

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.CounterValue("rsr_sync_connections_accepted_total"),
            kClients);
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  // The load claim: every client held a live session at the barrier, so
  // the two shards had all 256 open simultaneously.
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions_peak"),
            static_cast<int64_t>(kClients));
  EXPECT_EQ(metrics.SumCounters("rsr_sync_sessions_total"), kClients);
  EXPECT_EQ(metrics.CounterValue("rsr_sync_handshakes_rejected_total"), 0u);
}

TEST(AsyncServerConformance, HalfClosingClientStillGetsItsResult) {
  // A legal TCP client may send its last protocol frame, shutdown its
  // write side, and block reading for "@result". The blocking host serves
  // this (writes to a half-closed socket succeed); the async host must
  // too — the read-side EOF arrives in the same event as the final frame
  // and must not poison the write side.
  const PointSet canonical = Canonical(64);
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.shards = 1;
  AsyncSyncServer server(canonical, server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  const PointSet replica = DriftedReplica(canonical, 31337);
  const auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  net::FramedStream framed(stream.get());
  const auto reconciler =
      recon::MakeReconciler("full-transfer", Ctx(), Params());
  const std::unique_ptr<recon::PartySession> alice =
      reconciler->MakeAliceSession(replica);

  HelloFrame hello;
  hello.protocol = "full-transfer";
  ASSERT_TRUE(framed.Send(EncodeHello(hello)));
  transport::Message incoming;
  ASSERT_EQ(framed.Receive(&incoming),
            net::FramedStream::RecvStatus::kMessage);
  AcceptFrame accept;
  ASSERT_TRUE(DecodeAccept(incoming, &accept));
  for (transport::Message& opening : alice->Start()) {
    ASSERT_TRUE(framed.Send(opening));
  }
  // Half-close: FIN after the last frame, read side stays open.
  ASSERT_EQ(::shutdown(stream->fd(), SHUT_WR), 0);

  ResultFrame frame;
  bool got_result = false;
  while (framed.Receive(&incoming) ==
         net::FramedStream::RecvStatus::kMessage) {
    if (incoming.label == kResultLabel) {
      ASSERT_TRUE(DecodeResult(incoming, Ctx().universe, &frame));
      got_result = true;
      break;
    }
  }
  server.Stop();
  ASSERT_TRUE(got_result);
  ExpectMatchesInProcess("full-transfer", frame.result,
                         InProcessResult("full-transfer", replica,
                                         canonical));
  EXPECT_EQ(server.metrics_registry().SumCounters("rsr_sync_sessions_total",
                                                  {{"outcome", "ok"}}),
            1u);
}

TEST(AsyncServerConformance, LargeResultSurvivesHalfCloseAndTinySendBuffer) {
  // Same half-closing client, but the server's per-connection SO_SNDBUF
  // is squeezed so the "@result" frame cannot fit in one kernel write:
  // the EOF and the final protocol frame arrive together, the result
  // flushes across many partial writes, and the connection must stay
  // open (kWritable-only) until the flush drains rather than truncating.
  const PointSet canonical = Canonical(4096);
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.shards = 1;
  server_options.so_sndbuf = 2048;  // kernel doubles this; still tiny
  AsyncSyncServer server(canonical, server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  const PointSet replica = DriftedReplica(canonical, 424242);
  const auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  net::FramedStream framed(stream.get());
  const auto reconciler =
      recon::MakeReconciler("full-transfer", Ctx(), Params());
  const std::unique_ptr<recon::PartySession> alice =
      reconciler->MakeAliceSession(replica);

  HelloFrame hello;
  hello.protocol = "full-transfer";
  ASSERT_TRUE(framed.Send(EncodeHello(hello)));
  transport::Message incoming;
  ASSERT_EQ(framed.Receive(&incoming),
            net::FramedStream::RecvStatus::kMessage);
  AcceptFrame accept;
  ASSERT_TRUE(DecodeAccept(incoming, &accept));
  for (transport::Message& opening : alice->Start()) {
    ASSERT_TRUE(framed.Send(opening));
  }
  ASSERT_EQ(::shutdown(stream->fd(), SHUT_WR), 0);

  ResultFrame frame;
  bool got_result = false;
  while (framed.Receive(&incoming) ==
         net::FramedStream::RecvStatus::kMessage) {
    if (incoming.label == kResultLabel) {
      ASSERT_TRUE(DecodeResult(incoming, Ctx().universe, &frame));
      got_result = true;
      break;
    }
  }
  server.Stop();
  ASSERT_TRUE(got_result);
  ExpectMatchesInProcess("full-transfer", frame.result,
                         InProcessResult("full-transfer", replica,
                                         canonical));
  EXPECT_EQ(server.metrics_registry().SumCounters("rsr_sync_sessions_total",
                                                  {{"outcome", "ok"}}),
            1u);
}

TEST(AsyncServerIdle, MidSessionSilenceSurfacesAsTransportClosed) {
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.shards = 1;
  server_options.idle_timeout = std::chrono::milliseconds(100);
  AsyncSyncServer server(Canonical(32), server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  const auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  net::FramedStream framed(stream.get());
  HelloFrame hello;
  hello.protocol = "quadtree";
  ASSERT_TRUE(framed.Send(EncodeHello(hello)));
  transport::Message incoming;
  ASSERT_EQ(framed.Receive(&incoming),
            net::FramedStream::RecvStatus::kMessage);
  AcceptFrame accept;
  ASSERT_TRUE(DecodeAccept(incoming, &accept));

  // ... and then never send a protocol frame. The idle deadline must fail
  // the session as kTransportClosed: either the best-effort "@result"
  // carrying that error arrives, or the server just hangs up.
  SessionError observed = SessionError::kNone;
  for (;;) {
    const auto status = framed.Receive(&incoming);
    if (status != net::FramedStream::RecvStatus::kMessage) {
      observed = framed.error();
      break;
    }
    if (incoming.label == kResultLabel) {
      ResultFrame frame;
      ASSERT_TRUE(DecodeResult(incoming, Ctx().universe, &frame));
      EXPECT_FALSE(frame.result.success);
      observed = frame.result.error;
      break;
    }
    // Skip Bob's opening frames (none for quadtree, but stay robust).
  }
  EXPECT_EQ(observed, SessionError::kTransportClosed);
  server.Stop();

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.CounterValue("rsr_sync_idle_timeouts_total"), 1u);
  EXPECT_EQ(
      metrics.SumCounters("rsr_sync_sessions_total", {{"outcome", "fail"}}),
      1u);
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
}

TEST(AsyncServerIdle, SilentHandshakeIsClosedWithoutAReject) {
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.shards = 1;
  server_options.idle_timeout = std::chrono::milliseconds(80);
  AsyncSyncServer server(Canonical(16), server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  const auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  uint8_t byte = 0;
  // The server hangs up on the mute connection; a blocking read observes
  // EOF (or ECONNRESET, also fine — the point is the close).
  EXPECT_LE(stream->Read(&byte, 1), 0);
  server.Stop();

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.CounterValue("rsr_sync_connections_accepted_total"), 1u);
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  EXPECT_EQ(metrics.CounterValue("rsr_sync_handshakes_rejected_total"), 0u);
  EXPECT_EQ(metrics.CounterValue("rsr_sync_idle_timeouts_total"), 1u);
  EXPECT_EQ(metrics.SumCounters("rsr_sync_sessions_total"), 0u);
}

TEST(AsyncServerHandshake, UnknownProtocolRejectedWithProtocolList) {
  recon::ProtocolRegistry restricted;
  restricted.Register("full-transfer", "only offering",
                      [](const ProtocolContext& ctx, const ProtocolParams&) {
                        return recon::ProtocolRegistry::Global().Create(
                            "full-transfer", ctx, ProtocolParams{});
                      });

  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.registry = &restricted;
  server_options.shards = 1;
  AsyncSyncServer server(Canonical(32), server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  SyncClientOptions options;
  options.context = Ctx();
  const SyncClient client(options);
  const auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  const SyncOutcome outcome =
      client.Sync(stream.get(), "quadtree", Canonical(32));
  server.Stop();

  EXPECT_FALSE(outcome.handshake_ok);
  EXPECT_EQ(outcome.result.error, SessionError::kProtocolRejected);
  EXPECT_NE(outcome.reject_reason.find("unknown protocol"),
            std::string::npos);
  EXPECT_EQ(outcome.server_protocols,
            std::vector<std::string>{"full-transfer"});
  EXPECT_EQ(server.metrics_registry().CounterValue(
                "rsr_sync_handshakes_rejected_total"),
            1u);
  EXPECT_EQ(server.metrics_registry().GaugeValue("rsr_sync_active_sessions"),
            0);
}

TEST(AsyncServerStop, StopWithSilentClientsDrainsDeterministically) {
  AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.shards = 2;
  AsyncSyncServer server(Canonical(16), server_options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  std::vector<std::unique_ptr<net::TcpStream>> silent;
  for (int i = 0; i < 5; ++i) {
    auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
    ASSERT_NE(stream, nullptr);
    silent.push_back(std::move(stream));
  }
  for (int spin = 0; spin < 400; ++spin) {
    if (server.metrics_registry().CounterValue(
            "rsr_sync_connections_accepted_total") == 5) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.metrics_registry().CounterValue(
                "rsr_sync_connections_accepted_total"),
            5u);
  server.Stop();  // must not hang on the mute connections

  const obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  EXPECT_EQ(
      metrics.SumCounters("rsr_sync_sessions_total", {{"outcome", "ok"}}), 0u);
}

TEST(AsyncServerStop, StopAfterACleanPullCountsItOk) {
  // A "@pull" ends with the puller's clean close. Stop right behind that
  // close must read the EOF that already arrived and settle the pull ok,
  // not fail it as a connection still open — every time.
  const PointSet canonical = Canonical(64);
  const PointSet stale = DriftedReplica(canonical, 4711);
  const auto reconciler =
      recon::MakeReconciler("full-transfer", Ctx(), Params());
  for (int round = 0; round < 200; ++round) {
    AsyncSyncServerOptions server_options;
    server_options.context = Ctx();
    server_options.params = Params();
    server_options.shards = 1;
    AsyncSyncServer server(canonical, server_options);
    ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));
    {
      const auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
      ASSERT_NE(stream, nullptr);
      net::FramedStream framed(stream.get());
      PullFrame pull;
      pull.protocol = "full-transfer";
      ASSERT_TRUE(framed.Send(EncodePull(pull)));
      transport::Message incoming;
      ASSERT_EQ(framed.Receive(&incoming),
                net::FramedStream::RecvStatus::kMessage);
      PullAcceptFrame accept;
      ASSERT_TRUE(DecodePullAccept(incoming, &accept));
      // The puller runs Bob over its stale set; the host's Alice ships
      // the whole set in one frame.
      const std::unique_ptr<recon::PartySession> bob =
          reconciler->MakeBobSession(stale);
      ASSERT_TRUE(bob->Start().empty());
      ASSERT_EQ(framed.Receive(&incoming),
                net::FramedStream::RecvStatus::kMessage);
      ASSERT_TRUE(bob->OnMessage(std::move(incoming)).empty());
      ASSERT_TRUE(bob->IsDone());
      ASSERT_TRUE(bob->TakeResult().success);
    }  // the puller's clean close
    server.Stop();
    const obs::MetricsRegistry& metrics = server.metrics_registry();
    EXPECT_EQ(metrics.CounterValue(
                  "rsr_sync_sessions_total",
                  {{"protocol", "@pull:full-transfer"}, {"outcome", "ok"}}),
              1u)
        << "round " << round;
    EXPECT_EQ(metrics.GaugeValue("rsr_sync_active_sessions"), 0);
  }
}

}  // namespace
}  // namespace server
}  // namespace rsr
