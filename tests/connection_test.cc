// The sans-IO verb state machine (server/connection.h), driven frame by
// frame with no socket: every registry protocol's hello → accept →
// protocol frames → result path against recon::DrivePair, the rejects
// (a single-grid level beyond a small universe's grid included),
// the mid-session failure modes (control label, delivery bound, EOF),
// "@stats", "@log-fetch", "@pull" ended by the puller's close, and
// hostile wire counts that must fail as malformed instead of allocating.
// Then the host's two ways of feeding that Connection — the blocking pump
// over pipes and the reactor over TCP — must ship the "@result" bytes the
// sans-IO connection ships, match recon::DrivePair and settle the same
// per-protocol session counts, and both survive a hostile riblt-oneshot
// set size.

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "recon/exact_recon.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/changelog.h"
#include "replica/replica_node.h"
#include "riblt/riblt_recon.h"
#include "server/async_sync_server.h"
#include "server/connection.h"
#include "server/handshake.h"
#include "transport/channel.h"
#include "util/bitio.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rsr {
namespace server {
namespace {

using recon::ProtocolContext;
using recon::ProtocolParams;
using recon::ProtocolRegistry;
using recon::ReconResult;
using recon::SessionError;
using transport::Message;

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

PointSet Cloud(size_t n, uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(seed);
  return workload::GenerateCloud(spec, &rng);
}

/// Same size as `base`, every point perturbed, a few replaced: the shape
/// of drift every protocol (EMD-model ones included) reconciles.
PointSet Drifted(const PointSet& base, uint64_t seed) {
  Rng rng(seed);
  PointSet out;
  for (const Point& p : base) {
    out.push_back(workload::PerturbPoint(
        p, Ctx().universe, workload::NoiseKind::kGaussian, 1.0, &rng));
  }
  for (size_t i = 0; i < 4; ++i) {
    Point fresh(Ctx().universe.d);
    for (int64_t& c : fresh) {
      c = static_cast<int64_t>(rng.Below(Ctx().universe.delta));
    }
    out[rng.Below(out.size())] = std::move(fresh);
  }
  return out;
}

AsyncSyncServerOptions HostOptions() {
  AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  return options;
}

ReconResult DriverResult(const std::string& protocol, const PointSet& alice,
                         const PointSet& bob,
                         const ProtocolContext& ctx = Ctx()) {
  const auto reconciler = recon::MakeReconciler(protocol, ctx, Params());
  transport::Channel channel;
  return reconciler->Run(alice, bob, &channel);
}

Message Hello(const std::string& protocol) {
  HelloFrame hello;
  hello.protocol = protocol;
  return EncodeHello(hello);
}

/// Feeds `frame` and returns what the connection answered.
std::vector<Message> Feed(Connection* conn, Message frame) {
  conn->OnFrame(std::move(frame));
  return conn->TakeOutbox();
}

uint64_t Sessions(const CanonicalHost& host, const std::string& protocol,
                  const char* outcome) {
  return host.metrics_registry().CounterValue(
      "rsr_sync_sessions_total",
      {{"protocol", protocol}, {"outcome", outcome}});
}

/// What a client saw of one served sync.
struct Served {
  AcceptFrame accept;
  Message result;  ///< The raw "@result" frame.
};

/// The client side of a sync with no transport: Alice over `points`,
/// frames exchanged with `conn` in FIFO order until "@result", then the
/// client's close. Returns nullopt if the handshake did not succeed.
std::optional<Served> DriveSync(Connection* conn, const std::string& protocol,
                                const PointSet& points,
                                const ProtocolContext& ctx = Ctx()) {
  std::deque<Message> to_client;
  const auto feed = [&](Message frame) {
    for (Message& out : Feed(conn, std::move(frame))) {
      to_client.push_back(std::move(out));
    }
  };
  feed(Hello(protocol));
  Served served;
  if (to_client.empty() || !DecodeAccept(to_client.front(), &served.accept)) {
    return std::nullopt;
  }
  to_client.pop_front();
  const auto reconciler = recon::MakeReconciler(protocol, ctx, Params());
  const auto alice = reconciler->MakeAliceSession(points);
  for (Message& opening : alice->Start()) feed(std::move(opening));
  while (!to_client.empty()) {
    Message frame = std::move(to_client.front());
    to_client.pop_front();
    if (frame.label == kResultLabel) {
      served.result = std::move(frame);
      conn->OnStreamEnd(SessionError::kNone);  // the client closes
      return served;
    }
    for (Message& reply : alice->OnMessage(std::move(frame))) {
      feed(std::move(reply));
    }
  }
  return std::nullopt;
}

ResultFrame DecodedResult(const Message& frame,
                          const Universe& universe = Ctx().universe) {
  ResultFrame result;
  EXPECT_TRUE(DecodeResult(frame, universe, &result)) << frame.label;
  return result;
}

void ExpectMatchesDriver(const std::string& protocol, const ReconResult& got,
                         const ReconResult& want) {
  EXPECT_EQ(got.success, want.success) << protocol;
  EXPECT_EQ(got.error, want.error) << protocol;
  EXPECT_EQ(got.chosen_level, want.chosen_level) << protocol;
  EXPECT_EQ(got.decoded_entries, want.decoded_entries) << protocol;
  EXPECT_EQ(got.attempts, want.attempts) << protocol;
  EXPECT_EQ(got.transmitted, want.transmitted) << protocol;
  if (want.success) {
    EXPECT_EQ(got.bob_final, want.bob_final) << protocol;
  }
}

TEST(ConnectionTest, EveryProtocolMatchesDrivePair) {
  const PointSet canonical = Cloud(128, 4242);
  AsyncSyncServer host(canonical, HostOptions());
  uint64_t seed = 1000;
  for (const std::string& protocol :
       ProtocolRegistry::Global().ListProtocols()) {
    const PointSet client = Drifted(canonical, ++seed);
    Connection conn(&host);
    const std::optional<Served> served = DriveSync(&conn, protocol, client);
    ASSERT_TRUE(served.has_value()) << protocol;
    EXPECT_EQ(served->accept.protocol, protocol);
    EXPECT_EQ(served->accept.server_set_size, canonical.size());
    EXPECT_TRUE(conn.done()) << protocol;
    EXPECT_TRUE(conn.TakeOutbox().empty()) << protocol;
    conn.OnClosed(0, 0);

    const ReconResult want = DriverResult(protocol, client, canonical);
    ExpectMatchesDriver(protocol, DecodedResult(served->result).result, want);
    EXPECT_EQ(Sessions(host, protocol, want.success ? "ok" : "fail"), 1u)
        << protocol;
  }
  EXPECT_EQ(host.metrics_registry().GaugeValue("rsr_sync_active_sessions"),
            0);
}

TEST(ConnectionTest, MalformedOrUnknownFirstFrameIsRejected) {
  AsyncSyncServer host(Cloud(32, 1), HostOptions());
  const std::vector<std::string> protocols =
      ProtocolRegistry::Global().ListProtocols();
  const auto expect_reject = [&](Message first, const std::string& reason) {
    Connection conn(&host);
    const std::vector<Message> out = Feed(&conn, std::move(first));
    ASSERT_EQ(out.size(), 1u);
    RejectFrame reject;
    ASSERT_TRUE(DecodeReject(out[0], &reject)) << out[0].label;
    EXPECT_NE(reject.reason.find(reason), std::string::npos) << reject.reason;
    EXPECT_EQ(reject.protocols, protocols);
    EXPECT_TRUE(conn.done());
  };
  expect_reject(Message{"garbage", {}, 0}, "expected a well-formed @hello");
  expect_reject(Hello("no-such-protocol"),
                "unknown protocol \"no-such-protocol\"");
  expect_reject(Message{kPullLabel, {}, 0}, "malformed @pull frame");
  PullFrame pull;
  pull.protocol = "no-such-protocol";
  expect_reject(EncodePull(pull), "unknown protocol");
  EXPECT_EQ(host.metrics_registry().CounterValue(
                "rsr_sync_handshakes_rejected_total"),
            4u);
  EXPECT_EQ(host.metrics_registry().SumCounters("rsr_sync_sessions_total"), 0u);
}

TEST(ConnectionTest, SingleGridLevelBeyondTheGridIsRejected) {
  // Δ = 16: grid levels 0..4, below single-grid's default forced level 6.
  // A client that pipelines a protocol frame behind its "@hello" gets a
  // "@reject" (the frame is ignored, no session ever runs), and the host
  // then serves a clean quadtree sync.
  ProtocolContext ctx = Ctx();
  ctx.universe = MakeUniverse(16, 2);
  AsyncSyncServerOptions options = HostOptions();
  options.context = ctx;
  Rng rng(16);
  PointSet canonical(48), client(48);
  for (PointSet* set : {&canonical, &client}) {
    for (Point& p : *set) {
      p = {static_cast<int64_t>(rng.Below(16)),
           static_cast<int64_t>(rng.Below(16))};
    }
  }
  AsyncSyncServer host(canonical, options);
  {
    Connection conn(&host);
    const std::vector<Message> out = Feed(&conn, Hello("single-grid"));
    BitWriter levels;
    levels.WriteBits(0xffff, 16);
    EXPECT_TRUE(
        Feed(&conn, transport::MakeMessage("qt-levels", std::move(levels)))
            .empty());
    ASSERT_EQ(out.size(), 1u);
    RejectFrame reject;
    ASSERT_TRUE(DecodeReject(out[0], &reject)) << out[0].label;
    EXPECT_NE(reject.reason.find("\"single-grid\""), std::string::npos)
        << reject.reason;
    EXPECT_EQ(reject.protocols, ProtocolRegistry::Global().ListProtocols());
    EXPECT_TRUE(conn.done());
  }
  EXPECT_EQ(host.metrics_registry().CounterValue(
                "rsr_sync_handshakes_rejected_total"),
            1u);

  Connection conn(&host);
  const std::optional<Served> served =
      DriveSync(&conn, "quadtree", client, ctx);
  ASSERT_TRUE(served.has_value());
  conn.OnClosed(0, 0);
  const ReconResult want = DriverResult("quadtree", client, canonical, ctx);
  EXPECT_TRUE(want.success);
  ExpectMatchesDriver("quadtree",
                      DecodedResult(served->result, ctx.universe).result,
                      want);
  EXPECT_EQ(Sessions(host, "quadtree", "ok"), 1u);
  EXPECT_EQ(host.metrics_registry().SumCounters("rsr_sync_sessions_total"),
            1u);
}

/// Opens an exact-iblt session (Bob ships its strata at Start, then waits
/// for Alice's table) and returns the connection mid-session.
std::unique_ptr<Connection> OpenExactSession(CanonicalHost* host) {
  auto conn = std::make_unique<Connection>(host);
  const std::vector<Message> out = Feed(conn.get(), Hello("exact-iblt"));
  EXPECT_EQ(out.size(), 2u);  // "@accept", then Bob's strata
  EXPECT_EQ(out.at(0).label, kAcceptLabel);
  EXPECT_FALSE(conn->done());
  return conn;
}

/// The one "@result" the connection produced; its error.
SessionError ResultError(const std::vector<Message>& out) {
  EXPECT_EQ(out.size(), 1u);
  if (out.empty()) return SessionError::kNone;
  EXPECT_EQ(out.back().label, kResultLabel);
  const ResultFrame result = DecodedResult(out.back());
  EXPECT_FALSE(result.result.success);
  EXPECT_FALSE(result.has_set);
  return result.result.error;
}

TEST(ConnectionTest, ControlLabelMidSessionIsUnexpected) {
  AsyncSyncServer host(Cloud(32, 1), HostOptions());
  const auto conn = OpenExactSession(&host);
  EXPECT_EQ(ResultError(Feed(conn.get(), Hello("exact-iblt"))),
            SessionError::kUnexpectedMessage);
  EXPECT_FALSE(conn->done());  // draining until the client closes
  conn->OnStreamEnd(SessionError::kNone);
  EXPECT_TRUE(conn->done());
  conn->OnClosed(0, 0);
  EXPECT_EQ(Sessions(host, "exact-iblt", "fail"), 1u);
}

TEST(ConnectionTest, DeliveryBoundStalls) {
  AsyncSyncServerOptions options = HostOptions();
  options.max_deliveries = 0;
  AsyncSyncServer host(Cloud(32, 1), options);
  const auto conn = OpenExactSession(&host);
  EXPECT_EQ(ResultError(Feed(conn.get(), Message{"exact-iblt", {}, 0})),
            SessionError::kStalled);
  // The drain is bounded by the same knob: the next frame closes.
  Feed(conn.get(), Message{"late", {}, 0});
  EXPECT_TRUE(conn->done());
}

TEST(ConnectionTest, StreamEndMidSessionFailsWithTheTransportError) {
  AsyncSyncServer host(Cloud(32, 1), HostOptions());
  {
    const auto conn = OpenExactSession(&host);
    conn->OnStreamEnd(SessionError::kNone);  // clean EOF between frames
    EXPECT_EQ(ResultError(conn->TakeOutbox()),
              SessionError::kTransportClosed);
    EXPECT_TRUE(conn->done());
  }
  {
    const auto conn = OpenExactSession(&host);
    conn->OnStreamEnd(SessionError::kMalformedMessage);  // truncated frame
    EXPECT_EQ(ResultError(conn->TakeOutbox()),
              SessionError::kMalformedMessage);
  }
  {
    // Closed by the host (a failed send, or shutdown): no one to ship a
    // result to, and the session still settles as failed.
    const auto conn = OpenExactSession(&host);
    conn->OnClosed(10, 20);
    EXPECT_TRUE(conn->TakeOutbox().empty());
  }
  // The truncated frame is the peer's fault, counted apart as malformed.
  EXPECT_EQ(Sessions(host, "exact-iblt", "fail"), 2u);
  EXPECT_EQ(Sessions(host, "exact-iblt", "malformed"), 1u);
  EXPECT_EQ(host.metrics_registry().GaugeValue("rsr_sync_active_sessions"),
            0);
}

TEST(ConnectionTest, IdleTimeoutShipsAFailureResultAndCounts) {
  AsyncSyncServer host(Cloud(32, 1), HostOptions());
  const auto conn = OpenExactSession(&host);
  conn->OnIdleTimeout();
  EXPECT_EQ(ResultError(conn->TakeOutbox()), SessionError::kTransportClosed);
  EXPECT_TRUE(conn->done());
  conn->OnClosed(0, 0);
  EXPECT_EQ(
      host.metrics_registry().CounterValue("rsr_sync_idle_timeouts_total"),
      1u);
}

TEST(ConnectionTest, StatsAnswersTheExposition) {
  AsyncSyncServer host(Cloud(32, 1), HostOptions());
  Connection conn(&host);
  const std::vector<Message> out = Feed(&conn, EncodeStatsRequest());
  ASSERT_EQ(out.size(), 1u);
  std::string text;
  ASSERT_TRUE(DecodeStatsReply(out[0], &text));
  EXPECT_NE(text.find("rsr_sync_connections_accepted_total 1"),
            std::string::npos)
      << text;
  EXPECT_FALSE(conn.done());
  conn.OnStreamEnd(SessionError::kNone);
  EXPECT_TRUE(conn.done());
  conn.OnClosed(0, 0);
  EXPECT_EQ(Sessions(host, kStatsLabel, "ok"), 1u);
}

TEST(ConnectionTest, LogFetchServesTheTailAndRejectsMalformedFrames) {
  replica::Changelog changelog;
  AsyncSyncServerOptions options = HostOptions();
  options.changelog = &changelog;
  AsyncSyncServer host(Cloud(64, 2), options);
  Rng rng(5);
  workload::ChurnSpec churn;
  churn.fraction = 0.0;
  churn.min_updates = 1;
  for (int i = 0; i < 2; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        host.canonical(), Ctx().universe, churn, &rng);
    host.ApplyUpdate(batch.inserts, batch.erases);
  }
  {
    Connection conn(&host);
    const std::vector<Message> out =
        Feed(&conn, Message{kLogFetchLabel, {0xff}, 3});
    ASSERT_EQ(out.size(), 1u);
    RejectFrame reject;
    ASSERT_TRUE(DecodeReject(out[0], &reject));
    EXPECT_EQ(reject.reason, "malformed @log-fetch frame");
    EXPECT_TRUE(conn.done());
  }
  {
    Connection conn(&host);
    LogFetchFrame fetch;
    fetch.from_seq = 1;
    const std::vector<Message> out = Feed(&conn, EncodeLogFetch(fetch));
    ASSERT_EQ(out.size(), 1u);
    LogBatchFrame batch;
    ASSERT_TRUE(DecodeLogBatch(out[0], Ctx().universe,
                               recon::ExactReconStrataConfig(Ctx().seed),
                               &batch));
    EXPECT_TRUE(batch.ok);
    EXPECT_EQ(batch.last_seq, 2u);
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].seq, 2u);
    conn.OnStreamEnd(SessionError::kNone);
  }
  EXPECT_EQ(host.metrics_registry().CounterValue(
                "rsr_sync_handshakes_rejected_total"),
            1u);
  EXPECT_EQ(Sessions(host, kLogFetchLabel, "ok"), 1u);
}

TEST(ConnectionTest, LogBatchWithWrappingCountsIsMalformed) {
  // inserts + erases wraps to 0 here, so a summed bound would pass this
  // few-byte frame and reserve 2^64 - 1 points.
  BitWriter w;
  w.WriteBit(true);  // ok
  w.WriteBit(true);  // complete
  w.WriteVarint(1);  // last_seq
  w.WriteVarint(1);  // one entry
  w.WriteVarint(1);  // seq
  w.WriteVarint(~uint64_t{0});  // inserts
  w.WriteVarint(1);             // erases
  LogBatchFrame batch;
  EXPECT_FALSE(DecodeLogBatch(
      transport::MakeMessage(kLogBatchLabel, std::move(w)), Ctx().universe,
      recon::ExactReconStrataConfig(Ctx().seed), &batch));
}

TEST(ConnectionTest, PullHostsAliceUntilThePullerCloses) {
  replica::Changelog changelog;
  AsyncSyncServerOptions options = HostOptions();
  options.changelog = &changelog;
  const PointSet start = Cloud(64, 3);
  AsyncSyncServer host(start, options);
  Rng rng(6);
  workload::ChurnSpec churn;
  churn.fraction = 0.0;
  churn.min_updates = 1;
  for (int i = 0; i < 3; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        host.canonical(), Ctx().universe, churn, &rng);
    host.ApplyUpdate(batch.inserts, batch.erases);
  }

  for (const char* protocol : {"riblt-oneshot", "full-transfer"}) {
    Connection conn(&host);
    PullFrame pull;
    pull.protocol = protocol;
    std::deque<Message> to_puller;
    for (Message& out : Feed(&conn, EncodePull(pull))) {
      to_puller.push_back(std::move(out));
    }
    PullAcceptFrame accept;
    ASSERT_TRUE(DecodePullAccept(to_puller.front(), &accept)) << protocol;
    to_puller.pop_front();
    EXPECT_EQ(accept.seq, 3u);
    EXPECT_FALSE(accept.dirty);
    EXPECT_EQ(accept.server_set_size, host.canonical().size());

    // The puller runs Bob over its stale set, toward the host's.
    const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
    const auto bob = reconciler->MakeBobSession(start);
    for (Message& opening : bob->Start()) {
      for (Message& out : Feed(&conn, std::move(opening))) {
        to_puller.push_back(std::move(out));
      }
    }
    while (!bob->IsDone() && !to_puller.empty()) {
      Message frame = std::move(to_puller.front());
      to_puller.pop_front();
      for (Message& reply : bob->OnMessage(std::move(frame))) {
        for (Message& out : Feed(&conn, std::move(reply))) {
          to_puller.push_back(std::move(out));
        }
      }
    }
    ASSERT_TRUE(bob->IsDone()) << protocol;
    const ReconResult result = bob->TakeResult();
    ASSERT_TRUE(result.success) << protocol;
    EXPECT_EQ(replica::SetDivergence(result.bob_final, host.canonical()), 0u);
    // Alice has no terminal frame: the pull ends with the puller's close.
    EXPECT_FALSE(conn.done());
    conn.OnStreamEnd(SessionError::kNone);
    EXPECT_TRUE(conn.done());
    conn.OnClosed(0, 0);
    EXPECT_EQ(Sessions(host, std::string("@pull:") + protocol, "ok"), 1u);
  }

  // A pull whose transport breaks instead of closing cleanly fails.
  Connection conn(&host);
  PullFrame pull;
  pull.protocol = "riblt-oneshot";
  Feed(&conn, EncodePull(pull));
  conn.OnStreamEnd(SessionError::kTransportClosed);
  conn.OnClosed(0, 0);
  EXPECT_EQ(Sessions(host, "@pull:riblt-oneshot", "fail"), 1u);
}

/// `label` carrying just a varint of 2^40 where a cell or point count
/// belongs: a few bytes that once sized a multi-terabyte allocation.
Message HostileCount(const std::string& label) {
  BitWriter w;
  w.WriteVarint(uint64_t{1} << 40);
  return transport::MakeMessage(label, std::move(w));
}

TEST(ConnectionTest, HostileWireCountsFailMalformedWithoutAllocating) {
  const PointSet canonical = Cloud(64, 7);
  AsyncSyncServer host(canonical, HostOptions());
  {
    // exact-iblt: Alice's table frame opens with its cell count.
    const auto conn = OpenExactSession(&host);
    EXPECT_EQ(ResultError(Feed(conn.get(), HostileCount("exact-iblt"))),
              SessionError::kMalformedMessage);
  }
  {
    // full-transfer: Alice's only frame opens with her point count.
    Connection conn(&host);
    const std::vector<Message> accepted =
        Feed(&conn, Hello("full-transfer"));
    ASSERT_EQ(accepted.size(), 1u);
    EXPECT_EQ(ResultError(Feed(&conn, HostileCount("full-transfer"))),
              SessionError::kMalformedMessage);
  }
  EXPECT_EQ(Sessions(host, "exact-iblt", "malformed"), 1u);
  EXPECT_EQ(Sessions(host, "full-transfer", "malformed"), 1u);

  // The host is unharmed: a clean sync right after matches the driver.
  for (const char* protocol : {"exact-iblt", "full-transfer"}) {
    const PointSet client = Drifted(canonical, 99);
    Connection conn(&host);
    const std::optional<Served> served = DriveSync(&conn, protocol, client);
    ASSERT_TRUE(served.has_value()) << protocol;
    ExpectMatchesDriver(protocol, DecodedResult(served->result).result,
                        DriverResult(protocol, client, canonical));
  }
}

/// Bob's "qt-level-request" for a table of `cells` cells at `level`.
Message LevelRequest(uint64_t level, uint64_t cells, uint64_t attempt) {
  BitWriter w;
  w.WriteVarint(level);
  w.WriteVarint(cells);
  w.WriteVarint(attempt);
  return transport::MakeMessage("qt-level-request", std::move(w));
}

TEST(ConnectionTest, HostilePullRequestsFailThePull) {
  // "@pull" makes the host Alice, serving the puller's requests: each is
  // checked before a cell is allocated.
  const PointSet canonical = Cloud(64, 7);
  AsyncSyncServer host(canonical, HostOptions());
  const ShiftedGrid grid(Ctx().universe, Ctx().seed);
  const uint64_t probed = static_cast<uint64_t>(
      recon::ProtocolLevels(grid, Params().Resolved().quadtree).front());
  const uint64_t unprobed = static_cast<uint64_t>(grid.max_level()) + 1;
  const std::pair<std::string, Message> hostile[] = {
      // quadtree-adaptive: a level never probed, nor any such level, an
      // attempt past max_attempts (3), and a table beyond one frame.
      {"quadtree-adaptive", LevelRequest(unprobed, 64, 0)},
      {"quadtree-adaptive", LevelRequest(uint64_t{1} << 40, 64, 0)},
      {"quadtree-adaptive", LevelRequest(probed, 64, 3)},
      {"quadtree-adaptive", LevelRequest(probed, uint64_t{1} << 40, 0)},
      // gap-lattice: Bob's table frame opens with its cell count.
      {"gap-lattice", HostileCount("gap-iblt")},
  };
  for (const auto& [protocol, request] : hostile) {
    Connection conn(&host);
    PullFrame pull;
    pull.protocol = protocol;
    const std::vector<Message> opened = Feed(&conn, EncodePull(pull));
    ASSERT_EQ(opened.size(), 2u) << protocol;  // accept, Alice's opening
    EXPECT_TRUE(Feed(&conn, request).empty()) << protocol;
    EXPECT_TRUE(conn.done()) << protocol;
    conn.OnClosed(0, 0);
  }
  EXPECT_EQ(Sessions(host, "@pull:quadtree-adaptive", "malformed"), 4u);
  EXPECT_EQ(Sessions(host, "@pull:gap-lattice", "malformed"), 1u);
  EXPECT_EQ(host.metrics_registry().SumCounters("rsr_sync_sessions_total",
                                                {{"outcome", "ok"}}),
            0u);

  // The host is unharmed: a clean sync right after matches the driver.
  const PointSet client = Drifted(canonical, 99);
  Connection conn(&host);
  const std::optional<Served> served =
      DriveSync(&conn, "quadtree-adaptive", client);
  ASSERT_TRUE(served.has_value());
  ExpectMatchesDriver("quadtree-adaptive",
                      DecodedResult(served->result).result,
                      DriverResult("quadtree-adaptive", client, canonical));
}

// --------------------------------------------- pipe and TCP, one core

/// A raw client over any stream: hello, Alice's pump, and the "@result"
/// frame exactly as it came off the wire.
std::optional<Message> WireSync(net::ByteStream* stream,
                                const std::string& protocol,
                                const PointSet& points) {
  net::FramedStream framed(stream);
  Message frame;
  if (!framed.Send(Hello(protocol)) ||
      framed.Receive(&frame) != net::FramedStream::RecvStatus::kMessage ||
      frame.label != kAcceptLabel) {
    return std::nullopt;
  }
  const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
  const auto alice = reconciler->MakeAliceSession(points);
  for (const Message& opening : alice->Start()) {
    if (!framed.Send(opening)) return std::nullopt;
  }
  while (framed.Receive(&frame) == net::FramedStream::RecvStatus::kMessage) {
    if (frame.label == kResultLabel) {
      stream->Close();
      return frame;
    }
    for (const Message& reply : alice->OnMessage(std::move(frame))) {
      if (!framed.Send(reply)) return std::nullopt;
    }
  }
  return std::nullopt;
}

bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(ConnectionHostsTest, PipeAndTcpShipTheSansIoResult) {
  const PointSet canonical = Cloud(96, 4242);
  AsyncSyncServerOptions options = HostOptions();
  options.shards = 1;
  AsyncSyncServer host(canonical, options);
  ASSERT_TRUE(host.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  AsyncSyncServer direct(canonical, HostOptions());

  const std::vector<std::string> protocols =
      ProtocolRegistry::Global().ListProtocols();
  uint64_t seed = 500;
  for (const std::string& protocol : protocols) {
    const PointSet client = Drifted(canonical, ++seed);

    auto [server_end, client_end] = net::PipeStream::CreatePair();
    std::thread serve([&host, end = std::move(server_end)] {
      host.ServeConnection(end.get());
    });
    const std::optional<Message> piped =
        WireSync(client_end.get(), protocol, client);
    serve.join();

    auto tcp = net::TcpStream::Connect("127.0.0.1", host.port());
    ASSERT_NE(tcp, nullptr);
    const std::optional<Message> reacted =
        WireSync(tcp.get(), protocol, client);

    Connection conn(&direct);
    const std::optional<Served> sans_io = DriveSync(&conn, protocol, client);
    conn.OnClosed(0, 0);

    ASSERT_TRUE(piped.has_value()) << protocol;
    ASSERT_TRUE(reacted.has_value()) << protocol;
    ASSERT_TRUE(sans_io.has_value()) << protocol;
    EXPECT_EQ(piped->payload, sans_io->result.payload) << protocol;
    EXPECT_EQ(piped->payload_bits, sans_io->result.payload_bits) << protocol;
    EXPECT_EQ(reacted->payload, sans_io->result.payload) << protocol;
    EXPECT_EQ(reacted->payload_bits, sans_io->result.payload_bits)
        << protocol;
    ExpectMatchesDriver(protocol, DecodedResult(*reacted).result,
                        DriverResult(protocol, client, canonical));
  }

  // The reactor settles when it sees the client's close; each protocol ran
  // once over the pipe and once over TCP.
  ASSERT_TRUE(Eventually([&] {
    return host.metrics_registry().SumCounters("rsr_sync_sessions_total") ==
           2 * protocols.size();
  }));
  host.Stop();
  for (const std::string& protocol : protocols) {
    for (const char* outcome : {"ok", "fail", "malformed"}) {
      EXPECT_EQ(Sessions(host, protocol, outcome),
                2 * Sessions(direct, protocol, outcome))
          << protocol << " " << outcome;
    }
  }
}

/// A raw client that sends `frame` where Alice's opening belongs, and the
/// "@result" frame it gets back.
std::optional<Message> SendForAlice(net::ByteStream* stream,
                                    const std::string& protocol,
                                    const Message& frame) {
  net::FramedStream framed(stream);
  Message reply;
  if (!framed.Send(Hello(protocol)) ||
      framed.Receive(&reply) != net::FramedStream::RecvStatus::kMessage ||
      reply.label != kAcceptLabel || !framed.Send(frame) ||
      framed.Receive(&reply) != net::FramedStream::RecvStatus::kMessage ||
      reply.label != kResultLabel) {
    return std::nullopt;
  }
  stream->Close();
  return reply;
}

TEST(ConnectionHostsTest, HostileRibltCountFailsMalformedOverPipeAndTcp) {
  // riblt-oneshot's table frame opens with Alice's n, which sizes the sum
  // fields through max_entries = 2n + 2. A table laid out for that n
  // follows, every cell holding the least count, key and checksum sums
  // (in key_bits) and coordinate sums its fields hold.
  const auto least_table = [](uint64_t n, int key_bits) {
    const RibltConfig config = RibltOneShotConfig(
        Ctx().universe, Params().Resolved().riblt, n, Ctx().seed);
    BitWriter w;
    w.WriteVarint(n);
    const auto least = [&w](int bits) {
      w.WriteBits(uint64_t{1} << (bits - 1), bits);
    };
    for (size_t cell = 0; cell < config.RoundedCells(); ++cell) {
      least(config.count_bits);
      for (int sum = 0; sum < 2; ++sum) {
        w.WriteBits(0, 64);
        least(key_bits - 64);
      }
      for (int c = 0; c < config.universe.d; ++c) least(config.CoordSumBits());
    }
    return transport::MakeMessage("riblt-set", std::move(w));
  };
  // An n whose 2n + 2 overflows once wrapped max_entries to 0 and aborted
  // the host. Past kRibltMaxEntries the sums would reach 128 bits, and
  // erasing Bob's set into sums of -2^127 would overflow them; the largest
  // n below that leaves them 127 bits, headroom enough to erase and peel.
  const uint64_t largest_n = (kRibltMaxEntries - 2) / 2;
  const Message refused[] = {least_table((uint64_t{1} << 63) - 1, 128),
                             least_table(largest_n + 1, 128)};
  const Message widest = least_table(
      largest_n, RibltOneShotConfig(Ctx().universe, Params().Resolved().riblt,
                                    largest_n, Ctx().seed)
                     .KeySumBits());
  const PointSet canonical = Cloud(96, 4243);
  // Three points replaced, none perturbed: an exact-key difference the
  // k = 8 table decodes.
  PointSet client = canonical;
  const PointSet fresh = Cloud(3, 600);
  for (size_t i = 0; i < fresh.size(); ++i) client[10 * i] = fresh[i];
  const ReconResult want = DriverResult("riblt-oneshot", client, canonical);
  ASSERT_TRUE(want.success);

  AsyncSyncServerOptions options = HostOptions();
  options.shards = 1;
  AsyncSyncServer host(canonical, options);
  ASSERT_TRUE(host.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  const auto over_pipe = [&](const auto& sync) {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    std::thread serve([&host, end = std::move(server_end)] {
      host.ServeConnection(end.get());
    });
    const std::optional<Message> result = sync(client_end.get());
    serve.join();
    return result;
  };
  const auto over_tcp = [&](const auto& sync) {
    auto tcp = net::TcpStream::Connect("127.0.0.1", host.port());
    EXPECT_NE(tcp, nullptr);
    return tcp == nullptr ? std::nullopt : sync(tcp.get());
  };

  const auto send = [&](const Message& frame) {
    return [&frame](net::ByteStream* stream) {
      return SendForAlice(stream, "riblt-oneshot", frame);
    };
  };
  const auto clean_sync = [&](net::ByteStream* stream) {
    return WireSync(stream, "riblt-oneshot", client);
  };
  struct Outcomes {
    std::optional<Message> refused[2], widest, clean;
  };
  const Outcomes served[2] = {
      {{over_pipe(send(refused[0])), over_pipe(send(refused[1]))},
       over_pipe(send(widest)),
       over_pipe(clean_sync)},
      {{over_tcp(send(refused[0])), over_tcp(send(refused[1]))},
       over_tcp(send(widest)),
       over_tcp(clean_sync)},
  };
  for (const Outcomes& outcomes : served) {
    for (const std::optional<Message>& malformed : outcomes.refused) {
      ASSERT_TRUE(malformed.has_value());
      EXPECT_EQ(DecodedResult(*malformed).result.error,
                SessionError::kMalformedMessage);
    }
    // The widest accepted table is read, erased into and decoded: the
    // decode fails, and nothing overflows (the sanitizer build checks it).
    ASSERT_TRUE(outcomes.widest.has_value());
    const ReconResult widest_result = DecodedResult(*outcomes.widest).result;
    EXPECT_FALSE(widest_result.success);
    EXPECT_EQ(widest_result.error, SessionError::kNone);
    // The host is unharmed: a clean sync right after matches the driver.
    ASSERT_TRUE(outcomes.clean.has_value());
    ExpectMatchesDriver("riblt-oneshot", DecodedResult(*outcomes.clean).result,
                        want);
  }

  // Four sessions over the pipe and four over TCP.
  ASSERT_TRUE(Eventually([&] {
    return host.metrics_registry().SumCounters("rsr_sync_sessions_total") ==
           8u;
  }));
  host.Stop();
  EXPECT_EQ(Sessions(host, "riblt-oneshot", "malformed"), 4u);
  EXPECT_EQ(Sessions(host, "riblt-oneshot", "fail"), 2u);
  EXPECT_EQ(Sessions(host, "riblt-oneshot", "ok"), 2u);
}

}  // namespace
}  // namespace server
}  // namespace rsr
