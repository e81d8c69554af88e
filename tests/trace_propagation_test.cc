// Cross-node trace propagation (DESIGN.md §12): trace context rides
// "@hello"/"@log-fetch"/"@pull" as an optional trailing field, the host
// adopts it into its session spans over pipes and TCP alike (JSONL lines
// join on the trace id),
// replica rounds link the traces of the mutations they carry and measure
// append→apply lag against the injectable clock, and the sampling policy
// keeps error spans while shedding clean fast sessions.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_stream.h"
#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/handshake.h"
#include "server/sync_client.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rsr {
namespace {

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 77;
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

/// Value of a `"key":"value"` string field in a span's JSON line (""
/// when absent) — string matching is all these joins need.
std::string JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

/// First emitted line of the given span kind ("" when none).
std::string FindSpan(const std::vector<std::string>& lines,
                     const std::string& kind) {
  for (const std::string& line : lines) {
    if (JsonField(line, "span") == kind) return line;
  }
  return "";
}

bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 200; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(TraceWireTest, HandshakeFramesRoundTripTraceContext) {
  obs::TraceContext ctx;
  ctx.trace_hi = 0x1122334455667788ULL;
  ctx.trace_lo = 0x99aabbccddeeff00ULL;
  ctx.span_id = 0x0123456789abcdefULL;

  server::HelloFrame hello;
  hello.protocol = "quadtree";
  hello.client_set_size = 5;
  hello.trace = ctx;
  server::HelloFrame hello_out;
  ASSERT_TRUE(server::DecodeHello(server::EncodeHello(hello), &hello_out));
  EXPECT_EQ(hello_out.trace.trace_hi, ctx.trace_hi);
  EXPECT_EQ(hello_out.trace.trace_lo, ctx.trace_lo);
  EXPECT_EQ(hello_out.trace.span_id, ctx.span_id);

  // Absent context decodes as the invalid all-zero value (the old-peer
  // wire shape), not stale or padding-misread ids.
  server::HelloFrame plain;
  plain.protocol = "quadtree";
  server::HelloFrame plain_out;
  plain_out.trace = ctx;  // must be overwritten, not left stale
  ASSERT_TRUE(server::DecodeHello(server::EncodeHello(plain), &plain_out));
  EXPECT_FALSE(plain_out.trace.valid());

  server::LogFetchFrame fetch;
  fetch.from_seq = 3;
  fetch.trace = ctx;
  server::LogFetchFrame fetch_out;
  ASSERT_TRUE(
      server::DecodeLogFetch(server::EncodeLogFetch(fetch), &fetch_out));
  EXPECT_EQ(fetch_out.trace.trace_lo, ctx.trace_lo);

  server::PullFrame pull;
  pull.protocol = "riblt-oneshot";
  pull.trace = ctx;
  server::PullFrame pull_out;
  ASSERT_TRUE(server::DecodePull(server::EncodePull(pull), &pull_out));
  EXPECT_EQ(pull_out.trace.span_id, ctx.span_id);
}

TEST(TracePropagationTest, ClientAndHostShareOneTraceOverPipe) {
  obs::VectorTraceSink server_sink;
  obs::VectorTraceSink client_sink;
  server::AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.trace_sink = &server_sink;
  server_options.trace_seed = 11;
  server::AsyncSyncServer host(Cloud(48, 1), server_options);

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  client_options.trace_sink = &client_sink;
  client_options.propagate_trace = true;
  client_options.trace_seed = 7;
  const server::SyncClient client(client_options);

  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread serve([&host, end = std::move(server_end)]() mutable {
    host.ServeConnection(end.get());
  });
  const server::SyncOutcome outcome =
      client.Sync(client_end.get(), "full-transfer", Cloud(24, 2));
  serve.join();
  ASSERT_TRUE(outcome.result.success) << outcome.error_detail;

  // The outcome surfaces the minted root trace id...
  ASSERT_NE(outcome.trace_hi | outcome.trace_lo, 0u);
  const std::string want_trace =
      obs::TraceIdHex(outcome.trace_hi, outcome.trace_lo);

  // ...and both spans carry it: same trace id, the server naming the
  // client's span as its parent, each with a distinct span id.
  const std::string client_span = FindSpan(client_sink.lines(), "sync-client");
  const std::string server_span =
      FindSpan(server_sink.lines(), "sync-session");
  ASSERT_FALSE(client_span.empty());
  ASSERT_FALSE(server_span.empty());
  EXPECT_EQ(JsonField(client_span, "trace"), want_trace);
  EXPECT_EQ(JsonField(server_span, "trace"), want_trace);
  EXPECT_EQ(JsonField(server_span, "parent"),
            JsonField(client_span, "span_id"));
  EXPECT_EQ(JsonField(client_span, "parent"), "");  // the client is the root
  EXPECT_NE(JsonField(server_span, "span_id"),
            JsonField(client_span, "span_id"));
}

TEST(TracePropagationTest, ClientAndHostShareOneTraceOverTcp) {
  obs::VectorTraceSink server_sink;
  obs::VectorTraceSink client_sink;
  server::AsyncSyncServerOptions server_options;
  server_options.context = Ctx();
  server_options.params = Params();
  server_options.shards = 1;
  server_options.trace_sink = &server_sink;
  server::AsyncSyncServer host(Cloud(48, 1), server_options);
  ASSERT_TRUE(host.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  client_options.trace_sink = &client_sink;
  client_options.propagate_trace = true;
  client_options.trace_seed = 7;
  const server::SyncClient client(client_options);
  auto stream = net::TcpStream::Connect("127.0.0.1", host.port());
  ASSERT_NE(stream, nullptr);
  const server::SyncOutcome outcome =
      client.Sync(stream.get(), "full-transfer", Cloud(24, 2));
  ASSERT_TRUE(outcome.result.success) << outcome.error_detail;
  ASSERT_TRUE(Eventually([&server_sink] {
    return !FindSpan(server_sink.lines(), "sync-session").empty();
  }));
  host.Stop();

  const std::string want_trace =
      obs::TraceIdHex(outcome.trace_hi, outcome.trace_lo);
  const std::string client_span = FindSpan(client_sink.lines(), "sync-client");
  const std::string server_span =
      FindSpan(server_sink.lines(), "sync-session");
  EXPECT_EQ(JsonField(client_span, "trace"), want_trace);
  EXPECT_EQ(JsonField(server_span, "trace"), want_trace);
  EXPECT_EQ(JsonField(server_span, "parent"),
            JsonField(client_span, "span_id"));
}

TEST(TracePropagationTest, UntracedHelloStillGetsMintedRootSpan) {
  // Old-peer compatibility: a client shipping no context (the pre-trace
  // wire shape) still yields a server span — with a freshly minted root
  // trace and no parent. Emitted, just unlinked.
  obs::VectorTraceSink sink;
  server::AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.trace_sink = &sink;
  options.trace_seed = 13;
  server::AsyncSyncServer host(Cloud(48, 1), options);

  server::SyncClientOptions client_options;  // propagate_trace stays false
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread serve([&host, end = std::move(server_end)]() mutable {
    host.ServeConnection(end.get());
  });
  const server::SyncOutcome outcome =
      client.Sync(client_end.get(), "full-transfer", Cloud(24, 2));
  serve.join();
  ASSERT_TRUE(outcome.result.success) << outcome.error_detail;
  EXPECT_EQ(outcome.trace_hi | outcome.trace_lo, 0u);

  const std::string span = FindSpan(sink.lines(), "sync-session");
  ASSERT_FALSE(span.empty());
  EXPECT_EQ(JsonField(span, "trace").size(), 32u);
  EXPECT_EQ(JsonField(span, "parent"), "");
}

TEST(TraceSamplingTest, RateZeroDropsCleanSessionsButKeepsErrors) {
  obs::VectorTraceSink sink;
  server::AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.trace_sink = &sink;
  options.trace_sampling.sample_rate = 0.0;  // shed everything sheddable
  server::AsyncSyncServer host(Cloud(48, 1), options);

  server::SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const server::SyncClient client(client_options);

  // Clean session: the policy sheds the span and the drop is accounted.
  {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    std::thread serve([&host, end = std::move(server_end)]() mutable {
      host.ServeConnection(end.get());
    });
    const server::SyncOutcome ok =
        client.Sync(client_end.get(), "full-transfer", Cloud(24, 2));
    serve.join();
    ASSERT_TRUE(ok.result.success) << ok.error_detail;
  }
  EXPECT_TRUE(sink.lines().empty());
  EXPECT_EQ(host.metrics_registry().CounterValue("rsr_trace_spans_total",
                                                 {{"decision", "dropped"}}),
            1u);

  // Faulted session: the server-side stream dies mid-exchange, the span's
  // outcome is not "ok", and error spans bypass the sampling rate.
  {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    net::FaultOptions faults;
    faults.close_after_bytes = 64;
    auto faulty =
        std::make_unique<net::FaultyStream>(std::move(server_end), faults);
    std::thread serve([&host, end = std::move(faulty)]() mutable {
      host.ServeConnection(end.get());
    });
    const server::SyncOutcome failed =
        client.Sync(client_end.get(), "full-transfer", Cloud(24, 2));
    serve.join();
    EXPECT_FALSE(failed.result.success);
  }
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_NE(JsonField(sink.lines()[0], "outcome"), "ok");
  EXPECT_EQ(host.metrics_registry().CounterValue("rsr_trace_spans_total",
                                                 {{"decision", "emitted"}}),
            1u);
}

replica::ReplicaNodeOptions NodeOptions(const std::string& name,
                                        obs::Clock* clock,
                                        obs::TraceSink* sink) {
  replica::ReplicaNodeOptions options;
  options.server.context = Ctx();
  options.server.params = Params();
  options.server.clock = clock;
  options.server.trace_sink = sink;
  options.changelog.capacity = 64;
  options.node_name = name;
  return options;
}

/// Dials a fresh pipe to `peer`'s host, serving it on a remembered thread.
replica::StreamFactory PipeTo(replica::ReplicaNode* peer,
                              std::vector<std::thread>* serve_threads) {
  return [peer, serve_threads]() -> std::unique_ptr<net::ByteStream> {
    auto [server_end, client_end] = net::PipeStream::CreatePair();
    serve_threads->emplace_back(
        [peer, end = std::move(server_end)]() mutable {
          peer->host().ServeConnection(end.get());
        });
    return std::move(client_end);
  };
}

void JoinAll(std::vector<std::thread>* serve_threads) {
  for (std::thread& t : *serve_threads) t.join();
  serve_threads->clear();
}

TEST(ReplicationLagTest, TailApplyMeasuresAppendToApplyDelay) {
  // One fake clock shared by writer and follower — the deterministic
  // clock domain the lag telemetry is defined against.
  obs::FakeClock clock(1'000'000);
  obs::VectorTraceSink writer_sink;
  obs::VectorTraceSink follower_sink;
  const PointSet seed_set = Cloud(64, 5);
  replica::ReplicaNode writer(seed_set,
                              NodeOptions("node0", &clock, &writer_sink));
  replica::ReplicaNode follower(
      seed_set, NodeOptions("node1", &clock, &follower_sink));

  // A traced client mutation: the journaled entry carries the trace id
  // and the append-time clock stamp.
  obs::TraceContext mutation;
  mutation.trace_hi = 0xaaaaaaaaaaaaaaaaULL;
  mutation.trace_lo = 0xbbbbbbbbbbbbbbbbULL;
  mutation.span_id = 0xccccccccccccccccULL;
  writer.Apply(Cloud(2, 6), PointSet{}, mutation);

  // The entry reaches the follower 250ms (fake) later.
  clock.Advance(250'000);
  std::vector<std::thread> serve_threads;
  const replica::RoundRecord round =
      follower.SyncWithPeer(PipeTo(&writer, &serve_threads), "node0");
  JoinAll(&serve_threads);
  ASSERT_EQ(round.path, replica::RoundRecord::Path::kTail)
      << round.error_detail;
  ASSERT_EQ(round.entries_applied, 1u);

  // The per-peer lag histogram observed exactly the fake 250ms...
  const obs::MetricsRegistry& registry = follower.host().metrics_registry();
  const auto lag = registry.SnapshotHistogram(
      "rsr_replica_propagation_lag_seconds", {{"peer", "node0"}});
  ASSERT_TRUE(lag.has_value());
  EXPECT_EQ(lag->count, 1u);
  EXPECT_NEAR(lag->sum, 0.25, 1e-9);
  // ...the staleness gauge holds the newest applied entry's age in
  // microseconds...
  EXPECT_EQ(registry.GaugeValue("rsr_replica_peer_staleness_micros",
                                {{"peer", "node0"}}),
            250'000);
  // ...and the convergence watermark reached the writer's position.
  EXPECT_EQ(registry.GaugeValue("rsr_replica_convergence_watermark"),
            static_cast<int64_t>(writer.applied_seq()));

  // The follower's round span links the mutation's trace...
  const std::string round_span =
      FindSpan(follower_sink.lines(), "replica-round");
  ASSERT_FALSE(round_span.empty());
  EXPECT_EQ(JsonField(round_span, "attr.node"), "node1");
  EXPECT_EQ(JsonField(round_span, "attr.peer"), "node0");
  EXPECT_EQ(JsonField(round_span, "attr.path"), "tail");
  EXPECT_NE(round_span.find(
                obs::TraceIdHex(mutation.trace_hi, mutation.trace_lo)),
            std::string::npos)
      << round_span;

  // ...and the writer-side "@log-fetch" session span joins the round's
  // trace: same trace id, parented on the round's span.
  const std::string fetch_span = FindSpan(writer_sink.lines(), "sync-session");
  ASSERT_FALSE(fetch_span.empty());
  EXPECT_NE(JsonField(round_span, "trace"), "");
  EXPECT_EQ(JsonField(fetch_span, "trace"), JsonField(round_span, "trace"));
  EXPECT_EQ(JsonField(fetch_span, "parent"),
            JsonField(round_span, "span_id"));
}

TEST(DirtyPeerTest, TailFromDirtyPeerFallsBackToRepair) {
  // PR 6 soundness-gap regression: a dirty peer's changelog tail no
  // longer describes its actual set, so a clean puller must repair toward
  // the peer's set instead of tail-replaying — even when the tail is
  // available.
  const PointSet seed_set = Cloud(64, 5);
  replica::ReplicaNodeOptions options =
      NodeOptions("peer", nullptr, nullptr);
  replica::ReplicaNode peer(seed_set, options);
  replica::ReplicaNode puller(seed_set, options);

  // Two journaled batches, then an off-log install: the peer's set gains
  // a point its changelog never recorded, and the host goes dirty.
  workload::ChurnSpec churn;
  churn.fraction = 0.0;  // min_updates floors it: one replacement per batch
  churn.min_updates = 1;
  Rng rng(3);
  for (int i = 0; i < 2; ++i) {
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        peer.points(), Ctx().universe, churn, &rng);
    peer.Apply(batch.inserts, batch.erases);
  }
  peer.host().InstallRepair(Cloud(1, 99), PointSet{}, peer.applied_seq(),
                            /*exact=*/false);
  ASSERT_TRUE(peer.dirty());

  // The puller (clean, at seq 0, ring capacity 64) would find the whole
  // tail available; without the "@log-batch" dirty bit it would replay it
  // and silently diverge from the peer's actual set.
  std::vector<std::thread> serve_threads;
  const replica::RoundRecord round =
      puller.SyncWithPeer(PipeTo(&peer, &serve_threads), "peer");
  JoinAll(&serve_threads);

  EXPECT_NE(round.path, replica::RoundRecord::Path::kTail)
      << "unsound tail replay from a dirty peer";
  EXPECT_TRUE(round.ok) << round.error_detail;
  EXPECT_EQ(replica::SetDivergence(puller.points(), peer.points()), 0u);
  // Pulling from a dirty peer is never an exact install: the puller must
  // itself stay off the tail path until an exact repair lands.
  EXPECT_TRUE(round.dirty_after);
}

}  // namespace
}  // namespace rsr
