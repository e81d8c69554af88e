// Observability endpoint tests (DESIGN.md §12): the "@stats" admin verb
// round-trips a Prometheus registry rendering over in-process pipes (the
// host's blocking pump) and loopback TCP (its reactor), the syncd
// HTTP/1.0 /metrics responder answers curl-shaped requests, and
// per-session trace spans carry the phase breakdown either way.

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/async_sync_server.h"
#include "server/sync_client.h"
#include "workload/generator.h"

namespace rsr {
namespace server {
namespace {

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 99;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.k = 8;
  return params;
}

PointSet Canonical(size_t n) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(2024);
  return workload::GenerateCloud(spec, &rng);
}

/// One full-transfer sync against the host's pump over a pipe pair (the
/// protocol that always succeeds regardless of sketch sizing).
SyncOutcome PipeSync(CanonicalHost* server, const PointSet& client_points) {
  SyncClientOptions options;
  options.context = Ctx();
  options.params = Params();
  const SyncClient client(options);
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread serve([server, end = std::move(server_end)]() mutable {
    server->ServeConnection(end.get());
  });
  const SyncOutcome outcome =
      client.Sync(client_end.get(), "full-transfer", client_points);
  serve.join();
  return outcome;
}

/// Polls `predicate` for up to a second (session settling on the reactor
/// happens on the shard thread after the client's close).
bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 200; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

AsyncSyncServerOptions HostOptions() {
  AsyncSyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.shards = 1;
  return options;
}

TEST(StatsVerbTest, HostAnswersOverPipe) {
  const PointSet canonical = Canonical(32);
  AsyncSyncServer server(canonical, HostOptions());
  const SyncOutcome sync = PipeSync(&server, Canonical(16));
  ASSERT_TRUE(sync.handshake_ok);
  ASSERT_TRUE(sync.result.success);

  std::string text;
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  std::thread serve([&server, end = std::move(server_end)]() mutable {
    server.ServeConnection(end.get());
  });
  EXPECT_TRUE(FetchStats(client_end.get(), &text));
  serve.join();

  // A valid Prometheus exposition carrying the session the sync settled.
  EXPECT_EQ(text.rfind("# HELP ", 0), 0u);
  EXPECT_NE(text.find("# TYPE rsr_sync_sessions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rsr_sync_sessions_total{protocol=\"full-transfer\","
                      "outcome=\"ok\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rsr_sync_session_seconds_bucket{protocol="
                      "\"full-transfer\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rsr_store_"), std::string::npos);

  // The @stats session itself settles under its own protocol label.
  EXPECT_EQ(server.metrics_registry().CounterValue(
                "rsr_sync_sessions_total",
                {{"protocol", "@stats"}, {"outcome", "ok"}}),
            1u);
  // The same registry accounts for every session the host settled.
  EXPECT_EQ(server.metrics_registry().CounterValue(
                "rsr_sync_sessions_total",
                {{"protocol", "full-transfer"}, {"outcome", "ok"}}),
            1u);
  EXPECT_EQ(server.metrics_registry().SumCounters("rsr_sync_sessions_total",
                                                  {{"outcome", "ok"}}),
            2u);  // sync + @stats
}

TEST(StatsVerbTest, HostAnswersOverTcp) {
  const PointSet canonical = Canonical(32);
  AsyncSyncServer server(canonical, HostOptions());
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  // One real sync first, so the scrape carries a session.
  SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const SyncClient client(client_options);
  auto sync_stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(sync_stream, nullptr);
  const SyncOutcome sync =
      client.Sync(sync_stream.get(), "full-transfer", Canonical(16));
  ASSERT_TRUE(sync.result.success);

  std::string text;
  auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  EXPECT_TRUE(FetchStats(stream.get(), &text));
  EXPECT_EQ(text.rfind("# HELP ", 0), 0u);
  EXPECT_NE(text.find("rsr_sync_sessions_total{protocol=\"full-transfer\","
                      "outcome=\"ok\"} 1"),
            std::string::npos);
  // Both connections were accepted before the scrape was rendered.
  EXPECT_NE(text.find("rsr_sync_connections_accepted_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rsr_sync_bytes_total counter"),
            std::string::npos);
  // The reactor's event-loop probes live in the same registry.
  EXPECT_NE(text.find("# TYPE rsr_loop_iteration_seconds histogram"),
            std::string::npos);

  // The @stats session settles once the shard notices the close.
  EXPECT_TRUE(Eventually([&server] {
    return server.metrics_registry().CounterValue(
               "rsr_sync_sessions_total",
               {{"protocol", "@stats"}, {"outcome", "ok"}}) == 1;
  }));
  server.Stop();
}

TEST(HttpExporterTest, ServesMetricsAnd404s) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo_total", "demo")->Inc(7);
  obs::MetricsHttpServer http(
      [&registry] { return registry.RenderPrometheus(); });
  ASSERT_TRUE(http.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  ASSERT_GT(http.port(), 0);

  const auto request = [&http](const std::string& head) {
    auto conn = net::TcpStream::Connect("127.0.0.1", http.port());
    EXPECT_NE(conn, nullptr);
    if (conn == nullptr) return std::string();
    EXPECT_TRUE(conn->Write(
        reinterpret_cast<const uint8_t*>(head.data()), head.size()));
    std::string response;
    uint8_t buf[4096];
    for (;;) {
      const ptrdiff_t n = conn->Read(buf, sizeof buf);
      if (n <= 0) break;
      response.append(reinterpret_cast<const char*>(buf),
                      static_cast<size_t>(n));
    }
    return response;
  };

  const std::string ok =
      request("GET /metrics HTTP/1.0\r\nUser-Agent: test\r\n\r\n");
  EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(ok.find("demo_total 7"), std::string::npos);

  const std::string missing = request("GET /other HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);

  // No health renderer wired: /healthz is just another unknown route.
  const std::string no_health = request("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(no_health.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
  http.Stop();
}

TEST(HttpExporterTest, ServesHealthzWhenRendererWired) {
  obs::MetricsRegistry registry;
  obs::MetricsHttpServer http(
      [&registry] { return registry.RenderPrometheus(); },
      [] { return std::string("ok uptime_seconds=1.5 replica_seq=3 "
                              "dirty=0\n"); });
  ASSERT_TRUE(http.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  const auto request = [&http](const std::string& head) {
    auto conn = net::TcpStream::Connect("127.0.0.1", http.port());
    EXPECT_NE(conn, nullptr);
    if (conn == nullptr) return std::string();
    EXPECT_TRUE(conn->Write(
        reinterpret_cast<const uint8_t*>(head.data()), head.size()));
    std::string response;
    uint8_t buf[4096];
    for (;;) {
      const ptrdiff_t n = conn->Read(buf, sizeof buf);
      if (n <= 0) break;
      response.append(reinterpret_cast<const char*>(buf),
                      static_cast<size_t>(n));
    }
    return response;
  };

  const std::string health = request("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(health.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(health.find("ok uptime_seconds=1.5 replica_seq=3 dirty=0"),
            std::string::npos);
  // The longer-path guard still applies.
  const std::string longer = request("GET /healthzzz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(longer.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
  http.Stop();
}

TEST(TraceSpanTest, PipeSessionEmitsPhaseBreakdown) {
  obs::VectorTraceSink sink;
  const PointSet canonical = Canonical(32);
  AsyncSyncServerOptions options = HostOptions();
  options.trace_sink = &sink;
  AsyncSyncServer server(canonical, options);
  const SyncOutcome sync = PipeSync(&server, Canonical(16));
  ASSERT_TRUE(sync.result.success);

  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.rfind("{\"span\":\"sync-session\"", 0), 0u);
  EXPECT_NE(line.find("\"protocol\":\"full-transfer\""), std::string::npos);
  EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos);
  for (const char* phase : {"handshake", "rounds", "result"}) {
    EXPECT_NE(line.find("\"name\":\"" + std::string(phase) + "\""),
              std::string::npos)
        << line;
  }
  // Frames flowed both ways: the first (session-total) counts — the ones
  // before the per-phase array, where zeros are legitimate — are nonzero.
  const size_t in_at = line.find("\"frames_in\":");
  const size_t out_at = line.find("\"frames_out\":");
  ASSERT_NE(in_at, std::string::npos);
  ASSERT_NE(out_at, std::string::npos);
  EXPECT_NE(line[in_at + 12], '0') << line;
  EXPECT_NE(line[out_at + 13], '0') << line;
}

TEST(TraceSpanTest, TcpSessionEmitsSpan) {
  obs::VectorTraceSink sink;
  const PointSet canonical = Canonical(32);
  AsyncSyncServerOptions options = HostOptions();
  options.trace_sink = &sink;
  AsyncSyncServer server(canonical, options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const SyncClient client(client_options);
  auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
  ASSERT_NE(stream, nullptr);
  const SyncOutcome sync =
      client.Sync(stream.get(), "full-transfer", Canonical(16));
  ASSERT_TRUE(sync.result.success);
  ASSERT_TRUE(Eventually([&sink] { return !sink.lines().empty(); }));
  server.Stop();

  const std::string line = sink.lines()[0];
  EXPECT_EQ(line.rfind("{\"span\":\"sync-session\"", 0), 0u);
  EXPECT_NE(line.find("\"protocol\":\"full-transfer\""), std::string::npos);
  EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"rounds\""), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace rsr
