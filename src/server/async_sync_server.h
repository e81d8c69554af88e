// Event-driven many-client sync server: N epoll shards, zero blocked
// threads per connection.
//
// AsyncSyncServer serves the exact protocol SyncServer serves — the
// "@hello"/"@accept"/"@reject"/"@result" handshake over the
// ProtocolRegistry, one Bob-side PartySession per client, results
// bit-identical to recon::DrivePair — but hosts it on a reactor instead of
// a worker pool. Start() spawns `shards` threads, each running one
// net::EventLoop; the listener is accepted on shard 0 and every new
// connection is pinned to a shard round-robin at accept time. A pinned
// connection's whole life — frame decode, handshake, PartySession pump,
// result, drain — happens on that one shard thread, so sessions stay
// single-threaded with no locks on the hot path; only the metrics
// registry is shared (lock-free record path; server/server_obs.h).
//
// Because no thread ever blocks on a socket, concurrency is bounded by fd
// limits rather than thread count: two shards sustain hundreds of
// mostly-idle replicas where a two-worker SyncServer serializes them
// (bench/bench_e17_async_load.cc measures exactly this).
//
// Idle connections are bounded: a connection with no traffic for
// `idle_timeout` is failed with SessionError::kTransportClosed (a
// best-effort failure "@result" is flushed first if a session was live).
// Stop() drains deterministically — it closes the listener, then posts one
// shutdown task per shard that fails all of the shard's open connections
// and stops its loop, then joins the shard threads in index order.
// See DESIGN.md §8.

#ifndef RSR_SERVER_ASYNC_SYNC_SERVER_H_
#define RSR_SERVER_ASYNC_SYNC_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/async_frame.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/tcp.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "recon/registry.h"
#include "replica/changelog.h"
#include "server/server_obs.h"
#include "server/server_stats.h"
#include "server/sketch_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

struct AsyncSyncServerOptions {
  /// Shared public coins; clients must be constructed with the same
  /// context or the hash-based sketches will not line up.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  /// Event-loop shards (threads). Each connection is pinned to one.
  size_t shards = 2;
  net::FrameLimits limits;
  /// Runaway-protocol safeguard, as in recon::DrivePair.
  size_t max_deliveries = 1 << 16;
  /// Per-connection idle deadline (coarse, event-loop tick granularity);
  /// zero disables. Expiry surfaces as SessionError::kTransportClosed.
  std::chrono::milliseconds idle_timeout{0};
  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default.
  /// Small values bound per-connection kernel memory under huge fan-out —
  /// and force the partial-write flush paths the tests pin down.
  int so_sndbuf = 0;
  /// Serve Bob sessions from the SketchStore's cached canonical sketches
  /// (see server/sync_server.h; same semantics, same bit-identical
  /// results).
  bool serve_from_cache = true;
  /// Protocol registry to negotiate against; nullptr = the global one.
  const recon::ProtocolRegistry* registry = nullptr;
  /// When set, the host replicates like the threaded SyncServer: every
  /// ApplyUpdate is journaled (write-through), "@log-fetch" is served, and
  /// the replication position travels in every "@accept". The async host
  /// serves only the WRITER side of the mesh — it answers "@log-fetch"
  /// but rejects "@pull" (hosting an Alice session inverts the reactor's
  /// send/receive phases; followers run the threaded host instead, see
  /// DESIGN.md §10). Not owned; must outlive the server.
  replica::Changelog* changelog = nullptr;
  /// Upper bound on entries per served "@log-batch".
  size_t log_fetch_max_entries = 512;
  /// Gates the optional latency probes (accept-to-first-frame delay, the
  /// per-shard event-loop probes, store apply latency). Session outcome
  /// counters and per-protocol latency histograms stay on regardless —
  /// DumpStats() is rebuilt from them.
  bool latency_probes = true;
  /// Per-session trace spans (obs/trace.h) are emitted here; null
  /// disables tracing. Not owned; must outlive the server.
  obs::TraceSink* trace_sink = nullptr;
  /// Keep/drop policy applied when a span finishes (errors and slow
  /// sessions are always kept). The default keeps everything.
  obs::TraceSamplingPolicy trace_sampling;
  /// Seed for trace ids minted for sessions that arrive without inbound
  /// context (0 = real entropy); tests pin it for replayable ids.
  uint64_t trace_seed = 0;
  /// Monotonic clock stamping changelog appends (replication-lag
  /// telemetry; DESIGN.md §12). Null = obs::Clock::Real(). Not owned.
  obs::Clock* clock = nullptr;
};

class AsyncSyncServer {
 public:
  AsyncSyncServer(PointSet canonical, AsyncSyncServerOptions options);
  ~AsyncSyncServer();

  AsyncSyncServer(const AsyncSyncServer&) = delete;
  AsyncSyncServer& operator=(const AsyncSyncServer&) = delete;

  /// Spawns the shard threads and starts accepting on `listener` (flipped
  /// to non-blocking). Returns false if already started or null.
  bool Start(std::unique_ptr<net::TcpListener> listener);

  /// Closes the listener, fails every open connection, stops each shard
  /// loop and joins its thread, in shard order. Idempotent; also called
  /// by the destructor.
  void Stop();

  /// Bound TCP port (0 unless Start()ed).
  uint16_t port() const;

  /// Legacy flat counters snapshot, rebuilt from the metrics registry.
  SyncServerMetrics metrics() const;

  /// Plain-text counters dump (server/server_stats.h), identical in shape
  /// to SyncServer::DumpStats().
  std::string DumpStats() const;

  /// The host's metrics registry (see SyncServer::metrics_registry).
  obs::MetricsRegistry& metrics_registry() { return obs_.registry(); }
  const obs::MetricsRegistry& metrics_registry() const {
    return obs_.registry();
  }

  /// The registry in Prometheus text exposition format (what "@stats"
  /// answers with).
  std::string RenderMetrics() const {
    return obs_.registry().RenderPrometheus();
  }

  /// Mutates the canonical set and returns the new generation's snapshot;
  /// in-flight sessions finish against the snapshot they were pinned to at
  /// handshake time (server/sketch_store.h). On a replicating host the
  /// batch is also journaled at replica_seq() + 1, atomically with the
  /// store mutation.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(const PointSet& inserts,
                                                    const PointSet& erases);

  /// ApplyUpdate variant stamping the journaled entry with the trace that
  /// caused the mutation (see SyncServer::ApplyUpdate). An invalid `trace`
  /// journals an untraced entry.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(
      const PointSet& inserts, const PointSet& erases,
      const obs::TraceContext& trace);

  /// Replication position (0 on a non-replicating host).
  uint64_t replica_seq() const;

  /// The current canonical snapshot (points + generation + sketches).
  std::shared_ptr<const SketchSnapshot> snapshot() const {
    return store_.Snapshot();
  }

  /// The current canonical point set (by value; see server/sync_server.h).
  PointSet canonical() const { return store_.Snapshot()->points(); }

 private:
  struct Shard;
  struct Conn;

  void AcceptReady();
  /// Registers `stream` with `shard` (runs on the shard's loop thread).
  void AdoptConn(Shard* shard, std::unique_ptr<net::TcpStream> stream);
  void OnConnEvent(Conn* conn, uint32_t ready);
  void ProcessInbox(Conn* conn);
  void HandleHello(Conn* conn, transport::Message message);
  /// Serves an "@log-fetch" opening frame: one "@log-batch" reply, then
  /// the drain phase. (The "@pull" verb is NOT served here; see
  /// AsyncSyncServerOptions::changelog.)
  void HandleLogFetch(Conn* conn, transport::Message message);
  /// Serves an "@stats" opening frame: one reply with RenderMetrics().
  void HandleStats(Conn* conn);
  void HandleSessionMessage(Conn* conn, transport::Message message);
  /// Ends the protocol phase: takes Bob's result, applies `pump_error`,
  /// ships "@result", and moves the conn to the drain phase.
  void FinishSession(Conn* conn, recon::SessionError pump_error);
  /// Transport died: settles a live session as failed (no result frame —
  /// there is no one to ship it to) and closes.
  void FailConn(Conn* conn, recon::SessionError error);
  /// Reacts to the read side ending (clean EOF or error) once all frames
  /// decoded before the end have been processed.
  void HandleStreamEnd(Conn* conn, net::AsyncFramedConn::IoStatus status);
  void OnIdleTimeout(Conn* conn);
  void UpdateInterest(Conn* conn);
  void TouchIdleTimer(Conn* conn);
  /// Deregisters, settles metrics, and schedules destruction.
  void CloseConn(Conn* conn);
  /// Attaches trace identity + sampling to the conn's span: adopts the
  /// inbound context (deriving this host's span id with `salt`) or mints
  /// a fresh root trace when tracing is on and none arrived.
  void AdoptTrace(Conn* conn, const obs::TraceContext& inbound,
                  uint64_t salt);

  const AsyncSyncServerOptions options_;
  /// Declared before store_: the store's instruments live in obs_'s
  /// registry.
  ServerObs obs_;
  obs::Clock* const clock_;
  /// Mints trace ids for sessions arriving without inbound context.
  obs::TraceIdGenerator trace_gen_;
  SketchStore store_;
  const recon::ProtocolRegistry* const registry_;
  /// Replication position, mirrored onto a gauge on the write path.
  obs::Gauge* const replica_seq_gauge_;
  /// Shared per-shard loop instruments, installed on every shard's loop
  /// before its thread starts. All-null when latency_probes is off.
  net::EventLoop::Metrics loop_metrics_;

  /// Guards the (store mutation, changelog append, replica_seq_) compound
  /// so a served snapshot + position pair is always consistent.
  /// LOCK ORDER: outermost on the write path — the store's and
  /// changelog's internal mutexes nest inside it (DESIGN.md §13).
  /// Everything else on this host is shard-thread confined (one
  /// connection lives on exactly one EventLoop thread) and deliberately
  /// unannotated.
  mutable Mutex replica_mu_;
  uint64_t replica_seq_ RSR_GUARDED_BY(replica_mu_) = 0;

  /// What a session pins: one generation with its replication position.
  struct Pin {
    std::shared_ptr<const SketchSnapshot> snapshot;
    uint64_t seq = 0;
  };
  /// Leaf lock over the published pin, which ApplyUpdate sets before it
  /// releases replica_mu_. Sessions and "@accept" read only this, so they
  /// never wait behind a batch being applied. LOCK ORDER: replica_mu_ →
  /// pin_mu_; nothing nests inside.
  mutable Mutex pin_mu_ RSR_ACQUIRED_AFTER(replica_mu_);
  Pin pin_ RSR_GUARDED_BY(pin_mu_);
  Pin CurrentPin() const;

  std::unique_ptr<net::TcpListener> listener_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t next_shard_ = 0;  ///< Round-robin cursor (accept path only).
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_ASYNC_SYNC_SERVER_H_
