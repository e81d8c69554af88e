// Many-client sync server over the protocol registry.
//
// One SyncServer owns a canonical point set and reconciles it concurrently
// against any number of connecting replicas. Per connection it performs the
// "@hello"/"@accept" handshake (server/handshake.h), instantiates the
// negotiated protocol's Bob-side PartySession against the canonical set,
// pumps it over framed messages (net/frame.h) until it finishes, and ships
// the ReconResult back in an "@result" frame — exactly the computation
// recon::DrivePair performs in-process, so a served sync is bit-identical
// to the two-party driver on the same inputs.
//
// The canonical set lives in a SketchStore (server/sketch_store.h): each
// session is pinned to one immutable generation-stamped snapshot, and by
// default serves from the snapshot's cached sketches instead of rebuilding
// them from the set — the linearity of the sketches makes the two
// bit-identical while removing the set-proportional per-connection cost.
// ApplyUpdate mutates the canonical set between (or during) syncs;
// in-flight sessions keep their pinned snapshot. See DESIGN.md §9.
//
// Threading model: Start() spawns one accept thread plus a fixed pool of
// worker threads; accepted connections go through a queue and each worker
// serves one connection at a time, blocking on its socket. Sessions are
// single-threaded end to end — only the queue (behind a mutex) and the
// metrics registry (lock-free record path; server/server_obs.h) are
// shared — which is what keeps the protocol code
// (written for the in-process driver) safe to host unchanged. See
// DESIGN.md §6.

#ifndef RSR_SERVER_SYNC_SERVER_H_
#define RSR_SERVER_SYNC_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/byte_stream.h"
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

struct SyncServerOptions {
  /// Shared public coins; clients must be constructed with the same
  /// context or the hash-based sketches will not line up.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  size_t worker_threads = 4;
  net::FrameLimits limits;
  /// Runaway-protocol safeguard, as in recon::DrivePair.
  size_t max_deliveries = 1 << 16;
  /// Serve Bob sessions from the SketchStore's cached canonical sketches
  /// (each family built once, on first demand, then maintained under
  /// ApplyUpdate) instead of rebuilding them from the set per connection.
  /// Results are bit-identical either way; false passes sessions no
  /// provider, so the store builds nothing for them — the rebuild
  /// baseline measured by bench_e18_churn.
  bool serve_from_cache = true;
  /// Protocol registry to negotiate against; nullptr = the global one.
  const recon::ProtocolRegistry* registry = nullptr;
  /// When set, the host replicates: every ApplyUpdate is journaled here
  /// (write-through, under one lock with the store mutation), "@log-fetch"
  /// is served from it, and the host's replication position travels in
  /// every "@accept". Not owned; must outlive the server.
  replica::Changelog* changelog = nullptr;
  /// Upper bound on entries per served "@log-batch" (a fetch's own
  /// max_entries only tightens it).
  size_t log_fetch_max_entries = 512;
  /// Per-session idle deadline: a connection whose socket yields no byte
  /// for this long is failed and counted in idle_timeouts. 0 disables.
  /// Enforced only where the transport can arm a read deadline
  /// (ByteStream::SetReadTimeout — TCP yes, pipes no).
  std::chrono::milliseconds idle_timeout{0};
  /// Gates the optional latency probes (worker-queue delay, store apply
  /// latency). Session outcome counters and per-protocol latency
  /// histograms stay on regardless — DumpStats() is rebuilt from them.
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

// ProtocolStats and SyncServerMetrics moved to server/server_stats.h so
// the async host (server/async_sync_server.h) reports identical counters.

class SyncServer {
 public:
  SyncServer(PointSet canonical, SyncServerOptions options);
  ~SyncServer();

  SyncServer(const SyncServer&) = delete;
  SyncServer& operator=(const SyncServer&) = delete;

  /// Serves exactly one connection to completion on the calling thread.
  /// This is the whole per-session logic; Start()'s workers call it, and
  /// tests drive it directly over a PipeStream.
  void ServeConnection(net::ByteStream* stream);

  /// Spawns the accept thread and worker pool over `listener`. Returns
  /// false if already started or `listener` is null.
  bool Start(std::unique_ptr<net::TcpListener> listener);

  /// Closes the listener plus every queued and in-flight connection
  /// stream (so shutdown never waits on a silent client), then joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// Bound TCP port (0 unless Start()ed).
  uint16_t port() const;

  /// Legacy flat counters snapshot, rebuilt from the metrics registry.
  SyncServerMetrics metrics() const;

  /// Plain-text counters dump (server/server_stats.h): one totals line
  /// (generation + replication position included) plus one line per
  /// negotiated protocol.
  std::string DumpStats() const;

  /// The host's metrics registry — the "@stats" admin verb and the syncd
  /// `--metrics-port` HTTP responder serve its Prometheus rendering, and
  /// subsystems riding on this host (replica/replica_node.h) register
  /// their instruments here. See DESIGN.md §12.
  obs::MetricsRegistry& metrics_registry() { return obs_.registry(); }
  const obs::MetricsRegistry& metrics_registry() const {
    return obs_.registry();
  }

  /// The registry in Prometheus text exposition format (what "@stats"
  /// answers with).
  std::string RenderMetrics() const {
    return obs_.registry().RenderPrometheus();
  }

  /// Mutates the canonical set (erases first, then inserts; see
  /// SketchStore::ApplyUpdate) and returns the new generation's snapshot.
  /// Safe to call while connections are being served: in-flight sessions
  /// finish against the snapshot they were accepted under. On a
  /// replicating host the batch is also journaled at replica_seq() + 1,
  /// atomically with the store mutation.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(const PointSet& inserts,
                                                    const PointSet& erases);

  /// ApplyUpdate variant stamping the journaled entry with the trace
  /// that caused the mutation, so downstream replication rounds can link
  /// their spans to it (the append-time clock stamp is taken either
  /// way). An invalid `trace` journals an untraced entry.
  std::shared_ptr<const SketchSnapshot> ApplyUpdate(
      const PointSet& inserts, const PointSet& erases,
      const obs::TraceContext& trace);

  /// Applies one journaled entry fetched from a peer (the log catch-up
  /// path): exactly ApplyUpdate, except the position comes from the entry
  /// and the entry is mirrored into this host's own changelog verbatim, so
  /// the replayed history stays bit-identical to the writer's. Entries at
  /// or below replica_seq() are skipped (idempotent); an entry above
  /// replica_seq() + 1 is a replication bug and checks fatally.
  std::shared_ptr<const SketchSnapshot> ApplyReplicated(
      const replica::ChangeEntry& entry);

  /// Installs the outcome of a protocol repair against a peer at position
  /// `seq`: applies the delta, then — when the repair was `exact` (an
  /// exact-key protocol against a clean peer) — adopts `seq` as this
  /// host's position and re-bases the changelog there
  /// (Changelog::MarkSnapshot). An approximate repair leaves the position
  /// and log alone and marks the host dirty: its set now corresponds to no
  /// journal position, so it must repair (never tail-replay) until an
  /// exact repair lands. See replica/replica_node.h.
  std::shared_ptr<const SketchSnapshot> InstallRepair(const PointSet& inserts,
                                                      const PointSet& erases,
                                                      uint64_t seq,
                                                      bool exact);

  /// Replication position: seq of the last journaled mutation folded into
  /// the canonical set (0 on a non-replicating host).
  uint64_t replica_seq() const;

  /// True after an approximate repair, until an exact one supersedes it.
  bool repair_dirty() const;

  /// The current canonical snapshot (points + generation + sketches).
  std::shared_ptr<const SketchSnapshot> snapshot() const {
    return store_.Snapshot();
  }

  /// The current canonical point set (by value: the set mutates under
  /// ApplyUpdate while the snapshot it came from stays frozen).
  PointSet canonical() const { return store_.Snapshot()->points(); }

 private:
  /// Per-connection I/O wrapper (defined in the .cc): FramedStream plus
  /// the idle-deadline classification and the session's trace span.
  struct SessionIo;

  void AcceptLoop();
  void WorkerLoop();
  /// Serves an "@log-fetch" opening frame to completion (the whole
  /// connection is that one exchange). Called by ServeConnection.
  void ServeLogFetch(SessionIo& io, const transport::Message& first,
                     net::ByteStream* stream);
  /// Serves an "@pull" opening frame: hosts the Alice side of the named
  /// protocol over the canonical snapshot until the puller closes.
  void ServePull(SessionIo& io, const transport::Message& first,
                 net::ByteStream* stream);
  /// Serves an "@stats" opening frame: one reply carrying RenderMetrics().
  void ServeStats(SessionIo& io, net::ByteStream* stream);
  void SettleSession(SessionIo& io, const std::string& name, bool success,
                     double wall_seconds);
  /// Attaches trace identity + sampling to the session span: adopts the
  /// inbound context (deriving this host's span id with `salt`) or mints
  /// a fresh root trace when tracing is on and none arrived.
  void AdoptTrace(SessionIo& io, const obs::TraceContext& inbound,
                  uint64_t salt);

  const SyncServerOptions options_;
  /// Declared before store_: the store's instruments live in obs_'s
  /// registry.
  ServerObs obs_;
  obs::Clock* const clock_;
  /// Mints trace ids for sessions arriving without inbound context.
  obs::TraceIdGenerator trace_gen_;
  SketchStore store_;
  const recon::ProtocolRegistry* const registry_;
  /// Replication-position instruments, set on the write path under
  /// replica_mu_ so a scrape never takes that lock.
  obs::Gauge* const replica_seq_gauge_;
  obs::Gauge* const repair_dirty_gauge_;

  /// Guards the (store mutation, changelog append, replica_seq_,
  /// repair_dirty_) compound so a served snapshot + position pair is
  /// always consistent. LOCK ORDER: this is the OUTERMOST lock of the
  /// write path — the store's and changelog's internal mutexes nest
  /// inside it (replica_mu_ → store mu_ / changelog mu_; DESIGN.md §13).
  /// Never call back into SyncServer's locking methods while holding it.
  mutable Mutex replica_mu_;
  uint64_t replica_seq_ RSR_GUARDED_BY(replica_mu_) = 0;
  bool repair_dirty_ RSR_GUARDED_BY(replica_mu_) = false;

  std::unique_ptr<net::TcpListener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// A queued connection remembers when it was accepted so the dequeuing
  /// worker can observe the queue-delay histogram.
  struct PendingConn {
    std::unique_ptr<net::ByteStream> stream;
    std::chrono::steady_clock::time_point enqueued;
  };

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<PendingConn> pending_ RSR_GUARDED_BY(queue_mu_);
  bool stopping_ RSR_GUARDED_BY(queue_mu_) = false;

  /// Streams currently inside a worker's ServeConnection; Stop() closes
  /// them to unblock sessions stuck on a silent or slow client.
  /// LOCK ORDER: acquired with queue_mu_ already held in the dequeue
  /// path, so active_mu_ nests inside queue_mu_ — never the reverse.
  Mutex active_mu_ RSR_ACQUIRED_AFTER(queue_mu_);
  std::set<net::ByteStream*> active_ RSR_GUARDED_BY(active_mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SYNC_SERVER_H_
