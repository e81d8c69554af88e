// The replicated canonical set both serving hosts are built on.
//
// A CanonicalHost owns what a host serves and how it changes: the
// canonical point set in a SketchStore (server/sketch_store.h), the
// replication position (replica_seq, the approximate-repair dirty flag)
// and the optional changelog every write is journaled to, the metrics
// registry (server/server_obs.h) and the trace id generator. Every
// protocol decision lives in server::Connection (server/connection.h),
// which reads this state; the two hosts derive from this class and add
// only their I/O model — SyncServer a worker pool of blocking pumps,
// AsyncSyncServer an epoll reactor. See DESIGN.md §6 and §13.2.

#ifndef RSR_SERVER_CANONICAL_HOST_H_
#define RSR_SERVER_CANONICAL_HOST_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/frame.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/changelog.h"
#include "server/server_obs.h"
#include "server/sketch_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

/// Options every serving host shares; each host adds only its I/O knobs.
struct ServingOptions {
  /// Shared public coins; clients must be constructed with the same
  /// context or the hash-based sketches will not line up.
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  net::FrameLimits limits;
  /// Runaway-protocol safeguard, as in recon::DrivePair; also bounds the
  /// frames discarded while draining after a reply.
  size_t max_deliveries = recon::kMaxDeliveries;
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
  /// every "@accept". Not owned; must outlive the host.
  replica::Changelog* changelog = nullptr;
  /// Per-connection idle deadline: a connection that yields no byte for
  /// this long is failed and counted in idle_timeouts. 0 disables. The
  /// threaded host enforces it only where the transport can arm a read
  /// deadline (ByteStream::SetReadTimeout — TCP yes, pipes no); the
  /// reactor on its timer wheel, at tick granularity.
  std::chrono::milliseconds idle_timeout{0};
  /// Gates the optional latency probes (worker-queue delay, accept-to-
  /// first-frame delay, event-loop and store apply latency). Session
  /// outcome counters and per-protocol latency histograms stay on
  /// regardless.
  bool latency_probes = true;
  /// Per-session trace spans (obs/trace.h) are emitted here; null
  /// disables tracing. Not owned; must outlive the host.
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

class CanonicalHost {
 public:
  CanonicalHost(const CanonicalHost&) = delete;
  CanonicalHost& operator=(const CanonicalHost&) = delete;

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

 protected:
  CanonicalHost(PointSet canonical, const ServingOptions& options);
  ~CanonicalHost() = default;

  const ServingOptions& serving_options() const { return options_; }
  ServerObs& obs() { return obs_; }

 private:
  // The verb state machine reads the pin, the registry and the trace
  // generator, and builds "@log-batch" under replica_mu_.
  friend class Connection;

  /// What a session pins: one generation with the replication state it
  /// corresponds to.
  struct Pin {
    std::shared_ptr<const SketchSnapshot> snapshot;
    uint64_t seq = 0;
    bool dirty = false;
  };
  /// Publishes the current (snapshot, replica_seq_, repair_dirty_) as the
  /// pin and mirrors the position onto its gauges; every write path calls
  /// it before releasing replica_mu_.
  void PublishPin(std::shared_ptr<const SketchSnapshot> snapshot)
      RSR_REQUIRES(replica_mu_);
  Pin CurrentPin() const;

  const ServingOptions options_;
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
  /// always consistent; "@log-fetch" holds it while it slices the log.
  /// LOCK ORDER: this is the OUTERMOST lock of the write path — the
  /// store's and changelog's internal mutexes nest inside it
  /// (replica_mu_ → store mu_ / changelog mu_; DESIGN.md §13). Never call
  /// back into the host's locking methods while holding it.
  mutable Mutex replica_mu_;
  uint64_t replica_seq_ RSR_GUARDED_BY(replica_mu_) = 0;
  bool repair_dirty_ RSR_GUARDED_BY(replica_mu_) = false;

  /// Leaf lock over the published pin. Sessions and "@accept" read only
  /// this, so they never wait behind a batch being applied under
  /// replica_mu_. LOCK ORDER: replica_mu_ → pin_mu_; nothing nests inside.
  mutable Mutex pin_mu_ RSR_ACQUIRED_AFTER(replica_mu_);
  Pin pin_ RSR_GUARDED_BY(pin_mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_CANONICAL_HOST_H_
