// One replica of the canonical set: a serving host plus the anti-entropy
// pull logic that keeps it converging toward its peers.
//
// A ReplicaNode owns a Changelog and a server::SyncServer wired to journal
// through it, so the node both serves (ordinary "@hello" syncs, plus the
// replication verbs "@log-fetch" and "@pull") and follows. One anti-entropy
// round — SyncWithPeer — is a PULL:
//
//   1. "@log-fetch" from the node's own position. If the peer still holds
//      the tail (ok) and this node is clean, replay the entries through
//      ApplyReplicated — same batches, same order, so the follower's set
//      AND serving sketches come out bit-identical to the writer's
//      (replica/changelog.h). This is the cheap path: cost ∝ delta.
//   2. Otherwise the node has fallen off the peer's ring (or is dirty from
//      an approximate repair) and must REPAIR: estimate the difference
//      from the peer's exact-keys strata (shipped in the "@log-batch"),
//      pick the cheapest adequate protocol, open an "@pull", run the BOB
//      side locally against the peer-hosted Alice — the direction that
//      moves THIS node's set toward the peer's — and install Bob's repair
//      of the node's set: the points it retires are erased, the points it
//      adds inserted.
//
// Protocol choice is the repair decision rule (DESIGN.md §10): with d̂ the
// strata estimate times a 1.5 headroom,
//
//   d̂ == 0 and tail empty        -> in-sync, nothing to do
//   d̂ <= exact_budget            -> exact-key protocol (riblt-oneshot):
//                                   exact install, adopt the peer's seq
//   clean and d̂ <= approx_budget -> approximate protocol (quadtree):
//                                   EMD-bounded install, node goes DIRTY
//   otherwise                    -> full-transfer: exact, unconditional
//
// A dirty node's set corresponds to no journal position, so it never
// tail-replays and never takes the approximate band again — its next
// rounds escalate to an exact protocol, which clears the flag. That (plus
// full-transfer as the unconditional safety net) is what guarantees the
// mesh reaches exact zero divergence at quiescence no matter how far a
// node fell behind. An install against a peer that is itself dirty is
// never marked exact either (PullAcceptFrame::dirty): the pulled set may
// be off-log, so adopting its seq would poison the log-coverage invariant.

#ifndef RSR_REPLICA_REPLICA_NODE_H_
#define RSR_REPLICA_REPLICA_NODE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/byte_stream.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "replica/changelog.h"
#include "server/sync_server.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace replica {

/// Dials one fresh connection to a peer. Returning null fails the round.
using StreamFactory = std::function<std::unique_ptr<net::ByteStream>()>;

struct ReplicaNodeOptions {
  /// Host options (context, params, limits, registry...). The `changelog`
  /// field is overwritten — the node wires in its own journal.
  server::SyncServerOptions server;
  ChangelogOptions changelog;
  /// d̂ at or below which the exact-key repair protocol is chosen; 0
  /// derives the resolved riblt.k (what riblt-oneshot is sized for).
  size_t exact_budget = 0;
  /// Ceiling of the approximate band; 0 disables it (exact-only repairs).
  size_t approx_budget = 0;
  /// FUZZ-ONLY divergence-bug injection seam: when set, every changelog
  /// entry this node tail-replays is passed through the hook first (the
  /// hook may drop inserts/erases but MUST NOT touch seq). The convergence
  /// fuzzer's self-test (src/fuzz/) plants a known bug here — e.g. drop
  /// one erase — and asserts the quiescence oracle catches it. Never set
  /// in production code.
  std::function<void(ChangeEntry*)> fuzz_tail_tamper;
  /// Name stamped on this node's "replica-round" trace spans
  /// ("attr.node") and expected by meshmon dashboards (e.g. "node0").
  std::string node_name = "node";
  /// Ship each round's trace context on "@log-fetch" / "@pull" so the
  /// peer's serving-side session span joins the round's trace. Old peers
  /// ignore the trailing field (server/handshake.h).
  bool propagate_trace = true;
};

/// What one anti-entropy round did.
struct RoundRecord {
  enum class Path {
    kInSync,        ///< Already at the peer's position; no work.
    kTail,          ///< Replayed changelog entries.
    kRepairExact,   ///< Protocol repair, exact-key protocol.
    kRepairApprox,  ///< Protocol repair, approximate protocol (went dirty).
    kRepairFull,    ///< Protocol repair, full transfer.
    kError,         ///< Transport or protocol failure; nothing installed.
  };
  Path path = Path::kError;
  bool ok = false;
  size_t entries_applied = 0;
  /// Headroom-scaled strata estimate (repair paths only).
  uint64_t est_delta = 0;
  uint64_t peer_seq = 0;
  uint64_t seq_after = 0;
  bool dirty_after = false;
  size_t bytes_sent = 0;
  size_t bytes_received = 0;
  std::string protocol;  ///< Repair protocol used ("" otherwise).
  std::string error_detail;
};

const char* RoundPathName(RoundRecord::Path path);

class ReplicaNode {
 public:
  ReplicaNode(PointSet initial, ReplicaNodeOptions options);

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  /// Writer-side mutation: journals and applies one batch (the host's
  /// write-through ApplyUpdate).
  std::shared_ptr<const server::SketchSnapshot> Apply(const PointSet& inserts,
                                                      const PointSet& erases);

  /// Apply variant stamping the journaled entry with the trace that
  /// caused the mutation (SyncServer::ApplyUpdate), so follower rounds
  /// that later carry the entry link their spans back to it.
  std::shared_ptr<const server::SketchSnapshot> Apply(
      const PointSet& inserts, const PointSet& erases,
      const obs::TraceContext& trace);

  /// One anti-entropy round against the peer behind `peer` (see the file
  /// comment). Blocking; dials up to two connections (fetch, then repair).
  /// `peer_name` labels the per-peer lag/staleness instruments and the
  /// round's trace span.
  RoundRecord SyncWithPeer(const StreamFactory& peer,
                           const std::string& peer_name = "peer");

  /// Split-dialer form: the "@log-fetch" leg dials `fetch_peer` and the
  /// "@pull" repair leg dials `repair_peer`. Both hosts serve both verbs
  /// (DESIGN.md §10.4); the legs are separable for a tail source that has
  /// no replication position of its own — the convergence fuzzer's
  /// transient async host shares a node's changelog, so its async-host
  /// sync steps tail from it and repair from the node itself.
  RoundRecord SyncWithPeer(const StreamFactory& fetch_peer,
                           const StreamFactory& repair_peer,
                           const std::string& peer_name = "peer");

  server::SyncServer& host() { return server_; }
  const server::SyncServer& host() const { return server_; }
  Changelog& changelog() { return changelog_; }
  uint64_t applied_seq() const { return server_.replica_seq(); }
  bool dirty() const { return server_.repair_dirty(); }
  PointSet points() const { return server_.canonical(); }
  std::shared_ptr<const server::SketchSnapshot> snapshot() const {
    return server_.snapshot();
  }

 private:
  /// Per-peer replication-lag instruments, resolved lazily the first time
  /// a named peer is synced (view_mu_ held).
  struct PeerInstruments {
    obs::Histogram* lag = nullptr;      ///< append→apply delay, seconds
    obs::Gauge* staleness = nullptr;    ///< newest applied entry's age, µs
  };

  RoundRecord RunRound(const StreamFactory& fetch_peer,
                       const StreamFactory& repair_peer,
                       const std::string& peer_name,
                       const obs::TraceContext& trace,
                       obs::SessionSpan* span);
  RoundRecord Repair(const StreamFactory& peer, uint64_t est_delta,
                     RoundRecord record, const obs::TraceContext& trace,
                     obs::SessionSpan* span);
  /// Settles one finished round into the host's metrics registry
  /// (DESIGN.md §12): per-path round counter, round bytes, the staleness
  /// gauge (peer position minus local position), and the peer-view /
  /// watermark refresh.
  void RecordRound(const RoundRecord& record, const std::string& peer_name);
  PeerInstruments& PeerFor(const std::string& peer_name)
      RSR_REQUIRES(view_mu_);
  /// Recomputes rsr_replica_convergence_watermark = min(own position,
  /// every known peer position).
  void RefreshWatermarkLocked() RSR_REQUIRES(view_mu_);

  ReplicaNodeOptions options_;
  Changelog changelog_;
  server::SyncServer server_;
  obs::Clock* const clock_;
  /// Mints one root trace per anti-entropy round.
  obs::TraceIdGenerator trace_gen_;
  /// Incremented at the sites that arm escalate_next_repair_.
  obs::Counter* const repair_escalations_;
  obs::Gauge* const staleness_gauge_;
  obs::Gauge* const watermark_gauge_;
  /// Sampling-decision counters shared with the host's session spans
  /// (same registry instruments; server/server_obs.h).
  obs::Counter* const span_emitted_;
  obs::Counter* const span_dropped_;

  /// Guards the node's view of its peers' positions (fed by round
  /// results), the lazily-registered per-peer instruments, and the repair
  /// escalation latch. Leaf lock: never held across a peer connection or
  /// any other mutex (DESIGN.md §13).
  Mutex view_mu_;
  std::map<std::string, uint64_t> peer_seqs_ RSR_GUARDED_BY(view_mu_);
  std::map<std::string, PeerInstruments> peer_instruments_
      RSR_GUARDED_BY(view_mu_);
  /// Set when a repair session failed (e.g. an exact-key sketch sized from
  /// an under-estimate did not decode): the next repair skips the sized
  /// bands and goes straight to the unconditional full transfer, so a
  /// deterministic workload cannot loop on the same failing choice.
  /// Cleared by any successful round.
  bool escalate_next_repair_ RSR_GUARDED_BY(view_mu_) = false;
};

/// Multiset symmetric-difference size |A Δ B| (order-insensitive): the
/// set-divergence measure of the mesh benches; 0 iff the replicas hold
/// identical multisets.
size_t SetDivergence(const PointSet& a, const PointSet& b);

}  // namespace replica
}  // namespace rsr

#endif  // RSR_REPLICA_REPLICA_NODE_H_
