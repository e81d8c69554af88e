// Replication changelog: an append-only, sequence-numbered journal of
// point mutations.
//
// Every mutation of a replicated canonical set is recorded as one
// ChangeEntry — the (inserts, erases) batch handed to
// SketchStore::ApplyUpdate, stamped with a replication sequence number.
// Replaying entries (seq, seq+1, ...] through ApplyUpdate on any replica
// that holds the set-at-seq reproduces the writer's point sequence exactly
// — same multiset, same order, and therefore (by the sketches' linearity)
// bit-identical serving sketches. That determinism is what makes the log
// the cheap catch-up path of the anti-entropy mesh (replica/replica_node.h):
// a follower that is `d` entries behind fetches `d` small batches instead
// of reconciling whole sets.
//
// The log is a bounded in-memory ring: the newest `capacity` entries are
// retained and older ones fall off the front. A fetch from a position that
// has fallen off reports `ok = false` — the caller has lost log coverage
// and must repair via full pairwise reconciliation instead (the protocols
// this repo reproduces, self-hosted as the mesh's repair path).
// MarkSnapshot(seq) records exactly that outcome on the receiving side:
// "everything up to seq is folded into the set I just installed", clearing
// the ring and restarting coverage at seq.
//
// The ring is the only copy of the journal: a ChangeEntry has exactly one
// encoding, the "@log-batch" codec of server/handshake.h. A process that
// restarts rebuilds its set by reconciling with a peer.
//
// Thread safety: all methods are safe to call concurrently (one mutex);
// Append publishes entries atomically with respect to Fetch, which is what
// the append-while-tail test pins down under TSan.

#ifndef RSR_REPLICA_CHANGELOG_H_
#define RSR_REPLICA_CHANGELOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "geometry/point.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace replica {

/// One journaled mutation batch. Applying it means exactly what
/// SketchStore::ApplyUpdate does: erases first (first-equal match, absent
/// values skipped), then inserts appended — so a replayed entry is
/// deterministic given the pre-state multiset.
struct ChangeEntry {
  uint64_t seq = 0;  ///< 1-based; the entry produces the set-at-seq.
  PointSet inserts;
  PointSet erases;

  // Observability metadata (DESIGN.md §12), stamped by the writer at
  // append time and carried through "@log-batch" so followers can
  // measure append→apply propagation delay and link replication rounds
  // to the client trace that caused the mutation. Deliberately NOT part
  // of equality: two logs holding the same mutations are the same log
  // even when stamped by different clocks.
  uint64_t append_micros = 0;  ///< obs::Clock reading at Append.
  uint64_t trace_hi = 0;       ///< Originating trace id (0 = untraced).
  uint64_t trace_lo = 0;

  bool operator==(const ChangeEntry& other) const {
    return seq == other.seq && inserts == other.inserts &&
           erases == other.erases;
  }
};

struct ChangelogOptions {
  /// Ring capacity in entries; older entries fall off the front.
  size_t capacity = 1024;
};

/// Result of one Fetch: the entries with seq in (from_seq, last_seq],
/// oldest first, capped at the requested maximum.
struct FetchedEntries {
  /// False when entries directly after `from_seq` have fallen off the
  /// ring: the caller cannot catch up from the log and must reconcile.
  bool ok = false;
  /// True when the returned entries reach last_seq (no cap truncation);
  /// meaningful only when ok.
  bool complete = false;
  uint64_t last_seq = 0;  ///< The log's head position.
  std::vector<ChangeEntry> entries;
};

class Changelog {
 public:
  explicit Changelog(ChangelogOptions options = {}) : options_(options) {}

  Changelog(const Changelog&) = delete;
  Changelog& operator=(const Changelog&) = delete;

  /// Appends one entry. `entry.seq` must be exactly last_seq() + 1 — the
  /// journal is gapless by construction (a gap would silently corrupt
  /// every replayer). Checked fatally.
  void Append(ChangeEntry entry);

  /// Declares that the set-at-`seq` was installed wholesale (a protocol
  /// repair, not a replay): clears the ring and restarts coverage at
  /// `seq`, so subsequent fetches from below `seq` report ok = false.
  void MarkSnapshot(uint64_t seq);

  /// Entries with seq in (from_seq, last_seq], at most `max_entries` of
  /// them (0 means no cap).
  FetchedEntries Fetch(uint64_t from_seq, size_t max_entries = 0) const;

  /// The seq every retained entry is above: fetches from below base_seq
  /// fail. Starts at 0 (full coverage from the seed set).
  uint64_t base_seq() const;
  /// Seq of the newest entry (== base_seq when the ring is empty).
  uint64_t last_seq() const;
  size_t size() const;

 private:
  const ChangelogOptions options_;
  /// Guards the ring and coverage base as one unit so Append publishes
  /// atomically w.r.t. Fetch. On a replicating host this mutex nests
  /// INSIDE the host's replica_mu_ (DESIGN.md §13).
  mutable Mutex mu_;
  /// Invariant: entries_[i].seq == base_seq_ + i + 1.
  std::deque<ChangeEntry> entries_ RSR_GUARDED_BY(mu_);
  uint64_t base_seq_ RSR_GUARDED_BY(mu_) = 0;
};

}  // namespace replica
}  // namespace rsr

#endif  // RSR_REPLICA_CHANGELOG_H_
