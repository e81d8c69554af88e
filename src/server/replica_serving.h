// Replication serving logic shared by both sync hosts.
//
// Answering an "@log-fetch" is the same computation whether the host is
// the threaded SyncServer or the epoll AsyncSyncServer: slice the
// changelog tail after the requested position, report the host's
// replication position, and — when the tail is gone (or explicitly asked
// for) — attach the exact-keys strata estimator so the fetching replica
// can size its protocol repair before choosing one. Both hosts call
// BuildLogBatch under their replication lock so the (entries, last_seq,
// strata) triple is one consistent view. See DESIGN.md §10.

#ifndef RSR_SERVER_REPLICA_SERVING_H_
#define RSR_SERVER_REPLICA_SERVING_H_

#include <cstddef>
#include <cstdint>

#include "iblt/strata.h"
#include "replica/changelog.h"
#include "server/handshake.h"
#include "server/sketch_store.h"

namespace rsr {
namespace server {

/// The exact-keys strata estimator of `snapshot`'s point set under the
/// baseline config recon::ExactReconStrataConfig(context.seed), served by
/// the snapshot's exact-strata family (materialized on first use).
/// `context` must be the one the snapshot's store was built with. This is
/// the estimator every ExactBob session ships, so a repair sized from it
/// matches what the repair protocol will see.
StrataEstimator SnapshotStrata(const SketchSnapshot& snapshot,
                               const recon::ProtocolContext& context);

/// Answers one "@log-fetch". `changelog` may be null (a host that does not
/// journal serves ok = false, forcing the fetcher onto the repair path);
/// `replica_seq` is the host's replication position, reported as
/// last_seq. `repair_dirty` is the host's approximate-repair flag: a
/// dirty host's tail does not replay onto the canonical set-at-from_seq,
/// so the batch both carries the flag (the fetcher must repair, not
/// replay) and attaches the strata estimator unconditionally so the
/// repair can be sized from this one round trip. `max_entries_cap`
/// bounds the slice regardless of what the fetch asked for. Call under
/// the host's replication lock so (entries, last_seq, dirty, strata) are
/// one consistent view.
LogBatchFrame BuildLogBatch(const LogFetchFrame& fetch,
                            const replica::Changelog* changelog,
                            const SketchSnapshot& snapshot,
                            uint64_t replica_seq, bool repair_dirty,
                            const recon::ProtocolContext& context,
                            size_t max_entries_cap);

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_REPLICA_SERVING_H_
