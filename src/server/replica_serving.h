// The exact-keys strata estimator a replicating host serves: attached to
// "@log-batch" replies (server/connection.h) so a fetching replica can
// size its protocol repair before choosing one, and computed by the
// replica itself for the comparison (replica/replica_node.h). See
// DESIGN.md §10.

#ifndef RSR_SERVER_REPLICA_SERVING_H_
#define RSR_SERVER_REPLICA_SERVING_H_

#include "iblt/strata.h"
#include "recon/protocol.h"
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

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_REPLICA_SERVING_H_
