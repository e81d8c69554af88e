#include "server/replica_serving.h"

#include <utility>

#include "recon/exact_recon.h"
#include "util/check.h"

namespace rsr {
namespace server {

StrataEstimator SnapshotStrata(const SketchSnapshot& snapshot,
                               const recon::ProtocolContext& context) {
  std::optional<StrataEstimator> strata =
      snapshot.ExactStrata(recon::ExactReconStrataConfig(context.seed));
  RSR_CHECK_MSG(strata.has_value(),
                "the host's context must be the one its store was built with");
  return *std::move(strata);
}

}  // namespace server
}  // namespace rsr
