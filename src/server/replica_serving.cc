#include "server/replica_serving.h"

#include <algorithm>
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

LogBatchFrame BuildLogBatch(const LogFetchFrame& fetch,
                            const replica::Changelog* changelog,
                            const SketchSnapshot& snapshot,
                            uint64_t replica_seq, bool repair_dirty,
                            const recon::ProtocolContext& context,
                            size_t max_entries_cap) {
  LogBatchFrame batch;
  batch.last_seq = replica_seq;
  batch.dirty = repair_dirty;
  if (changelog != nullptr) {
    size_t cap = max_entries_cap;
    if (fetch.max_entries > 0) {
      cap = std::min<size_t>(cap, static_cast<size_t>(fetch.max_entries));
    }
    replica::FetchedEntries fetched = changelog->Fetch(fetch.from_seq, cap);
    batch.ok = fetched.ok;
    batch.complete = fetched.complete;
    batch.entries = std::move(fetched.entries);
  }
  if (!batch.ok || batch.dirty || fetch.want_strata) {
    batch.strata = SnapshotStrata(snapshot, context);
  }
  return batch;
}

}  // namespace server
}  // namespace rsr
