#include "server/canonical_host.h"

#include <utility>

#include "util/check.h"

namespace rsr {
namespace server {

CanonicalHost::CanonicalHost(PointSet canonical, const ServingOptions& options)
    : options_(options),
      obs_(ServerObsOptions{options_.latency_probes, options_.trace_sink}),
      clock_(options_.clock != nullptr ? options_.clock : obs::Clock::Real()),
      trace_gen_(options_.trace_seed),
      store_(std::move(canonical),
             SketchStoreOptions{
                 options_.context, options_.params,
                 MakeStoreMetrics(&obs_.registry(), options_.latency_probes)}),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &recon::ProtocolRegistry::Global()),
      replica_seq_gauge_(obs_.registry().GetGauge(
          "rsr_replica_seq",
          "Replication position (last journaled seq folded into the set)")),
      repair_dirty_gauge_(obs_.registry().GetGauge(
          "rsr_replica_repair_dirty",
          "1 after an approximate repair, until an exact one supersedes")),
      pin_{store_.Snapshot()} {}

std::shared_ptr<const SketchSnapshot> CanonicalHost::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  return ApplyUpdate(inserts, erases, obs::TraceContext());
}

std::shared_ptr<const SketchSnapshot> CanonicalHost::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases,
    const obs::TraceContext& trace) {
  MutexLock lock(replica_mu_);
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(inserts, erases);
  if (options_.changelog != nullptr) {
    replica::ChangeEntry entry;
    entry.seq = ++replica_seq_;
    entry.inserts = inserts;
    entry.erases = erases;
    entry.append_micros = clock_->NowMicros();
    entry.trace_hi = trace.trace_hi;
    entry.trace_lo = trace.trace_lo;
    options_.changelog->Append(std::move(entry));
  }
  PublishPin(snap);
  return snap;
}

std::shared_ptr<const SketchSnapshot> CanonicalHost::ApplyReplicated(
    const replica::ChangeEntry& entry) {
  MutexLock lock(replica_mu_);
  if (entry.seq <= replica_seq_) return store_.Snapshot();
  RSR_CHECK_MSG(entry.seq == replica_seq_ + 1,
                "replicated entry would leave a seq gap");
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(entry.inserts, entry.erases);
  replica_seq_ = entry.seq;
  if (options_.changelog != nullptr) options_.changelog->Append(entry);
  PublishPin(snap);
  return snap;
}

std::shared_ptr<const SketchSnapshot> CanonicalHost::InstallRepair(
    const PointSet& inserts, const PointSet& erases, uint64_t seq,
    bool exact) {
  MutexLock lock(replica_mu_);
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(inserts, erases);
  if (exact) {
    replica_seq_ = seq;
    repair_dirty_ = false;
    if (options_.changelog != nullptr) options_.changelog->MarkSnapshot(seq);
  } else {
    // The set now corresponds to no journal position: stay at the old seq
    // (so a later exact repair re-bases correctly) and flag the state.
    repair_dirty_ = true;
  }
  PublishPin(snap);
  return snap;
}

void CanonicalHost::PublishPin(std::shared_ptr<const SketchSnapshot> snapshot) {
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  repair_dirty_gauge_->Set(repair_dirty_ ? 1 : 0);
  MutexLock lock(pin_mu_);
  pin_ = Pin{std::move(snapshot), replica_seq_, repair_dirty_};
}

CanonicalHost::Pin CanonicalHost::CurrentPin() const {
  MutexLock lock(pin_mu_);
  return pin_;
}

uint64_t CanonicalHost::replica_seq() const {
  MutexLock lock(replica_mu_);
  return replica_seq_;
}

bool CanonicalHost::repair_dirty() const {
  MutexLock lock(replica_mu_);
  return repair_dirty_;
}

}  // namespace server
}  // namespace rsr
