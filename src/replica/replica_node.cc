#include "replica/replica_node.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "net/frame.h"
#include "recon/exact_recon.h"
#include "recon/session.h"
#include "server/handshake.h"
#include "util/check.h"

namespace rsr {
namespace replica {

namespace {

server::SyncServerOptions WithChangelog(server::SyncServerOptions options,
                                        Changelog* changelog) {
  options.changelog = changelog;
  return options;
}

/// FNV-1a over the node name: per-node instance salt so two nodes built
/// with the same pinned trace seed still mint distinct round traces.
uint64_t NameSalt(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Safety multiplier on the strata estimate before it is compared with the
/// budgets (strata estimates are within a small constant factor w.h.p.).
constexpr double kEstimateHeadroom = 1.5;

/// The protocol each repair band runs (see the header comment).
constexpr char kExactRepairProtocol[] = "riblt-oneshot";
constexpr char kApproxRepairProtocol[] = "quadtree";
constexpr char kFullRepairProtocol[] = "full-transfer";

using PointCounts = std::map<Point, int64_t>;

/// True when `entries` are the consecutive seqs from_seq + 1, from_seq + 2,
/// ...: the only tail a follower at `from_seq` can replay.
bool IsTailAfter(const std::vector<ChangeEntry>& entries, uint64_t from_seq) {
  for (const ChangeEntry& entry : entries) {
    if (entry.seq != ++from_seq) return false;
  }
  return true;
}

}  // namespace

const char* RoundPathName(RoundRecord::Path path) {
  switch (path) {
    case RoundRecord::Path::kInSync:
      return "in-sync";
    case RoundRecord::Path::kTail:
      return "tail";
    case RoundRecord::Path::kRepairExact:
      return "repair-exact";
    case RoundRecord::Path::kRepairApprox:
      return "repair-approx";
    case RoundRecord::Path::kRepairFull:
      return "repair-full";
    case RoundRecord::Path::kError:
      return "error";
  }
  return "error";
}

size_t SetDivergence(const PointSet& a, const PointSet& b) {
  PointCounts counts;
  for (const Point& p : a) ++counts[p];
  for (const Point& p : b) --counts[p];
  size_t divergence = 0;
  for (const auto& [point, count] : counts) {
    (void)point;
    divergence += static_cast<size_t>(count < 0 ? -count : count);
  }
  return divergence;
}

ReplicaNode::ReplicaNode(PointSet initial, ReplicaNodeOptions options)
    : options_(std::move(options)),
      changelog_(options_.changelog),
      server_(std::move(initial),
              WithChangelog(options_.server, &changelog_)),
      clock_(options_.server.clock != nullptr ? options_.server.clock
                                              : obs::Clock::Real()),
      trace_gen_(options_.server.trace_seed, NameSalt(options_.node_name)),
      repair_escalations_(server_.metrics_registry().GetCounter(
          "rsr_replica_repair_escalations_total",
          "Failed repair sessions that armed the full-transfer escalation")),
      staleness_gauge_(server_.metrics_registry().GetGauge(
          "rsr_replica_staleness",
          "Peer position minus local position at the last round")),
      watermark_gauge_(server_.metrics_registry().GetGauge(
          "rsr_replica_convergence_watermark",
          "Lowest replication position known across this node and its "
          "peers")),
      span_emitted_(server_.metrics_registry().GetCounter(
          "rsr_trace_spans_total", "Trace spans by sampling decision",
          {{"decision", "emitted"}})),
      span_dropped_(server_.metrics_registry().GetCounter(
          "rsr_trace_spans_total", "Trace spans by sampling decision",
          {{"decision", "dropped"}})) {}

std::shared_ptr<const server::SketchSnapshot> ReplicaNode::Apply(
    const PointSet& inserts, const PointSet& erases) {
  return Apply(inserts, erases, obs::TraceContext());
}

std::shared_ptr<const server::SketchSnapshot> ReplicaNode::Apply(
    const PointSet& inserts, const PointSet& erases,
    const obs::TraceContext& trace) {
  std::shared_ptr<const server::SketchSnapshot> snap =
      server_.ApplyUpdate(inserts, erases, trace);
  MutexLock lock(view_mu_);
  RefreshWatermarkLocked();
  return snap;
}

RoundRecord ReplicaNode::SyncWithPeer(const StreamFactory& peer,
                                      const std::string& peer_name) {
  return SyncWithPeer(peer, peer, peer_name);
}

RoundRecord ReplicaNode::SyncWithPeer(const StreamFactory& fetch_peer,
                                      const StreamFactory& repair_peer,
                                      const std::string& peer_name) {
  // One root trace per round: the span below carries it, and (with
  // propagate_trace) both legs ship it so the peer's serving spans join.
  obs::SessionSpan span(options_.server.trace_sink, "replica-round");
  obs::TraceContext trace;
  if (span.active() || options_.propagate_trace) {
    trace = trace_gen_.NewTrace();
  }
  if (span.active()) {
    span.SetTrace(trace, 0);
    span.SetSampling(&options_.server.trace_sampling, span_emitted_,
                     span_dropped_);
    span.SetAttr("node", options_.node_name);
    span.SetAttr("peer", peer_name);
  }
  RoundRecord record = RunRound(fetch_peer, repair_peer, peer_name, trace,
                                &span);
  RecordRound(record, peer_name);
  if (span.active()) {
    if (!record.protocol.empty()) span.set_protocol(record.protocol);
    span.SetAttr("path", RoundPathName(record.path));
    span.set_outcome(record.ok ? "ok" : "error");
    span.Finish();
  }
  return record;
}

void ReplicaNode::RecordRound(const RoundRecord& record,
                              const std::string& peer_name) {
  obs::MetricsRegistry& registry = server_.metrics_registry();
  registry
      .GetCounter("rsr_replica_rounds_total",
                  "Anti-entropy rounds by outcome path",
                  {{"path", RoundPathName(record.path)}})
      ->Inc();
  if (record.bytes_sent > 0) {
    registry
        .GetCounter("rsr_replica_round_bytes_total",
                    "Anti-entropy round transport bytes",
                    {{"direction", "sent"}})
        ->Inc(record.bytes_sent);
  }
  if (record.bytes_received > 0) {
    registry
        .GetCounter("rsr_replica_round_bytes_total",
                    "Anti-entropy round transport bytes",
                    {{"direction", "received"}})
        ->Inc(record.bytes_received);
  }
  // Staleness is meaningful only when the round learned the peer's
  // position (the fetch leg completed); a failed connect keeps the last
  // reading.
  if (record.peer_seq > 0 || record.ok) {
    staleness_gauge_->Set(static_cast<int64_t>(record.peer_seq) -
                          static_cast<int64_t>(record.seq_after));
    MutexLock lock(view_mu_);
    peer_seqs_[peer_name] = record.peer_seq;
    RefreshWatermarkLocked();
    // A successful repair lands this node at the peer's position: its
    // view of that peer is as fresh as it gets (the tail path settles
    // this gauge itself, from the newest entry's append stamp).
    if (record.ok && (record.path == RoundRecord::Path::kRepairExact ||
                      record.path == RoundRecord::Path::kRepairApprox ||
                      record.path == RoundRecord::Path::kRepairFull)) {
      PeerFor(peer_name).staleness->Set(0);
    }
  }
}

ReplicaNode::PeerInstruments& ReplicaNode::PeerFor(
    const std::string& peer_name) {
  auto it = peer_instruments_.find(peer_name);
  if (it != peer_instruments_.end()) return it->second;
  PeerInstruments inst;
  inst.lag = server_.metrics_registry().GetHistogram(
      "rsr_replica_propagation_lag_seconds",
      "Append-to-apply delay of tail-replayed entries, by source peer",
      obs::DefaultLatencyBounds(), {{"peer", peer_name}});
  inst.staleness = server_.metrics_registry().GetGauge(
      "rsr_replica_peer_staleness_micros",
      "Age in microseconds of the newest entry applied from the peer at "
      "the last round (0 = caught up)",
      {{"peer", peer_name}});
  return peer_instruments_.emplace(peer_name, inst).first->second;
}

void ReplicaNode::RefreshWatermarkLocked() {
  uint64_t watermark = applied_seq();
  for (const auto& [name, seq] : peer_seqs_) {
    (void)name;
    watermark = std::min(watermark, seq);
  }
  watermark_gauge_->Set(static_cast<int64_t>(watermark));
}

RoundRecord ReplicaNode::RunRound(const StreamFactory& fetch_peer,
                                  const StreamFactory& repair_peer,
                                  const std::string& peer_name,
                                  const obs::TraceContext& trace,
                                  obs::SessionSpan* span) {
  RoundRecord record;
  record.seq_after = applied_seq();
  record.dirty_after = dirty();
  span->BeginPhase("fetch");

  const auto add_bytes = [&record](const net::FramedStream& framed) {
    record.bytes_sent += framed.bytes_sent();
    record.bytes_received += framed.bytes_received();
  };

  // ------------------------------------------------------------- fetch
  std::unique_ptr<net::ByteStream> stream = fetch_peer();
  if (stream == nullptr) {
    record.error_detail = "fetch: connect failed";
    return record;
  }
  net::FramedStream framed(stream.get(), options_.server.limits);
  const bool was_dirty = dirty();
  server::LogFetchFrame fetch;
  fetch.from_seq = applied_seq();
  // A dirty node cannot replay a tail; it only needs the peer's position
  // and difference estimate, so ask for the strata up front.
  fetch.want_strata = was_dirty;
  if (options_.propagate_trace) fetch.trace = trace;
  transport::Message incoming;
  server::LogBatchFrame batch;
  bool fetched = false;
  if (!framed.Send(server::EncodeLogFetch(fetch))) {
    record.error_detail = "fetch: transport failed sending @log-fetch";
  } else if (framed.Receive(&incoming) !=
             net::FramedStream::RecvStatus::kMessage) {
    record.error_detail = "fetch: stream ended awaiting @log-batch";
  } else if (incoming.label == server::kRejectLabel) {
    record.error_detail = "fetch: peer rejected @log-fetch";
  } else if (!server::DecodeLogBatch(
                 incoming, options_.server.context.universe,
                 recon::ExactReconStrataConfig(options_.server.context.seed),
                 &batch) ||
             !IsTailAfter(batch.entries, fetch.from_seq)) {
    // A tail that does not continue from this node's position would fail
    // ApplyReplicated's gapless check; refuse it before applying anything.
    record.error_detail = "fetch: malformed @log-batch";
  } else {
    fetched = true;
  }
  stream->Close();
  add_bytes(framed);
  if (!fetched) return record;
  record.peer_seq = batch.last_seq;

  // --------------------------------------------------------- tail path
  // PR 6 soundness gap, closed: a peer that is itself dirty still serves
  // its tail (the entries exist), but that tail does not describe the
  // peer's actual set — replaying it would converge toward a state the
  // peer no longer holds. The batch's dirty bit forces the repair path
  // instead (old peers never set it, so they are treated as clean, which
  // matches their pre-dirty-bit behaviour).
  if (!was_dirty && batch.ok && !batch.dirty) {
    span->BeginPhase("apply");
    PeerInstruments* inst = nullptr;
    {
      MutexLock lock(view_mu_);
      inst = &PeerFor(peer_name);
    }
    uint64_t newest_lag_micros = 0;
    for (const ChangeEntry& entry : batch.entries) {
      if (options_.fuzz_tail_tamper) {
        // Fuzz-only divergence-bug seam (see ReplicaNodeOptions).
        ChangeEntry tampered = entry;
        options_.fuzz_tail_tamper(&tampered);
        server_.ApplyReplicated(tampered);
      } else {
        server_.ApplyReplicated(entry);
      }
      ++record.entries_applied;
      // Replication lag: the entry carries its writer-side append stamp
      // (mirrored verbatim across hops, replica/changelog.h), so the
      // delta to this node's clock is the append→apply delay. Meaningful
      // when both ends share a clock domain (in-process meshes, or the
      // injected test clock); see obs/clock.h for the cross-machine
      // caveat.
      if (entry.append_micros > 0) {
        const uint64_t now = clock_->NowMicros();
        const uint64_t lag =
            now > entry.append_micros ? now - entry.append_micros : 0;
        inst->lag->Observe(static_cast<double>(lag) * 1e-6);
        newest_lag_micros = lag;
      }
      if ((entry.trace_hi | entry.trace_lo) != 0) {
        span->AddLink(entry.trace_hi, entry.trace_lo);
      }
    }
    inst->staleness->Set(static_cast<int64_t>(newest_lag_micros));
    record.path = record.entries_applied > 0 ? RoundRecord::Path::kTail
                                             : RoundRecord::Path::kInSync;
    record.ok = true;
    record.seq_after = applied_seq();
    record.dirty_after = false;
    {
      MutexLock lock(view_mu_);
      escalate_next_repair_ = false;
    }
    return record;
  }

  // -------------------------------------------------------- repair path
  uint64_t estimate = 0;
  bool have_estimate = false;
  if (batch.strata.has_value()) {
    const std::shared_ptr<const StrataEstimator> own =
        recon::ExactStrataSpec(options_.server.context.seed)
            .Find(server_.snapshot().get());
    RSR_CHECK(own != nullptr);
    estimate = own->EstimateDifference(*batch.strata);
    estimate = static_cast<uint64_t>(
        std::ceil(static_cast<double>(estimate) * kEstimateHeadroom));
    have_estimate = true;
  }
  if (!have_estimate) {
    // No estimate to size a sketch from: only the unconditional protocol
    // is safe.
    estimate = ~uint64_t{0};
  }
  return Repair(repair_peer, estimate, std::move(record), trace, span);
}

RoundRecord ReplicaNode::Repair(const StreamFactory& peer, uint64_t est_delta,
                                RoundRecord record,
                                const obs::TraceContext& trace,
                                obs::SessionSpan* span) {
  span->BeginPhase("repair");
  record.est_delta = est_delta;
  const recon::ProtocolParams resolved = options_.server.params.Resolved();
  const size_t exact_budget = options_.exact_budget > 0
                                  ? options_.exact_budget
                                  : resolved.riblt.k;
  const bool was_dirty = dirty();
  bool escalate = false;
  {
    MutexLock lock(view_mu_);
    escalate = escalate_next_repair_;
  }
  RoundRecord::Path path;
  if (escalate) {
    // The previous repair session failed (e.g. an under-estimated sketch
    // did not decode). A deterministic workload would make the same sized
    // choice fail the same way forever, so skip the bands once.
    path = RoundRecord::Path::kRepairFull;
    record.protocol = kFullRepairProtocol;
  } else if (est_delta <= exact_budget) {
    path = RoundRecord::Path::kRepairExact;
    record.protocol = kExactRepairProtocol;
  } else if (!was_dirty && options_.approx_budget > 0 &&
             est_delta <= options_.approx_budget) {
    // The approximate band is for CLEAN nodes only: a dirty node
    // re-approximating would chase its own error instead of converging.
    path = RoundRecord::Path::kRepairApprox;
    record.protocol = kApproxRepairProtocol;
  } else {
    path = RoundRecord::Path::kRepairFull;
    record.protocol = kFullRepairProtocol;
  }

  std::unique_ptr<net::ByteStream> stream = peer();
  if (stream == nullptr) {
    record.error_detail = "repair: connect failed";
    return record;
  }
  net::FramedStream framed(stream.get(), options_.server.limits);
  const auto fail = [&](std::string detail) {
    stream->Close();
    record.bytes_sent += framed.bytes_sent();
    record.bytes_received += framed.bytes_received();
    record.error_detail = std::move(detail);
    record.path = RoundRecord::Path::kError;
    {
      MutexLock lock(view_mu_);
      escalate_next_repair_ = true;
    }
    repair_escalations_->Inc();
    return record;
  };

  const std::shared_ptr<const server::SketchSnapshot> snapshot =
      server_.snapshot();
  server::PullFrame pull;
  pull.protocol = record.protocol;
  pull.client_set_size = snapshot->size();
  if (options_.propagate_trace) pull.trace = trace;
  if (!framed.Send(server::EncodePull(pull))) {
    return fail("repair: transport failed sending @pull");
  }
  transport::Message incoming;
  if (framed.Receive(&incoming) != net::FramedStream::RecvStatus::kMessage) {
    return fail("repair: stream ended awaiting @pull-accept");
  }
  if (incoming.label == server::kRejectLabel) {
    return fail("repair: peer rejected @pull (" + record.protocol + ")");
  }
  server::PullAcceptFrame accept;
  if (!server::DecodePullAccept(incoming, &accept) ||
      accept.protocol != record.protocol) {
    return fail("repair: malformed @pull-accept");
  }

  const recon::ProtocolRegistry* registry =
      options_.server.registry != nullptr ? options_.server.registry
                                          : &recon::ProtocolRegistry::Global();
  const std::unique_ptr<recon::Reconciler> reconciler = registry->Create(
      record.protocol, options_.server.context, options_.server.params);
  if (reconciler == nullptr) {
    return fail("repair: protocol \"" + record.protocol +
                "\" not in the local registry");
  }
  // Run BOB locally: the protocol moves Bob's set toward Alice's, and the
  // peer is hosting Alice over its canonical set (server/handshake.h).
  const std::unique_ptr<recon::PartySession> bob =
      reconciler->MakeBobSession(snapshot->points(), snapshot.get());
  for (transport::Message& opening : bob->Start()) {
    if (!framed.Send(opening)) {
      return fail("repair: transport failed sending opening frames");
    }
  }
  size_t deliveries = 0;
  while (!bob->IsDone()) {
    if (framed.Receive(&incoming) !=
        net::FramedStream::RecvStatus::kMessage) {
      return fail("repair: stream ended mid-session");
    }
    if (server::IsControlLabel(incoming.label)) {
      return fail("repair: unexpected control frame mid-session");
    }
    if (++deliveries > recon::kMaxDeliveries) {
      return fail("repair: session stalled");
    }
    for (transport::Message& reply : bob->OnMessage(std::move(incoming))) {
      if (!framed.Send(reply)) {
        return fail("repair: transport failed sending replies");
      }
    }
  }
  // Closing is the end-of-pull signal to the peer's Alice pump.
  stream->Close();
  record.bytes_sent += framed.bytes_sent();
  record.bytes_received += framed.bytes_received();

  const std::optional<recon::RepairedSet> repair = bob->TakeRepairedSet();
  RSR_CHECK_MSG(repair.has_value(), "a Bob session records a repair");
  const recon::ReconResult result = bob->TakeResult();
  if (!result.success) {
    record.error_detail = std::string("repair: session failed (") +
                          recon::SessionErrorName(result.error) + ")";
    record.path = RoundRecord::Path::kError;
    {
      MutexLock lock(view_mu_);
      escalate_next_repair_ = true;
    }
    repair_escalations_->Inc();
    return record;
  }

  // The session's own edit of the pinned set is the install: its retired
  // points are the erases, its additions the inserts.
  PointSet erases;
  for (size_t i = 0; i < repair->removed.size(); ++i) {
    if (repair->removed[i]) erases.push_back((*repair->base)[i]);
  }
  // Exactness of the install needs BOTH an exact-key protocol and a clean
  // peer: an approximate result, or any result pulled from a dirty peer,
  // corresponds to no journal position (see the file comment).
  const bool exact =
      path != RoundRecord::Path::kRepairApprox && !accept.dirty;
  server_.InstallRepair(repair->additions, erases, accept.seq, exact);

  record.path = path;
  record.ok = true;
  record.peer_seq = accept.seq;
  record.seq_after = applied_seq();
  record.dirty_after = dirty();
  {
    MutexLock lock(view_mu_);
    escalate_next_repair_ = false;
  }
  return record;
}

}  // namespace replica
}  // namespace rsr
