#include "server/connection.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "net/frame.h"
#include "server/handshake.h"
#include "server/replica_serving.h"
#include "util/check.h"

namespace rsr {
namespace server {

namespace {

using recon::SessionError;

// Role salts separating the server-side span ids derived from one
// inbound context (a "@hello" session and the "@pull" it may trigger on
// another host must not collide).
constexpr uint64_t kHelloSpanSalt = 0x73657276'68656c6fULL;    // "servhelo"
constexpr uint64_t kLogFetchSpanSalt = 0x73657276'6c6f6766ULL;  // "servlogf"
constexpr uint64_t kPullSpanSalt = 0x73657276'70756c6cULL;      // "servpull"

/// Upper bound on entries per served "@log-batch" (a fetch's own
/// max_entries only tightens it).
constexpr size_t kLogFetchMaxEntries = 512;

/// Wire size of one RSF1 frame (net/frame.h).
uint64_t FrameBytes(const transport::Message& frame) {
  return net::kFrameHeaderBytes + frame.label.size() + frame.payload.size();
}

/// Answers one "@log-fetch": slices the changelog tail after the fetch's
/// position (capped by kLogFetchMaxEntries and the fetch's own cap), reports
/// the host's position and dirty flag, and — when the tail is gone, the
/// host is dirty (its tail does not replay onto the set-at-from_seq), or
/// the fetch asked — attaches the exact-keys strata estimator so the
/// fetcher can size a repair from this one round trip. A host without a
/// changelog answers ok = false. Call under the replication lock so
/// (entries, last_seq, dirty, strata) are one consistent view.
LogBatchFrame BuildLogBatch(const LogFetchFrame& fetch,
                            const replica::Changelog* changelog,
                            const SketchSnapshot& snapshot,
                            uint64_t replica_seq, bool repair_dirty,
                            const recon::ProtocolContext& context) {
  LogBatchFrame batch;
  batch.last_seq = replica_seq;
  batch.dirty = repair_dirty;
  if (changelog != nullptr) {
    size_t cap = kLogFetchMaxEntries;
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

}  // namespace

Connection::Connection(CanonicalHost* host)
    : host_(host),
      options_(host->options_),
      span_(host->obs_.trace_sink(), "sync-session") {
  host_->obs_.OnAccepted();
  span_.SetSampling(&options_.trace_sampling, host_->obs_.span_emitted(),
                    host_->obs_.span_dropped());
  span_.BeginPhase("handshake");
}

Connection::~Connection() {
  if (!settled_) OnClosed(0, 0);
}

void Connection::OnFrame(transport::Message frame) {
  if (phase_ == Phase::kDone) return;
  span_.AddFrameIn(FrameBytes(frame));
  switch (phase_) {
    case Phase::kHandshake:
      Open(std::move(frame));
      return;
    case Phase::kSession:
      OnSessionFrame(std::move(frame));
      return;
    case Phase::kPull:
      OnPullFrame(std::move(frame));
      return;
    case Phase::kDraining:
      if (++frames_ > options_.max_deliveries) phase_ = Phase::kDone;
      return;
    case Phase::kDone:
      return;
  }
}

void Connection::OnStreamEnd(SessionError error) {
  switch (phase_) {
    case Phase::kSession:
      FinishBob(error == SessionError::kNone ? SessionError::kTransportClosed
                                             : error);
      break;
    case Phase::kPull:
      // The puller's clean close is the end of a pull.
      EndSession(error == SessionError::kNone);
      break;
    case Phase::kHandshake:  // the connection never got off the ground
    case Phase::kDraining:
    case Phase::kDone:
      break;
  }
  phase_ = Phase::kDone;
}

void Connection::OnIdleTimeout() {
  if (phase_ == Phase::kDone) return;
  timed_out_ = true;
  if (phase_ == Phase::kSession) {
    // Best effort: the peer is idle, not necessarily gone.
    FinishBob(SessionError::kTransportClosed);
  } else if (phase_ == Phase::kPull) {
    EndSession(false);
  }
  phase_ = Phase::kDone;
}

std::vector<transport::Message> Connection::TakeOutbox() {
  return std::exchange(outbox_, {});
}

void Connection::OnClosed(size_t bytes_in, size_t bytes_out) {
  if (settled_) return;
  settled_ = true;
  if (phase_ == Phase::kSession || phase_ == Phase::kPull) EndSession(false);
  phase_ = Phase::kDone;
  party_.reset();
  snapshot_.reset();

  ServerObs::Settle settle;
  settle.session_counted = counted_;
  settle.protocol = protocol_;
  settle.success = success_;
  settle.wall_seconds = wall_seconds_;
  settle.rejected = rejected_;
  settle.timed_out = timed_out_;
  settle.bytes_in = bytes_in;
  settle.bytes_out = bytes_out;
  host_->obs_.OnClosed(settle);
  span_.set_outcome(rejected_   ? "rejected"
                    : counted_  ? (success_     ? "ok"
                                   : timed_out_ ? "idle-timeout"
                                                : "fail")
                    : timed_out_ ? "idle-timeout"
                                 : "never-started");
  span_.Finish();
}

void Connection::Open(transport::Message frame) {
  // Admin and replication verbs claim the whole connection in place of
  // "@hello".
  if (frame.label == kStatsLabel) {
    ServeStats();
  } else if (frame.label == kLogFetchLabel) {
    ServeLogFetch(frame);
  } else if (frame.label == kPullLabel) {
    OpenPull(frame);
  } else {
    OpenHello(frame);
  }
}

void Connection::OpenHello(const transport::Message& frame) {
  HelloFrame hello;
  if (!DecodeHello(frame, &hello)) {
    Reject("expected a well-formed " + std::string(kHelloLabel) +
           " frame, got \"" + frame.label + "\"");
    return;
  }
  const std::unique_ptr<recon::Reconciler> protocol =
      CreateOrReject(hello.protocol);
  if (protocol == nullptr) return;
  BeginSession(hello.protocol);
  AdoptTrace(hello.trace, kHelloSpanSalt);
  // Pin the session to one immutable canonical generation: the snapshot
  // supplies both the point set Bob borrows and, when caching is on, the
  // precomputed sketches. The write path publishes the snapshot with its
  // replication position, so the (snapshot, replica_seq) pair is one
  // consistent view.
  const CanonicalHost::Pin pin = host_->CurrentPin();
  snapshot_ = pin.snapshot;
  want_result_set_ = hello.want_result_set;
  party_ = protocol->MakeBobSession(
      snapshot_->points(),
      options_.serve_from_cache ? snapshot_.get() : nullptr);

  AcceptFrame ack;
  ack.protocol = hello.protocol;
  ack.server_set_size = snapshot_->size();
  ack.will_send_result_set = hello.want_result_set;
  ack.generation = snapshot_->generation();
  ack.replica_seq = pin.seq;
  Emit(EncodeAccept(ack));
  span_.BeginPhase("rounds");
  phase_ = Phase::kSession;
  Emit(party_->Start());
  if (party_->IsDone()) FinishBob(SessionError::kNone);
}

void Connection::OpenPull(const transport::Message& frame) {
  PullFrame pull;
  if (!DecodePull(frame, &pull)) {
    Reject("malformed " + std::string(kPullLabel) + " frame");
    return;
  }
  const std::unique_ptr<recon::Reconciler> protocol =
      CreateOrReject(pull.protocol);
  if (protocol == nullptr) return;
  BeginSession(std::string(kPullLabel) + ":" + pull.protocol);
  AdoptTrace(pull.trace, kPullSpanSalt);
  const CanonicalHost::Pin pin = host_->CurrentPin();
  snapshot_ = pin.snapshot;
  // The puller runs Bob; this host is Alice — the direction that moves
  // the PULLER's set toward this host's (see server/handshake.h).
  party_ = protocol->MakeAliceSession(snapshot_->points());

  PullAcceptFrame ack;
  ack.protocol = pull.protocol;
  ack.server_set_size = snapshot_->size();
  ack.seq = pin.seq;
  ack.generation = snapshot_->generation();
  ack.dirty = pin.dirty;
  Emit(EncodePullAccept(ack));
  span_.BeginPhase("rounds");
  phase_ = Phase::kPull;
  Emit(party_->Start());
}

void Connection::ServeLogFetch(const transport::Message& frame) {
  LogFetchFrame fetch;
  if (!DecodeLogFetch(frame, &fetch)) {
    Reject("malformed " + std::string(kLogFetchLabel) + " frame");
    return;
  }
  BeginSession(kLogFetchLabel);
  AdoptTrace(fetch.trace, kLogFetchSpanSalt);
  span_.BeginPhase("result");
  LogBatchFrame batch;
  {
    MutexLock lock(host_->replica_mu_);
    batch = BuildLogBatch(fetch, options_.changelog, *host_->store_.Snapshot(),
                          host_->replica_seq_, host_->repair_dirty_,
                          options_.context);
  }
  Emit(EncodeLogBatch(batch, options_.context.universe));
  EndSession(true);
  Drain();
}

void Connection::ServeStats() {
  BeginSession(kStatsLabel);
  span_.BeginPhase("result");
  Emit(EncodeStatsReply(host_->RenderMetrics()));
  EndSession(true);
  Drain();
}

void Connection::OnSessionFrame(transport::Message frame) {
  if (IsControlLabel(frame.label)) {
    // The control plane is quiet during the protocol phase.
    FinishBob(SessionError::kUnexpectedMessage);
    return;
  }
  if (++frames_ > options_.max_deliveries) {
    FinishBob(SessionError::kStalled);
    return;
  }
  Emit(party_->OnMessage(std::move(frame)));
  if (party_->IsDone()) FinishBob(SessionError::kNone);
}

void Connection::OnPullFrame(transport::Message frame) {
  if (IsControlLabel(frame.label) ||
      ++frames_ > options_.max_deliveries) {
    EndSession(false);
    phase_ = Phase::kDone;
    return;
  }
  Emit(party_->OnMessage(std::move(frame)));
  // Alice refusing the puller's frame (malformed, unexpected) ends the
  // pull as failed; a finished, successful Alice waits for the close.
  if (party_->IsDone() && !party_->TakeResult().success) {
    EndSession(false);
    phase_ = Phase::kDone;
  }
}

std::unique_ptr<recon::Reconciler> Connection::CreateOrReject(
    const std::string& name) {
  const recon::ProtocolRegistry& registry = *host_->registry_;
  std::unique_ptr<recon::Reconciler> protocol =
      registry.Create(name, options_.context, options_.params);
  if (protocol == nullptr) {
    Reject(registry.Contains(name)
               ? "protocol \"" + name + "\" does not fit this host's universe"
               : "unknown protocol \"" + name + "\"");
  }
  return protocol;
}

void Connection::Reject(const std::string& reason) {
  RejectFrame reject;
  reject.reason = reason;
  reject.protocols = host_->registry_->ListProtocols();
  Emit(EncodeReject(reject));
  rejected_ = true;
  phase_ = Phase::kDone;
}

void Connection::BeginSession(const std::string& protocol) {
  protocol_ = protocol;
  start_ = std::chrono::steady_clock::now();
  span_.set_protocol(protocol);
}

void Connection::EndSession(bool success) {
  counted_ = true;
  success_ = success;
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
}

void Connection::FinishBob(SessionError pump_error) {
  // S'_B ships straight from its repair of the pinned set (no copy of it).
  const std::optional<recon::RepairedSet> repaired =
      party_->TakeRepairedSet();
  RSR_CHECK_MSG(repaired.has_value(), "a Bob session records a repair");
  recon::ReconResult result = party_->TakeResult();
  if (pump_error != SessionError::kNone) {
    result.success = false;
    if (result.error == SessionError::kNone) result.error = pump_error;
  }
  EndSession(result.success);
  span_.BeginPhase("result");
  ResultFrame frame;
  frame.has_set = want_result_set_ && result.success;
  frame.result = std::move(result);
  Emit(EncodeResult(frame, options_.context.universe, *repaired));
  Drain();
}

void Connection::AdoptTrace(const obs::TraceContext& inbound, uint64_t salt) {
  if (!span_.active()) return;
  obs::TraceContext ctx = inbound;
  uint64_t parent = 0;
  if (ctx.valid()) {
    parent = ctx.span_id;
    ctx.span_id = obs::DeriveSpanId(ctx, salt);
  } else {
    // No inbound context (an old peer, or tracing off at the caller):
    // the span still gets identity, as the root of its own trace.
    ctx = host_->trace_gen_.NewTrace();
  }
  span_.SetTrace(ctx, parent);
}

void Connection::Emit(transport::Message frame) {
  span_.AddFrameOut(FrameBytes(frame));
  outbox_.push_back(std::move(frame));
}

void Connection::Emit(std::vector<transport::Message> frames) {
  for (transport::Message& frame : frames) Emit(std::move(frame));
}

void Connection::Drain() {
  // The session (and the generation it pinned) is over; only the peer's
  // close is awaited now.
  party_.reset();
  snapshot_.reset();
  frames_ = 0;
  phase_ = Phase::kDraining;
}

}  // namespace server
}  // namespace rsr
