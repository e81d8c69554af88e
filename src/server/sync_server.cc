#include "server/sync_server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "recon/session.h"
#include "server/handshake.h"
#include "server/replica_serving.h"
#include "util/check.h"

namespace rsr {
namespace server {

namespace {

using recon::SessionError;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Role salts separating the server-side span ids derived from one
// inbound context (a "@hello" session and the "@pull" it may trigger on
// another host must not collide).
constexpr uint64_t kHelloSpanSalt = 0x73657276'68656c6fULL;    // "servhelo"
constexpr uint64_t kLogFetchSpanSalt = 0x73657276'6c6f6766ULL;  // "servlogf"
constexpr uint64_t kPullSpanSalt = 0x73657276'70756c6cULL;      // "servpull"

}  // namespace

// FramedStream plus the per-connection observability state: the session's
// trace span (frame/byte counts ride on every Send/Receive) and the idle
// deadline. A Receive that fails after sitting close to the armed timeout
// is classified as an idle expiry — SO_RCVTIMEO surfaces as a plain
// transport error, so elapsed time is the only signal that distinguishes
// "peer went silent" from "peer sent garbage".
struct SyncServer::SessionIo {
  net::FramedStream framed;
  obs::SessionSpan span;
  bool timed_out = false;

  SessionIo(net::ByteStream* stream, const net::FrameLimits& limits,
            std::chrono::milliseconds timeout, obs::TraceSink* sink)
      : framed(stream, limits), span(sink, "sync-session") {
    if (timeout.count() > 0 && stream->SetReadTimeout(timeout)) {
      timeout_seconds_ = std::chrono::duration<double>(timeout).count();
    }
  }

  net::FramedStream::RecvStatus Receive(transport::Message* out) {
    const auto wait_start = std::chrono::steady_clock::now();
    const auto status = framed.Receive(out);
    if (status == net::FramedStream::RecvStatus::kMessage) {
      span.AddFrameIn(framed.bytes_received() - last_received_);
      last_received_ = framed.bytes_received();
    } else if (timeout_seconds_ > 0.0 &&
               status == net::FramedStream::RecvStatus::kError &&
               SecondsSince(wait_start) >= 0.9 * timeout_seconds_) {
      timed_out = true;
    }
    return status;
  }

  bool Send(const transport::Message& message) {
    const bool ok = framed.Send(message);
    if (ok) {
      span.AddFrameOut(framed.bytes_sent() - last_sent_);
      last_sent_ = framed.bytes_sent();
    }
    return ok;
  }

 private:
  double timeout_seconds_ = 0.0;  // 0: no deadline armed
  size_t last_received_ = 0;
  size_t last_sent_ = 0;
};

SyncServer::SyncServer(PointSet canonical, SyncServerOptions options)
    : options_(std::move(options)),
      obs_(ServerObsOptions{options_.latency_probes, options_.trace_sink}),
      clock_(options_.clock != nullptr ? options_.clock : obs::Clock::Real()),
      trace_gen_(options_.trace_seed, kHelloSpanSalt),
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

SyncServer::~SyncServer() { Stop(); }

void SyncServer::AdoptTrace(SessionIo& io, const obs::TraceContext& inbound,
                            uint64_t salt) {
  if (!io.span.active()) return;
  obs::TraceContext ctx = inbound;
  uint64_t parent = 0;
  if (ctx.valid()) {
    parent = ctx.span_id;
    ctx.span_id = obs::DeriveSpanId(ctx, salt);
  } else {
    // No inbound context (an old peer, or tracing off at the caller):
    // the span still gets identity, as the root of its own trace.
    ctx = trace_gen_.NewTrace();
  }
  io.span.SetTrace(ctx, parent);
}

void SyncServer::ServeConnection(net::ByteStream* stream) {
  obs_.OnAccepted();
  SessionIo io(stream, options_.limits, options_.idle_timeout,
               obs_.trace_sink());
  io.span.SetSampling(&options_.trace_sampling, obs_.span_emitted(),
                      obs_.span_dropped());
  io.span.BeginPhase("handshake");

  // --------------------------------------------------------- handshake
  HelloFrame hello;
  std::string reject_reason;
  transport::Message incoming;
  if (io.Receive(&incoming) != net::FramedStream::RecvStatus::kMessage) {
    // Nothing usable arrived (silent peer, garbage, or shutdown closed the
    // stream); there is no one to send a reject to, and no handshake was
    // rejected — the connection just never got off the ground.
    ServerObs::Settle settle;
    settle.timed_out = io.timed_out;
    settle.bytes_in = io.framed.bytes_received();
    obs_.OnClosed(settle);
    io.span.set_outcome(io.timed_out ? "idle-timeout" : "never-started");
    return;
  }
  // Admin and replication verbs claim the whole connection before any
  // "@hello".
  if (incoming.label == kStatsLabel) {
    ServeStats(io, stream);
    return;
  }
  if (incoming.label == kLogFetchLabel) {
    ServeLogFetch(io, incoming, stream);
    return;
  }
  if (incoming.label == kPullLabel) {
    ServePull(io, incoming, stream);
    return;
  }
  std::unique_ptr<recon::Reconciler> protocol;
  if (!DecodeHello(incoming, &hello)) {
    reject_reason = "expected a well-formed " + std::string(kHelloLabel) +
                    " frame, got \"" + incoming.label + "\"";
  } else if (!registry_->Contains(hello.protocol) ||
             (protocol = registry_->Create(hello.protocol, options_.context,
                                           options_.params)) == nullptr) {
    reject_reason = "unknown protocol \"" + hello.protocol + "\"";
  }
  if (!reject_reason.empty()) {
    RejectFrame reject;
    reject.reason = reject_reason;
    reject.protocols = registry_->ListProtocols();
    io.Send(EncodeReject(reject));
    stream->Close();
    ServerObs::Settle settle;
    settle.rejected = true;
    settle.bytes_in = io.framed.bytes_received();
    settle.bytes_out = io.framed.bytes_sent();
    obs_.OnClosed(settle);
    io.span.set_outcome("rejected");
    return;
  }

  const auto start_time = std::chrono::steady_clock::now();
  io.span.set_protocol(hello.protocol);
  AdoptTrace(io, hello.trace, kHelloSpanSalt);
  // Pin the session to one immutable canonical generation: the snapshot
  // (kept alive by this shared_ptr for the whole connection) supplies both
  // the point set Bob borrows and, when caching is on, the precomputed
  // sketches. The write path publishes the snapshot with its replication
  // position, so the (snapshot, replica_seq) pair is one consistent view.
  const Pin pin = CurrentPin();
  const std::shared_ptr<const SketchSnapshot>& snapshot = pin.snapshot;
  const uint64_t served_seq = pin.seq;
  const std::unique_ptr<recon::PartySession> bob = protocol->MakeBobSession(
      snapshot->points(), options_.serve_from_cache ? snapshot.get() : nullptr);

  {
    AcceptFrame ack;
    ack.protocol = hello.protocol;
    ack.server_set_size = snapshot->size();
    ack.will_send_result_set = hello.want_result_set;
    ack.generation = snapshot->generation();
    ack.replica_seq = served_seq;
    io.Send(EncodeAccept(ack));
  }

  // -------------------------------------------------------- session pump
  io.span.BeginPhase("rounds");
  recon::ReconResult result;
  bool pumped_ok = true;
  SessionError pump_error = SessionError::kNone;
  for (transport::Message& opening : bob->Start()) {
    if (!io.Send(opening)) {
      pumped_ok = false;
      pump_error = SessionError::kTransportClosed;
      break;
    }
  }
  size_t deliveries = 0;
  while (pumped_ok && !bob->IsDone()) {
    const auto status = io.Receive(&incoming);
    if (status != net::FramedStream::RecvStatus::kMessage) {
      pumped_ok = false;
      pump_error = io.framed.error();
      break;
    }
    if (IsControlLabel(incoming.label)) {
      // The control plane is quiet during the protocol phase.
      pumped_ok = false;
      pump_error = SessionError::kUnexpectedMessage;
      break;
    }
    if (++deliveries > options_.max_deliveries) {
      pumped_ok = false;
      pump_error = SessionError::kStalled;
      break;
    }
    for (transport::Message& reply : bob->OnMessage(std::move(incoming))) {
      if (!io.Send(reply)) {
        pumped_ok = false;
        pump_error = SessionError::kTransportClosed;
        break;
      }
    }
  }

  // A repair ships straight from the pinned set (no copy of it).
  const std::optional<recon::RepairedSet> repaired = bob->TakeRepairedSet();
  result = bob->TakeResult();
  if (!pumped_ok) {
    result.success = false;
    if (result.error == SessionError::kNone) result.error = pump_error;
  }

  // ------------------------------------------------------------- result
  io.span.BeginPhase("result");
  const bool success = result.success;
  ResultFrame result_frame;
  result_frame.has_set = hello.want_result_set && success;
  result_frame.result = std::move(result);
  if (!result_frame.has_set) result_frame.result.bob_final.clear();
  io.Send(EncodeResult(result_frame, options_.context.universe,
                       repaired.has_value() ? &*repaired : nullptr));
  // Drain until the client closes: closing with unread bytes queued would
  // reset the connection and could discard the result frame in flight.
  size_t drained = 0;
  while (drained++ < options_.max_deliveries &&
         io.Receive(&incoming) == net::FramedStream::RecvStatus::kMessage) {
  }
  stream->Close();

  SettleSession(io, hello.protocol, success, SecondsSince(start_time));
}

void SyncServer::SettleSession(SessionIo& io, const std::string& name,
                               bool success, double wall_seconds) {
  ServerObs::Settle settle;
  settle.session_counted = true;
  settle.protocol = name;
  settle.success = success;
  settle.wall_seconds = wall_seconds;
  settle.timed_out = io.timed_out;
  settle.bytes_in = io.framed.bytes_received();
  settle.bytes_out = io.framed.bytes_sent();
  obs_.OnClosed(settle);
  io.span.set_outcome(success         ? "ok"
                      : io.timed_out  ? "idle-timeout"
                                      : "fail");
  io.span.Finish();
}

void SyncServer::ServeStats(SessionIo& io, net::ByteStream* stream) {
  const auto start_time = std::chrono::steady_clock::now();
  io.span.set_protocol(kStatsLabel);
  io.span.BeginPhase("result");
  const bool ok = io.Send(EncodeStatsReply(RenderMetrics()));
  transport::Message incoming;
  size_t drained = 0;
  while (drained++ < options_.max_deliveries &&
         io.Receive(&incoming) == net::FramedStream::RecvStatus::kMessage) {
  }
  stream->Close();
  SettleSession(io, kStatsLabel, ok, SecondsSince(start_time));
}

void SyncServer::ServeLogFetch(SessionIo& io, const transport::Message& first,
                               net::ByteStream* stream) {
  const auto start_time = std::chrono::steady_clock::now();
  io.span.set_protocol(kLogFetchLabel);
  LogFetchFrame fetch;
  bool ok = DecodeLogFetch(first, &fetch);
  if (!ok) {
    RejectFrame reject;
    reject.reason = "malformed " + std::string(kLogFetchLabel) + " frame";
    reject.protocols = registry_->ListProtocols();
    io.Send(EncodeReject(reject));
    stream->Close();
    ServerObs::Settle settle;
    settle.rejected = true;
    settle.bytes_in = io.framed.bytes_received();
    settle.bytes_out = io.framed.bytes_sent();
    obs_.OnClosed(settle);
    io.span.set_outcome("rejected");
    return;
  }
  AdoptTrace(io, fetch.trace, kLogFetchSpanSalt);
  io.span.BeginPhase("result");
  LogBatchFrame batch;
  {
    MutexLock lock(replica_mu_);
    batch = BuildLogBatch(fetch, options_.changelog, *store_.Snapshot(),
                          replica_seq_, repair_dirty_, options_.context,
                          options_.log_fetch_max_entries);
  }
  ok = io.Send(EncodeLogBatch(batch, options_.context.universe));
  // Drain until the fetcher closes, as after "@result" (see above).
  transport::Message incoming;
  size_t drained = 0;
  while (drained++ < options_.max_deliveries &&
         io.Receive(&incoming) == net::FramedStream::RecvStatus::kMessage) {
  }
  stream->Close();
  SettleSession(io, kLogFetchLabel, ok, SecondsSince(start_time));
}

void SyncServer::ServePull(SessionIo& io, const transport::Message& first,
                           net::ByteStream* stream) {
  const auto start_time = std::chrono::steady_clock::now();
  PullFrame pull;
  std::string reject_reason;
  std::unique_ptr<recon::Reconciler> protocol;
  if (!DecodePull(first, &pull)) {
    reject_reason = "malformed " + std::string(kPullLabel) + " frame";
  } else if (!registry_->Contains(pull.protocol) ||
             (protocol = registry_->Create(pull.protocol, options_.context,
                                           options_.params)) == nullptr) {
    reject_reason = "unknown protocol \"" + pull.protocol + "\"";
  }
  if (!reject_reason.empty()) {
    RejectFrame reject;
    reject.reason = reject_reason;
    reject.protocols = registry_->ListProtocols();
    io.Send(EncodeReject(reject));
    stream->Close();
    ServerObs::Settle settle;
    settle.rejected = true;
    settle.bytes_in = io.framed.bytes_received();
    settle.bytes_out = io.framed.bytes_sent();
    obs_.OnClosed(settle);
    io.span.set_outcome("rejected");
    return;
  }
  io.span.set_protocol(std::string(kPullLabel) + ":" + pull.protocol);
  AdoptTrace(io, pull.trace, kPullSpanSalt);

  const Pin pin = CurrentPin();
  const std::shared_ptr<const SketchSnapshot>& snapshot = pin.snapshot;
  const uint64_t served_seq = pin.seq;
  const bool dirty = pin.dirty;
  // The puller runs Bob; this host is Alice — the direction that moves the
  // PULLER's set toward this host's (see server/handshake.h).
  const std::unique_ptr<recon::PartySession> alice =
      protocol->MakeAliceSession(snapshot->points());
  {
    PullAcceptFrame ack;
    ack.protocol = pull.protocol;
    ack.server_set_size = snapshot->size();
    ack.seq = served_seq;
    ack.generation = snapshot->generation();
    ack.dirty = dirty;
    io.Send(EncodePullAccept(ack));
  }

  io.span.BeginPhase("rounds");
  bool pumped_ok = true;
  for (transport::Message& opening : alice->Start()) {
    if (!io.Send(opening)) {
      pumped_ok = false;
      break;
    }
  }
  // Pump until the puller closes the stream: Alice's side of a session has
  // no terminal frame of its own (one-shot protocols end with Alice silent
  // and Bob done), so the close IS the end-of-pull signal.
  transport::Message incoming;
  size_t deliveries = 0;
  while (pumped_ok) {
    const auto status = io.Receive(&incoming);
    if (status == net::FramedStream::RecvStatus::kClosed) break;
    if (status != net::FramedStream::RecvStatus::kMessage ||
        IsControlLabel(incoming.label) ||
        ++deliveries > options_.max_deliveries) {
      pumped_ok = false;
      break;
    }
    for (transport::Message& reply : alice->OnMessage(std::move(incoming))) {
      if (!io.Send(reply)) {
        pumped_ok = false;
        break;
      }
    }
  }
  stream->Close();
  SettleSession(io, std::string(kPullLabel) + ":" + pull.protocol, pumped_ok,
                SecondsSince(start_time));
}

std::shared_ptr<const SketchSnapshot> SyncServer::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  return ApplyUpdate(inserts, erases, obs::TraceContext());
}

std::shared_ptr<const SketchSnapshot> SyncServer::ApplyUpdate(
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
    replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  }
  PublishPin(snap);
  return snap;
}

std::shared_ptr<const SketchSnapshot> SyncServer::ApplyReplicated(
    const replica::ChangeEntry& entry) {
  MutexLock lock(replica_mu_);
  if (entry.seq <= replica_seq_) return store_.Snapshot();
  RSR_CHECK_MSG(entry.seq == replica_seq_ + 1,
                "replicated entry would leave a seq gap");
  std::shared_ptr<const SketchSnapshot> snap =
      store_.ApplyUpdate(entry.inserts, entry.erases);
  replica_seq_ = entry.seq;
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  if (options_.changelog != nullptr) options_.changelog->Append(entry);
  PublishPin(snap);
  return snap;
}

std::shared_ptr<const SketchSnapshot> SyncServer::InstallRepair(
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
  replica_seq_gauge_->Set(static_cast<int64_t>(replica_seq_));
  repair_dirty_gauge_->Set(repair_dirty_ ? 1 : 0);
  PublishPin(snap);
  return snap;
}

void SyncServer::PublishPin(std::shared_ptr<const SketchSnapshot> snapshot) {
  MutexLock lock(pin_mu_);
  pin_ = Pin{std::move(snapshot), replica_seq_, repair_dirty_};
}

SyncServer::Pin SyncServer::CurrentPin() const {
  MutexLock lock(pin_mu_);
  return pin_;
}

uint64_t SyncServer::replica_seq() const {
  MutexLock lock(replica_mu_);
  return replica_seq_;
}

bool SyncServer::repair_dirty() const {
  MutexLock lock(replica_mu_);
  return repair_dirty_;
}

std::string SyncServer::DumpStats() const {
  const Pin pin = CurrentPin();
  return rsr::server::DumpStats(metrics(), pin.snapshot->generation(),
                                pin.seq);
}

bool SyncServer::Start(std::unique_ptr<net::TcpListener> listener) {
  if (listener == nullptr || accept_thread_.joinable()) return false;
  {
    MutexLock lock(queue_mu_);
    stopping_ = false;
  }
  listener_ = std::move(listener);
  const size_t worker_count =
      options_.worker_threads > 0 ? options_.worker_threads : 1;
  workers_.reserve(worker_count);
  for (size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void SyncServer::Stop() {
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Close queued connections so draining them fails fast instead of
    // blocking a worker on a client that never speaks.
    MutexLock lock(queue_mu_);
    stopping_ = true;
    for (const PendingConn& pending : pending_) pending.stream->Close();
    queue_cv_.NotifyAll();
  }
  {
    MutexLock lock(active_mu_);
    for (net::ByteStream* stream : active_) stream->Close();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  listener_.reset();
}

uint16_t SyncServer::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

SyncServerMetrics SyncServer::metrics() const { return obs_.LegacyMetrics(); }

void SyncServer::AcceptLoop() {
  for (;;) {
    std::unique_ptr<net::TcpStream> conn = listener_->Accept();
    if (conn == nullptr) return;  // listener closed
    MutexLock lock(queue_mu_);
    pending_.push_back(
        PendingConn{std::move(conn), std::chrono::steady_clock::now()});
    queue_cv_.NotifyOne();
  }
}

void SyncServer::WorkerLoop() {
  for (;;) {
    PendingConn conn;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && pending_.empty()) queue_cv_.Wait(queue_mu_);
      // Drain queued connections even when stopping, so accepted clients
      // are served (their streams are already closed, so it fails fast).
      if (pending_.empty()) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
      // Register in active_ while still holding queue_mu_: Stop() flips
      // stopping_ under queue_mu_ before sweeping active_, so a stream is
      // either closed by the sweep or closed here — no unclosable window.
      MutexLock active_lock(active_mu_);
      if (stopping_) conn.stream->Close();
      active_.insert(conn.stream.get());
    }
    obs_.ObserveQueueDelay(SecondsSince(conn.enqueued));
    ServeConnection(conn.stream.get());
    {
      MutexLock active_lock(active_mu_);
      active_.erase(conn.stream.get());
    }
  }
}

}  // namespace server
}  // namespace rsr
