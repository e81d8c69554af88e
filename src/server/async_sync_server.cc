#include "server/async_sync_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "recon/session.h"
#include "server/handshake.h"
#include "server/replica_serving.h"

namespace rsr {
namespace server {

namespace {

using recon::SessionError;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Span-derivation salts: distinct from the threaded host's so the same
/// inbound context produces host-distinguishable span ids ("asynhelo" /
/// "asynlogf" in ASCII).
constexpr uint64_t kAsyncHelloSpanSalt = 0x6173796e68656c6fULL;
constexpr uint64_t kAsyncLogFetchSpanSalt = 0x6173796e6c6f6766ULL;

}  // namespace

// One reactor shard: an event loop on its own thread plus the connections
// pinned to it. `conns` and `graveyard` are touched only on the loop
// thread; `stopping` likewise (the stop task sets it before any later
// adopt task can run).
struct AsyncSyncServer::Shard {
  net::EventLoop loop;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  /// Closed connections awaiting destruction: a conn cannot be destroyed
  /// from inside its own callback, so CloseConn parks it here and a loop
  /// task reclaims it after the dispatch round.
  std::vector<std::unique_ptr<Conn>> graveyard;
  bool stopping = false;
};

// Per-connection state machine, single-threaded on its shard's loop.
struct AsyncSyncServer::Conn {
  Conn(Shard* shard_in, std::unique_ptr<net::TcpStream> stream_in,
       net::FrameLimits limits, obs::TraceSink* trace_sink)
      : shard(shard_in),
        stream(std::move(stream_in)),
        framed(stream.get(), limits),
        span(trace_sink, "sync-session") {}

  /// Send with trace accounting: frame bytes are attributed to the
  /// span's open phase by differencing the conn's enqueued-byte total
  /// (bytes_sent would lag by whatever the socket left buffered).
  bool SendTracked(const transport::Message& message) {
    const bool ok = framed.Send(message);
    if (span.active()) {
      span.AddFrameOut(framed.bytes_enqueued() - span_bytes_out);
      span_bytes_out = framed.bytes_enqueued();
    }
    return ok;
  }

  enum class Phase {
    kHandshake,  ///< Awaiting "@hello".
    kSession,    ///< Bob's PartySession pumping protocol frames.
    kDraining,   ///< "@result" shipped; discarding until the client closes.
    kClosing,    ///< Flushing the last frames, then close (reject path).
  };

  Shard* shard;
  std::unique_ptr<net::TcpStream> stream;
  net::AsyncFramedConn framed;
  Phase phase = Phase::kHandshake;
  bool closed = false;
  /// Read side ended (EOF handled). Readable interest must be dropped
  /// then: with level-triggered epoll an EOF'd socket stays readable
  /// forever, which would spin the loop while a final flush completes.
  bool read_done = false;

  std::string protocol;
  bool want_result_set = true;
  /// The canonical generation this session is pinned to (kept alive here
  /// so the Bob session's sketch provider stays valid under ApplyUpdate).
  std::shared_ptr<const SketchSnapshot> snapshot;
  std::unique_ptr<recon::PartySession> bob;
  size_t deliveries = 0;
  size_t drained = 0;
  std::chrono::steady_clock::time_point session_start;

  obs::SessionSpan span;
  std::chrono::steady_clock::time_point accept_time;
  bool first_frame_seen = false;
  size_t span_bytes_in = 0;
  size_t span_bytes_out = 0;

  // Outcome flags, settled into the shared metrics once, at CloseConn.
  bool rejected = false;
  bool session_started = false;
  bool session_finished = false;
  bool session_success = false;
  bool timed_out = false;
  double wall_seconds = 0.0;

  uint32_t interest = 0;
  /// One long-lived wheel timer per connection; I/O events just stamp
  /// last_activity and the timer re-arms itself for the remainder when it
  /// fires early — no per-frame cancel/re-add churn on the hot path.
  net::EventLoop::TimerId idle_timer = net::EventLoop::kNoTimer;
  std::chrono::steady_clock::time_point last_activity;
};

AsyncSyncServer::AsyncSyncServer(PointSet canonical,
                                 AsyncSyncServerOptions options)
    : options_(std::move(options)),
      obs_(ServerObsOptions{options_.latency_probes, options_.trace_sink}),
      clock_(options_.clock != nullptr ? options_.clock : obs::Clock::Real()),
      trace_gen_(options_.trace_seed, kAsyncHelloSpanSalt),
      store_(std::move(canonical),
             SketchStoreOptions{
                 options_.context, options_.params,
                 MakeStoreMetrics(&obs_.registry(), options_.latency_probes)}),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &recon::ProtocolRegistry::Global()),
      replica_seq_gauge_(obs_.registry().GetGauge(
          "rsr_replica_seq", "Replication position (journaled seq)")),
      pin_{store_.Snapshot()} {
  if (options_.latency_probes) {
    obs::MetricsRegistry& reg = obs_.registry();
    loop_metrics_.iteration_seconds =
        reg.GetHistogram("rsr_loop_iteration_seconds",
                         "Busy part of one shard dispatch round",
                         obs::DefaultLatencyBounds());
    loop_metrics_.epoll_wait_seconds =
        reg.GetHistogram("rsr_loop_epoll_wait_seconds",
                         "Time blocked in epoll_wait per round",
                         obs::DefaultLatencyBounds());
    loop_metrics_.timer_fires = reg.GetCounter(
        "rsr_loop_timer_fires_total", "Timer-wheel callbacks fired");
    loop_metrics_.pending_tasks =
        reg.GetHistogram("rsr_loop_pending_tasks",
                         "Cross-thread task batch size per drain",
                         obs::DefaultDepthBounds());
  }
}

AsyncSyncServer::~AsyncSyncServer() { Stop(); }

bool AsyncSyncServer::Start(std::unique_ptr<net::TcpListener> listener) {
  if (listener == nullptr || !shards_.empty()) return false;
  listener_ = std::move(listener);
  listener_->SetNonBlocking(true);
  const size_t shard_count = std::max<size_t>(1, options_.shards);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    // One shared Metrics struct serves every shard (the instruments are
    // thread-safe); install before the loop thread exists.
    if (options_.latency_probes) shard->loop.set_metrics(&loop_metrics_);
    shard->thread = std::thread([s = shard.get()] { s->loop.Run(); });
  }
  // The listener lives on shard 0; registration must happen on its loop
  // thread, like every other fd operation.
  shards_[0]->loop.RunInLoop([this] {
    shards_[0]->loop.Add(listener_->fd(), net::Ready::kReadable,
                         [this](uint32_t) { AcceptReady(); });
  });
  return true;
}

void AsyncSyncServer::Stop() {
  if (shards_.empty()) {
    listener_.reset();
    return;
  }
  if (listener_ != nullptr) listener_->Close();
  // Drain shards in index order: each stop task fails the shard's open
  // connections (settling their metrics) and stops its loop; the join
  // makes the whole shard quiescent before the next one is touched.
  for (std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    shard->loop.RunInLoop([this, shard] {
      shard->stopping = true;
      std::vector<Conn*> open;
      open.reserve(shard->conns.size());
      for (auto& [fd, conn] : shard->conns) open.push_back(conn.get());
      for (Conn* conn : open) FailConn(conn, SessionError::kTransportClosed);
      shard->loop.Stop();
    });
    if (shard->thread.joinable()) shard->thread.join();
    shard->graveyard.clear();
  }
  shards_.clear();
  listener_.reset();
}

uint16_t AsyncSyncServer::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

SyncServerMetrics AsyncSyncServer::metrics() const {
  return obs_.LegacyMetrics();
}

std::string AsyncSyncServer::DumpStats() const {
  const Pin pin = CurrentPin();
  return rsr::server::DumpStats(metrics(), pin.snapshot->generation(),
                                pin.seq);
}

AsyncSyncServer::Pin AsyncSyncServer::CurrentPin() const {
  MutexLock lock(pin_mu_);
  return pin_;
}

std::shared_ptr<const SketchSnapshot> AsyncSyncServer::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  return ApplyUpdate(inserts, erases, obs::TraceContext());
}

std::shared_ptr<const SketchSnapshot> AsyncSyncServer::ApplyUpdate(
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
  MutexLock pin_lock(pin_mu_);
  pin_ = Pin{snap, replica_seq_};
  return snap;
}

uint64_t AsyncSyncServer::replica_seq() const {
  MutexLock lock(replica_mu_);
  return replica_seq_;
}

void AsyncSyncServer::AcceptReady() {
  for (;;) {
    std::unique_ptr<net::TcpStream> stream;
    switch (listener_->TryAccept(&stream)) {
      case net::TcpListener::AcceptStatus::kAccepted: {
        stream->SetNonBlocking(true);
        Shard* shard = shards_[next_shard_++ % shards_.size()].get();
        if (shard == shards_[0].get()) {
          AdoptConn(shard, std::move(stream));
        } else {
          // std::function wants copyable captures; hand the fd over raw.
          // RunInLoop guarantees the task eventually runs (even at loop
          // exit), so the stream is never leaked.
          net::TcpStream* raw = stream.release();
          shard->loop.RunInLoop([this, shard, raw] {
            AdoptConn(shard, std::unique_ptr<net::TcpStream>(raw));
          });
        }
        continue;
      }
      case net::TcpListener::AcceptStatus::kEmptyBacklog:
        return;
      case net::TcpListener::AcceptStatus::kRetryLater: {
        // fd exhaustion with the backlog still populated: the listener
        // stays readable, so returning here would re-enter at full spin.
        // Shed accept interest and re-arm it from a timer instead.
        net::EventLoop& loop = shards_[0]->loop;
        loop.Modify(listener_->fd(), 0);
        loop.AddTimer(std::chrono::milliseconds(50), [this] {
          shards_[0]->loop.Modify(listener_->fd(), net::Ready::kReadable);
        });
        return;
      }
      case net::TcpListener::AcceptStatus::kClosed:
        shards_[0]->loop.Remove(listener_->fd());
        return;
    }
  }
}

void AsyncSyncServer::AdoptConn(Shard* shard,
                                std::unique_ptr<net::TcpStream> stream) {
  // A conn handed over after the shard began stopping is simply dropped
  // (its destructor closes the socket); it was never served, so it is not
  // counted — exactly like a client the threaded host never dequeued.
  if (shard->stopping || stream == nullptr) return;
  const int fd = stream->fd();
  if (fd < 0) return;
  if (options_.so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof(options_.so_sndbuf));
  }
  auto owned = std::make_unique<Conn>(shard, std::move(stream),
                                      options_.limits, options_.trace_sink);
  Conn* conn = owned.get();
  conn->interest = net::Ready::kReadable;
  if (!shard->loop.Add(fd, conn->interest,
                       [this, conn](uint32_t ready) {
                         OnConnEvent(conn, ready);
                       })) {
    return;
  }
  shard->conns.emplace(fd, std::move(owned));
  obs_.OnAccepted();
  conn->accept_time = std::chrono::steady_clock::now();
  conn->span.SetSampling(&options_.trace_sampling, obs_.span_emitted(),
                         obs_.span_dropped());
  conn->span.BeginPhase("handshake");
  TouchIdleTimer(conn);
}

void AsyncSyncServer::OnConnEvent(Conn* conn, uint32_t ready) {
  if (conn->closed) return;
  TouchIdleTimer(conn);
  if (ready & net::Ready::kWritable) {
    if (conn->framed.Flush() == net::AsyncFramedConn::IoStatus::kError) {
      FailConn(conn, conn->framed.error());
      return;
    }
    if (conn->phase == Conn::Phase::kClosing && !conn->framed.wants_write()) {
      CloseConn(conn);
      return;
    }
  }
  if (ready & net::Ready::kReadable) {
    const net::AsyncFramedConn::IoStatus status = conn->framed.OnReadable();
    // Frames fully received before an EOF still count: process the inbox
    // first, then honour the stream end.
    ProcessInbox(conn);
    if (conn->closed) return;
    if (status != net::AsyncFramedConn::IoStatus::kOk) {
      HandleStreamEnd(conn, status);
      if (conn->closed) return;
    }
  }
  UpdateInterest(conn);
}

void AsyncSyncServer::ProcessInbox(Conn* conn) {
  transport::Message message;
  while (!conn->closed) {
    switch (conn->framed.Next(&message)) {
      case net::AsyncFramedConn::NextStatus::kMessage:
        if (!conn->first_frame_seen) {
          conn->first_frame_seen = true;
          obs_.ObserveAcceptToFirstFrame(SecondsSince(conn->accept_time));
        }
        if (conn->span.active()) {
          conn->span.AddFrameIn(conn->framed.bytes_received() -
                                conn->span_bytes_in);
          conn->span_bytes_in = conn->framed.bytes_received();
        }
        switch (conn->phase) {
          case Conn::Phase::kHandshake:
            HandleHello(conn, std::move(message));
            break;
          case Conn::Phase::kSession:
            HandleSessionMessage(conn, std::move(message));
            break;
          case Conn::Phase::kDraining:
          case Conn::Phase::kClosing:
            // Post-result (or post-reject) traffic is discarded, bounded
            // like the threaded host's drain loop.
            if (++conn->drained > options_.max_deliveries) CloseConn(conn);
            break;
        }
        continue;
      case net::AsyncFramedConn::NextStatus::kIdle:
        return;
      case net::AsyncFramedConn::NextStatus::kError:
        // Corrupt frame: the stream has lost sync for good.
        switch (conn->phase) {
          case Conn::Phase::kHandshake:
            // Nothing usable arrived; no one to send a reject to.
            CloseConn(conn);
            break;
          case Conn::Phase::kSession:
            FinishSession(conn, conn->framed.error());
            if (!conn->closed) CloseConn(conn);
            break;
          case Conn::Phase::kDraining:
          case Conn::Phase::kClosing:
            CloseConn(conn);
            break;
        }
        return;
    }
  }
}

void AsyncSyncServer::HandleHello(Conn* conn, transport::Message message) {
  // Replication verbs claim the whole connection before any "@hello".
  // "@pull" is deliberately NOT served here (see the options comment);
  // falling through makes DecodeHello fail and reject it by name.
  if (message.label == kLogFetchLabel) {
    HandleLogFetch(conn, std::move(message));
    return;
  }
  if (message.label == kStatsLabel) {
    HandleStats(conn);
    return;
  }
  HelloFrame hello;
  std::string reject_reason;
  std::unique_ptr<recon::Reconciler> protocol;
  if (!DecodeHello(message, &hello)) {
    reject_reason = "expected a well-formed " + std::string(kHelloLabel) +
                    " frame, got \"" + message.label + "\"";
  } else if (!registry_->Contains(hello.protocol) ||
             (protocol = registry_->Create(hello.protocol, options_.context,
                                           options_.params)) == nullptr) {
    reject_reason = "unknown protocol \"" + hello.protocol + "\"";
  }
  if (!reject_reason.empty()) {
    RejectFrame reject;
    reject.reason = reject_reason;
    reject.protocols = registry_->ListProtocols();
    conn->rejected = true;
    conn->SendTracked(EncodeReject(reject));
    conn->phase = Conn::Phase::kClosing;
    if (!conn->framed.wants_write()) CloseConn(conn);
    return;
  }

  conn->protocol = hello.protocol;
  conn->want_result_set = hello.want_result_set;
  conn->session_start = std::chrono::steady_clock::now();
  conn->session_started = true;
  conn->span.set_protocol(hello.protocol);
  AdoptTrace(conn, hello.trace, kAsyncHelloSpanSalt);
  conn->span.BeginPhase("rounds");
  // Pin the session to one immutable canonical generation; the snapshot
  // stays alive on the conn for the session's lifetime (Bob borrows its
  // points). ApplyUpdate publishes the snapshot with its replication
  // position, so the pair is one consistent view.
  const Pin pin = CurrentPin();
  conn->snapshot = pin.snapshot;
  const uint64_t served_seq = pin.seq;
  conn->bob = protocol->MakeBobSession(
      conn->snapshot->points(),
      options_.serve_from_cache ? conn->snapshot.get() : nullptr);
  conn->phase = Conn::Phase::kSession;

  AcceptFrame ack;
  ack.protocol = hello.protocol;
  ack.server_set_size = conn->snapshot->size();
  ack.will_send_result_set = hello.want_result_set;
  ack.generation = conn->snapshot->generation();
  ack.replica_seq = served_seq;
  if (!conn->SendTracked(EncodeAccept(ack))) {
    FailConn(conn, SessionError::kTransportClosed);
    return;
  }
  for (transport::Message& opening : conn->bob->Start()) {
    if (!conn->SendTracked(opening)) {
      FailConn(conn, SessionError::kTransportClosed);
      return;
    }
  }
  if (conn->bob->IsDone()) FinishSession(conn, SessionError::kNone);
}

void AsyncSyncServer::HandleLogFetch(Conn* conn, transport::Message message) {
  LogFetchFrame fetch;
  if (!DecodeLogFetch(message, &fetch)) {
    RejectFrame reject;
    reject.reason = "malformed " + std::string(kLogFetchLabel) + " frame";
    reject.protocols = registry_->ListProtocols();
    conn->rejected = true;
    conn->SendTracked(EncodeReject(reject));
    conn->phase = Conn::Phase::kClosing;
    if (!conn->framed.wants_write()) CloseConn(conn);
    return;
  }
  conn->protocol = kLogFetchLabel;
  conn->session_start = std::chrono::steady_clock::now();
  conn->session_started = true;
  conn->span.set_protocol(conn->protocol);
  AdoptTrace(conn, fetch.trace, kAsyncLogFetchSpanSalt);
  conn->span.BeginPhase("result");
  LogBatchFrame batch;
  {
    MutexLock lock(replica_mu_);
    // The async host never installs repairs, so its tail is always sound:
    // repair_dirty is constitutively false here.
    batch = BuildLogBatch(fetch, options_.changelog, *store_.Snapshot(),
                          replica_seq_, /*repair_dirty=*/false,
                          options_.context, options_.log_fetch_max_entries);
  }
  conn->session_success =
      conn->SendTracked(EncodeLogBatch(batch, options_.context.universe));
  conn->session_finished = true;
  conn->wall_seconds = SecondsSince(conn->session_start);
  // As after "@result": wait for the fetcher to close rather than racing
  // it with unread bytes queued.
  conn->phase = Conn::Phase::kDraining;
}

void AsyncSyncServer::HandleStats(Conn* conn) {
  conn->protocol = kStatsLabel;
  conn->session_start = std::chrono::steady_clock::now();
  conn->session_started = true;
  conn->span.set_protocol(conn->protocol);
  conn->span.BeginPhase("result");
  conn->session_success =
      conn->SendTracked(EncodeStatsReply(RenderMetrics()));
  conn->session_finished = true;
  conn->wall_seconds = SecondsSince(conn->session_start);
  conn->phase = Conn::Phase::kDraining;
}

void AsyncSyncServer::HandleSessionMessage(Conn* conn,
                                           transport::Message message) {
  if (IsControlLabel(message.label)) {
    // The control plane is quiet during the protocol phase.
    FinishSession(conn, SessionError::kUnexpectedMessage);
    return;
  }
  if (++conn->deliveries > options_.max_deliveries) {
    FinishSession(conn, SessionError::kStalled);
    return;
  }
  for (transport::Message& reply : conn->bob->OnMessage(std::move(message))) {
    if (!conn->SendTracked(reply)) {
      FailConn(conn, SessionError::kTransportClosed);
      return;
    }
  }
  if (conn->bob->IsDone()) FinishSession(conn, SessionError::kNone);
}

void AsyncSyncServer::FinishSession(Conn* conn, SessionError pump_error) {
  // A repair ships straight from the pinned set (no copy of it).
  const std::optional<recon::RepairedSet> repaired =
      conn->bob->TakeRepairedSet();
  recon::ReconResult result = conn->bob->TakeResult();
  if (pump_error != SessionError::kNone) {
    result.success = false;
    if (result.error == SessionError::kNone) result.error = pump_error;
  }
  conn->session_finished = true;
  conn->session_success = result.success;
  conn->wall_seconds = SecondsSince(conn->session_start);
  conn->span.BeginPhase("result");

  ResultFrame frame;
  frame.has_set = conn->want_result_set && result.success;
  frame.result = std::move(result);
  if (!frame.has_set) frame.result.bob_final.clear();
  conn->SendTracked(EncodeResult(frame, options_.context.universe,
                                 repaired.has_value() ? &*repaired : nullptr));
  // Like the threaded host: wait for the client to close rather than
  // racing it with unread bytes queued (which could RST the connection
  // and discard the result frame in flight).
  conn->phase = Conn::Phase::kDraining;
}

void AsyncSyncServer::FailConn(Conn* conn, SessionError error) {
  (void)error;  // recorded as a failed sync; no peer left to detail it to
  if (conn->phase == Conn::Phase::kSession && !conn->session_finished) {
    conn->session_finished = true;
    conn->session_success = false;
    conn->wall_seconds = SecondsSince(conn->session_start);
  }
  CloseConn(conn);
}

void AsyncSyncServer::HandleStreamEnd(Conn* conn,
                                      net::AsyncFramedConn::IoStatus status) {
  conn->read_done = true;
  switch (conn->phase) {
    case Conn::Phase::kHandshake:
      // Silent or garbled peer; the connection never got off the ground.
      CloseConn(conn);
      return;
    case Conn::Phase::kSession:
      // Peer's read side ended mid-protocol: clean EOF between frames
      // maps to kTransportClosed, EOF inside one to kMalformedMessage —
      // both already distinguished by the conn's error(). (A half-closing
      // peer whose final frame completed Bob never reaches this branch:
      // ProcessInbox finished the session and moved to kDraining first.)
      FinishSession(conn, conn->framed.error() != SessionError::kNone
                              ? conn->framed.error()
                              : SessionError::kTransportClosed);
      if (conn->closed) return;
      break;
    case Conn::Phase::kDraining:
    case Conn::Phase::kClosing:
      break;
  }
  // The read side is over, but a large "@result" the socket accepted only
  // partially may still sit in the outbox — closing now would truncate it
  // for a legal half-closing client.
  if (conn->framed.wants_write() && conn->framed.write_ok()) {
    // Push what the socket takes right now: a reset peer fails the write
    // here and closes, instead of spinning on the persistent EPOLLERR.
    if (conn->framed.Flush() == net::AsyncFramedConn::IoStatus::kError) {
      FailConn(conn, conn->framed.error());
      return;
    }
    if (conn->framed.wants_write()) {
      // Hold the connection in kClosing on kWritable-only interest
      // (read_done drops kReadable — a level-triggered EOF'd socket
      // stays readable forever); OnConnEvent closes it once drained.
      conn->phase = Conn::Phase::kClosing;
      UpdateInterest(conn);
      return;
    }
  }
  CloseConn(conn);
  (void)status;
}

void AsyncSyncServer::OnIdleTimeout(Conn* conn) {
  conn->idle_timer = net::EventLoop::kNoTimer;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - conn->last_activity);
  if (elapsed < options_.idle_timeout) {
    // Traffic arrived since the timer was armed: not idle — re-arm for
    // the remainder of the window.
    conn->idle_timer = conn->shard->loop.AddTimer(
        options_.idle_timeout - elapsed, [this, conn] {
          OnIdleTimeout(conn);
        });
    return;
  }
  conn->timed_out = true;
  if (conn->phase == Conn::Phase::kSession && !conn->session_finished) {
    // Best effort: the peer is idle, not necessarily gone — ship the
    // failure result before hanging up on it.
    FinishSession(conn, SessionError::kTransportClosed);
  }
  if (!conn->closed) CloseConn(conn);
}

void AsyncSyncServer::UpdateInterest(Conn* conn) {
  if (conn->closed) return;
  uint32_t want = conn->read_done ? 0 : net::Ready::kReadable;
  if (conn->framed.wants_write()) want |= net::Ready::kWritable;
  if (want == conn->interest) return;
  conn->shard->loop.Modify(conn->stream->fd(), want);
  conn->interest = want;
}

void AsyncSyncServer::TouchIdleTimer(Conn* conn) {
  if (options_.idle_timeout.count() <= 0) return;
  conn->last_activity = std::chrono::steady_clock::now();
  // The per-connection timer is armed once and re-arms itself against
  // last_activity when it fires (OnIdleTimeout); the hot path only
  // stamps the clock.
  if (conn->idle_timer == net::EventLoop::kNoTimer) {
    conn->idle_timer = conn->shard->loop.AddTimer(
        options_.idle_timeout, [this, conn] { OnIdleTimeout(conn); });
  }
}

void AsyncSyncServer::CloseConn(Conn* conn) {
  if (conn->closed) return;
  conn->closed = true;
  Shard* shard = conn->shard;
  if (conn->idle_timer != net::EventLoop::kNoTimer) {
    shard->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = net::EventLoop::kNoTimer;
  }
  const int fd = conn->stream->fd();
  shard->loop.Remove(fd);

  ServerObs::Settle settle;
  settle.session_counted = conn->session_started && conn->session_finished;
  settle.protocol = conn->protocol;
  settle.success = conn->session_success;
  settle.wall_seconds = conn->wall_seconds;
  settle.rejected = conn->rejected;
  settle.timed_out = conn->timed_out;
  settle.bytes_in = conn->framed.bytes_received();
  settle.bytes_out = conn->framed.bytes_sent();
  obs_.OnClosed(settle);
  if (conn->span.active()) {
    if (conn->rejected) {
      conn->span.set_outcome("rejected");
    } else if (conn->timed_out) {
      conn->span.set_outcome("idle-timeout");
    } else if (settle.session_counted) {
      conn->span.set_outcome(conn->session_success ? "ok" : "fail");
    } else {
      conn->span.set_outcome("never-started");
    }
    conn->span.Finish();
  }

  // The conn cannot die inside its own callback; park it and reclaim it
  // after the dispatch round.
  auto it = shard->conns.find(fd);
  if (it != shard->conns.end()) {
    shard->graveyard.push_back(std::move(it->second));
    shard->conns.erase(it);
    shard->loop.RunInLoop([shard] { shard->graveyard.clear(); });
  }
}

void AsyncSyncServer::AdoptTrace(Conn* conn, const obs::TraceContext& inbound,
                                 uint64_t salt) {
  if (!conn->span.active()) return;
  obs::TraceContext ctx = inbound;
  uint64_t parent = 0;
  if (ctx.valid()) {
    parent = ctx.span_id;
    ctx.span_id = obs::DeriveSpanId(ctx, salt);
  } else {
    // Untraced callers still get a root trace, so every emitted span is
    // joinable and the sampling hash never keys on a constant zero.
    ctx = trace_gen_.NewTrace();
  }
  conn->span.SetTrace(ctx, parent);
}

}  // namespace server
}  // namespace rsr
