#include "server/async_sync_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "server/connection.h"

namespace rsr {
namespace server {

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

// One connection's I/O, single-threaded on its shard's loop; every
// protocol decision is the Connection's.
struct AsyncSyncServer::Conn {
  Conn(CanonicalHost* host, Shard* shard_in,
       std::unique_ptr<net::TcpStream> stream_in, net::FrameLimits limits)
      : shard(shard_in),
        stream(std::move(stream_in)),
        framed(stream.get(), limits),
        session(host) {}

  Shard* shard;
  std::unique_ptr<net::TcpStream> stream;
  net::AsyncFramedConn framed;
  Connection session;
  bool closed = false;

  std::chrono::steady_clock::time_point accept_time;
  bool first_frame_seen = false;

  uint32_t interest = 0;
  /// One long-lived wheel timer per connection; I/O events just stamp
  /// last_activity and the timer re-arms itself for the remainder when it
  /// fires early — no per-frame cancel/re-add churn on the hot path.
  net::EventLoop::TimerId idle_timer = net::EventLoop::kNoTimer;
  std::chrono::steady_clock::time_point last_activity;
};

AsyncSyncServer::AsyncSyncServer(PointSet canonical,
                                 AsyncSyncServerOptions options)
    : CanonicalHost(std::move(canonical), options),
      shard_count_(options.shards),
      so_sndbuf_(options.so_sndbuf) {
  if (serving_options().latency_probes) {
    obs::MetricsRegistry& reg = metrics_registry();
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
  const size_t shard_count = std::max<size_t>(1, shard_count_);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    // One shared Metrics struct serves every shard (the instruments are
    // thread-safe); install before the loop thread exists.
    if (serving_options().latency_probes) {
      shard->loop.set_metrics(&loop_metrics_);
    }
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
  // Drain shards in index order: each stop task reads each open
  // connection's pending input once — input that arrived before the stop
  // still counts, above all the clean close that ends a "@pull" — then
  // fails what is still open (settling its metrics) and stops the loop;
  // the join makes the whole shard quiescent before the next one is
  // touched.
  for (std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    shard->loop.RunInLoop([this, shard] {
      shard->stopping = true;
      std::vector<Conn*> open;
      open.reserve(shard->conns.size());
      for (auto& [fd, conn] : shard->conns) open.push_back(conn.get());
      for (Conn* conn : open) {
        if (!conn->session.done()) {
          ProcessInput(conn, conn->framed.OnReadable());
        }
        CloseConn(conn);
      }
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
  if (so_sndbuf_ > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &so_sndbuf_, sizeof(so_sndbuf_));
  }
  auto owned = std::make_unique<Conn>(this, shard, std::move(stream),
                                      serving_options().limits);
  Conn* conn = owned.get();
  conn->interest = net::Ready::kReadable;
  if (!shard->loop.Add(fd, conn->interest,
                       [this, conn](uint32_t ready) {
                         OnConnEvent(conn, ready);
                       })) {
    return;
  }
  shard->conns.emplace(fd, std::move(owned));
  conn->accept_time = std::chrono::steady_clock::now();
  TouchIdleTimer(conn);
}

void AsyncSyncServer::OnConnEvent(Conn* conn, uint32_t ready) {
  if (conn->closed) return;
  TouchIdleTimer(conn);
  if ((ready & net::Ready::kWritable) &&
      conn->framed.Flush() == net::AsyncFramedConn::IoStatus::kError) {
    CloseConn(conn);
    return;
  }
  // Once the Connection is done nothing more is read: with
  // level-triggered epoll an EOF'd socket stays readable forever, which
  // would spin the loop while a final flush completes.
  if ((ready & net::Ready::kReadable) && !conn->session.done()) {
    ProcessInput(conn, conn->framed.OnReadable());
  }
  Pump(conn);
}

void AsyncSyncServer::ProcessInput(Conn* conn,
                                   net::AsyncFramedConn::IoStatus status) {
  // Frames fully received before an EOF still count: feed them first,
  // then the stream end.
  transport::Message frame;
  while (!conn->session.done()) {
    switch (conn->framed.Next(&frame)) {
      case net::AsyncFramedConn::NextStatus::kMessage:
        if (!conn->first_frame_seen) {
          conn->first_frame_seen = true;
          const std::chrono::duration<double> waited =
              std::chrono::steady_clock::now() - conn->accept_time;
          obs().ObserveAcceptToFirstFrame(waited.count());
        }
        conn->session.OnFrame(std::move(frame));
        continue;
      case net::AsyncFramedConn::NextStatus::kIdle:
        if (status != net::AsyncFramedConn::IoStatus::kOk) {
          conn->session.OnStreamEnd(
              status == net::AsyncFramedConn::IoStatus::kClosed
                  ? recon::SessionError::kNone
                  : conn->framed.error());
        }
        return;
      case net::AsyncFramedConn::NextStatus::kError:
        // Corrupt frame: the stream has lost sync for good.
        conn->session.OnStreamEnd(conn->framed.error());
        return;
    }
  }
}

void AsyncSyncServer::Pump(Conn* conn) {
  for (const transport::Message& frame : conn->session.TakeOutbox()) {
    if (!conn->framed.Send(frame)) {
      CloseConn(conn);  // the write side failed: close now
      return;
    }
  }
  // A done connection closes once its output is out — a large "@result"
  // the socket accepted only partially must not be truncated for a legal
  // half-closing client. Pushing what the socket takes right now also
  // makes a reset peer fail the write and close, instead of spinning on
  // the persistent EPOLLERR.
  if (conn->session.done() &&
      (!conn->framed.wants_write() ||
       conn->framed.Flush() == net::AsyncFramedConn::IoStatus::kError ||
       !conn->framed.wants_write())) {
    CloseConn(conn);
    return;
  }
  UpdateInterest(conn);
}

void AsyncSyncServer::OnIdleTimeout(Conn* conn) {
  conn->idle_timer = net::EventLoop::kNoTimer;
  const std::chrono::milliseconds timeout = serving_options().idle_timeout;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - conn->last_activity);
  if (elapsed < timeout) {
    // Traffic arrived since the timer was armed: not idle — re-arm for
    // the remainder of the window.
    conn->idle_timer = conn->shard->loop.AddTimer(
        timeout - elapsed, [this, conn] { OnIdleTimeout(conn); });
    return;
  }
  // Best effort: ship whatever the timeout produced (a failure "@result"
  // for a live session), then hang up without waiting on the peer.
  conn->session.OnIdleTimeout();
  for (const transport::Message& frame : conn->session.TakeOutbox()) {
    if (!conn->framed.Send(frame)) break;
  }
  CloseConn(conn);
}

void AsyncSyncServer::UpdateInterest(Conn* conn) {
  if (conn->closed) return;
  uint32_t want = conn->session.done() ? 0 : net::Ready::kReadable;
  if (conn->framed.wants_write()) want |= net::Ready::kWritable;
  if (want == conn->interest) return;
  conn->shard->loop.Modify(conn->stream->fd(), want);
  conn->interest = want;
}

void AsyncSyncServer::TouchIdleTimer(Conn* conn) {
  if (serving_options().idle_timeout.count() <= 0) return;
  conn->last_activity = std::chrono::steady_clock::now();
  // The per-connection timer is armed once and re-arms itself against
  // last_activity when it fires (OnIdleTimeout); the hot path only
  // stamps the clock.
  if (conn->idle_timer == net::EventLoop::kNoTimer) {
    conn->idle_timer = conn->shard->loop.AddTimer(
        serving_options().idle_timeout, [this, conn] { OnIdleTimeout(conn); });
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
  conn->session.OnClosed(conn->framed.bytes_received(),
                         conn->framed.bytes_sent());

  // The conn cannot die inside its own callback; park it and reclaim it
  // after the dispatch round.
  auto it = shard->conns.find(fd);
  if (it != shard->conns.end()) {
    shard->graveyard.push_back(std::move(it->second));
    shard->conns.erase(it);
    shard->loop.RunInLoop([shard] { shard->graveyard.clear(); });
  }
}

}  // namespace server
}  // namespace rsr
