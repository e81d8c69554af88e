#include "server/sync_server.h"

#include <chrono>
#include <utility>

#include "net/frame.h"
#include "server/connection.h"

namespace rsr {
namespace server {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

SyncServer::SyncServer(PointSet canonical, SyncServerOptions options)
    : CanonicalHost(std::move(canonical), options),
      worker_threads_(options.worker_threads) {}

SyncServer::~SyncServer() { Stop(); }

void SyncServer::ServeConnection(net::ByteStream* stream) {
  Connection conn(this);
  net::FramedStream framed(stream, serving_options().limits);
  const std::chrono::milliseconds timeout = serving_options().idle_timeout;
  // SO_RCVTIMEO surfaces as a plain transport error, so elapsed time is
  // the only signal that tells "peer went silent" from "peer sent garbage".
  const double timeout_seconds =
      timeout.count() > 0 && stream->SetReadTimeout(timeout)
          ? std::chrono::duration<double>(timeout).count()
          : 0.0;
  transport::Message frame;
  while (!conn.done()) {
    const auto wait_start = std::chrono::steady_clock::now();
    switch (framed.Receive(&frame)) {
      case net::FramedStream::RecvStatus::kMessage:
        conn.OnFrame(std::move(frame));
        break;
      case net::FramedStream::RecvStatus::kClosed:
        conn.OnStreamEnd(recon::SessionError::kNone);
        break;
      case net::FramedStream::RecvStatus::kError:
        if (timeout_seconds > 0.0 &&
            SecondsSince(wait_start) >= 0.9 * timeout_seconds) {
          conn.OnIdleTimeout();
        } else {
          conn.OnStreamEnd(framed.error());
        }
        break;
    }
    bool sent = true;
    for (const transport::Message& out : conn.TakeOutbox()) {
      if (!(sent = framed.Send(out))) break;
    }
    if (!sent) break;  // the peer is gone: close now
  }
  stream->Close();
  conn.OnClosed(framed.bytes_received(), framed.bytes_sent());
}

bool SyncServer::Start(std::unique_ptr<net::TcpListener> listener) {
  if (listener == nullptr || accept_thread_.joinable()) return false;
  {
    MutexLock lock(queue_mu_);
    stopping_ = false;
  }
  listener_ = std::move(listener);
  const size_t worker_count = worker_threads_ > 0 ? worker_threads_ : 1;
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
    obs().ObserveQueueDelay(SecondsSince(conn.enqueued));
    ServeConnection(conn.stream.get());
    {
      MutexLock active_lock(active_mu_);
      active_.erase(conn.stream.get());
    }
  }
}

}  // namespace server
}  // namespace rsr
