// Event-driven many-client sync server: N epoll shards, zero blocked
// threads per connection.
//
// AsyncSyncServer serves exactly what SyncServer serves — every verb is
// decided by the same server::Connection state machine
// (server/connection.h) over the same CanonicalHost base
// (server/canonical_host.h), so results are bit-identical to
// recon::DrivePair and to the threaded host, "@pull" included — but
// moves the frames on a reactor instead of a worker pool. Start() spawns
// `shards` threads, each running one net::EventLoop; the listener is
// accepted on shard 0 and every new connection is pinned to a shard
// round-robin at accept time. A pinned connection's whole life — frame
// decode, Connection input, flush — happens on that one shard thread, so
// sessions stay single-threaded with no locks on the hot path; only the
// canonical host's write path and the metrics registry (lock-free record
// path; server/server_obs.h) are shared.
//
// Because no thread ever blocks on a socket, concurrency is bounded by fd
// limits rather than thread count: two shards sustain hundreds of
// mostly-idle replicas where a two-worker SyncServer serializes them
// (bench/bench_e17_async_load.cc measures exactly this).
//
// Idle connections are bounded: a connection with no traffic for
// `idle_timeout` is failed with SessionError::kTransportClosed (a
// best-effort failure "@result" is flushed first if a session was live).
// Stop() drains deterministically — it closes the listener, then posts one
// shutdown task per shard that reads each open connection's pending input
// once (so a peer that already closed cleanly settles as it ended), fails
// what is still open and stops its loop, then joins the shard threads in
// index order.
// See DESIGN.md §8.

#ifndef RSR_SERVER_ASYNC_SYNC_SERVER_H_
#define RSR_SERVER_ASYNC_SYNC_SERVER_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/async_frame.h"
#include "net/event_loop.h"
#include "net/tcp.h"
#include "server/canonical_host.h"

namespace rsr {
namespace server {

struct AsyncSyncServerOptions : ServingOptions {
  /// Event-loop shards (threads). Each connection is pinned to one.
  size_t shards = 2;
  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default.
  /// Small values bound per-connection kernel memory under huge fan-out —
  /// and force the partial-write flush paths the tests pin down.
  int so_sndbuf = 0;
};

class AsyncSyncServer : public CanonicalHost {
 public:
  AsyncSyncServer(PointSet canonical, AsyncSyncServerOptions options);
  ~AsyncSyncServer();

  /// Spawns the shard threads and starts accepting on `listener` (flipped
  /// to non-blocking). Returns false if already started or null.
  bool Start(std::unique_ptr<net::TcpListener> listener);

  /// Closes the listener, reads each open connection's pending input once
  /// and then fails it, stops each shard loop and joins its thread, in
  /// shard order. Idempotent; also called by the destructor.
  void Stop();

  /// Bound TCP port (0 unless Start()ed).
  uint16_t port() const;

 private:
  struct Shard;
  struct Conn;

  void AcceptReady();
  /// Registers `stream` with `shard` (runs on the shard's loop thread).
  void AdoptConn(Shard* shard, std::unique_ptr<net::TcpStream> stream);
  void OnConnEvent(Conn* conn, uint32_t ready);
  /// Feeds every frame decoded so far to the Connection, then the read
  /// side's end once those are consumed.
  void ProcessInput(Conn* conn, net::AsyncFramedConn::IoStatus status);
  /// Sends the Connection's outbox; once it is done, closes — at once, or
  /// after a flush when output is still buffered.
  void Pump(Conn* conn);
  void OnIdleTimeout(Conn* conn);
  void UpdateInterest(Conn* conn);
  void TouchIdleTimer(Conn* conn);
  /// Deregisters, settles the Connection, and schedules destruction.
  void CloseConn(Conn* conn);

  const size_t shard_count_;
  const int so_sndbuf_;
  /// Shared per-shard loop instruments, installed on every shard's loop
  /// before its thread starts. All-null when latency_probes is off.
  net::EventLoop::Metrics loop_metrics_;

  std::unique_ptr<net::TcpListener> listener_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t next_shard_ = 0;  ///< Round-robin cursor (accept path only).
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_ASYNC_SYNC_SERVER_H_
