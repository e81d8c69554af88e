// Many-client sync server over the protocol registry: a worker pool of
// blocking pumps.
//
// One SyncServer owns a replicated canonical point set (its
// CanonicalHost base, server/canonical_host.h) and reconciles it
// concurrently against any number of connecting replicas. Every verb —
// the "@hello"/"@accept" handshake, the Bob-side PartySession pump,
// "@result", "@pull", "@log-fetch", "@stats" — is decided by
// server::Connection (server/connection.h); this class only moves its
// frames over a blocking net::FramedStream. A served sync is therefore
// bit-identical to recon::DrivePair on the same inputs, and to the same
// sync served by the reactor (server/async_sync_server.h).
//
// Threading model: Start() spawns one accept thread plus a fixed pool of
// worker threads; accepted connections go through a queue and each worker
// serves one connection at a time, blocking on its socket. Sessions are
// single-threaded end to end — only the queue (behind a mutex), the
// canonical host's write path and the metrics registry (lock-free record
// path; server/server_obs.h) are shared — which is what keeps the
// protocol code (written for the in-process driver) safe to host
// unchanged. ServeConnection is also callable directly over any
// ByteStream: pipes, tests and the replica mesh use it. See DESIGN.md §6.

#ifndef RSR_SERVER_SYNC_SERVER_H_
#define RSR_SERVER_SYNC_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/byte_stream.h"
#include "net/tcp.h"
#include "server/canonical_host.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

struct SyncServerOptions : ServingOptions {
  /// Worker threads; each serves one connection at a time.
  size_t worker_threads = 4;
};

class SyncServer : public CanonicalHost {
 public:
  SyncServer(PointSet canonical, SyncServerOptions options);
  ~SyncServer();

  /// Serves exactly one connection to completion on the calling thread:
  /// a blocking pump feeding a server::Connection. Start()'s workers call
  /// it, and tests and the replica mesh drive it directly over pipes.
  void ServeConnection(net::ByteStream* stream);

  /// Spawns the accept thread and worker pool over `listener`. Returns
  /// false if already started or `listener` is null.
  bool Start(std::unique_ptr<net::TcpListener> listener);

  /// Closes the listener plus every queued and in-flight connection
  /// stream (so shutdown never waits on a silent client), then joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// Bound TCP port (0 unless Start()ed).
  uint16_t port() const;

 private:
  void AcceptLoop();
  void WorkerLoop();

  const size_t worker_threads_;
  std::unique_ptr<net::TcpListener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// A queued connection remembers when it was accepted so the dequeuing
  /// worker can observe the queue-delay histogram.
  struct PendingConn {
    std::unique_ptr<net::ByteStream> stream;
    std::chrono::steady_clock::time_point enqueued;
  };

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<PendingConn> pending_ RSR_GUARDED_BY(queue_mu_);
  bool stopping_ RSR_GUARDED_BY(queue_mu_) = false;

  /// Streams currently inside a worker's ServeConnection; Stop() closes
  /// them to unblock sessions stuck on a silent or slow client.
  /// LOCK ORDER: acquired with queue_mu_ already held in the dequeue
  /// path, so active_mu_ nests inside queue_mu_ — never the reverse.
  Mutex active_mu_ RSR_ACQUIRED_AFTER(queue_mu_);
  std::set<net::ByteStream*> active_ RSR_GUARDED_BY(active_mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SYNC_SERVER_H_
