// POSIX TCP transport: TcpListener / TcpStream.
//
// A thin RAII wrapper over BSD sockets implementing net::ByteStream, enough
// to put the sync server behind real sockets: bind-to-ephemeral-port
// support for tests (port 0, then port()), TCP_NODELAY on connections (the
// protocols exchange many small frames), EINTR-safe read/write loops, and a
// Close that unblocks a pending Accept.
//
// Both classes also support non-blocking mode for the async serving layer:
// SetNonBlocking(true) flips O_NONBLOCK, TcpStream additionally implements
// net::NonBlockingStream (partial reads/writes reporting kWouldBlock), and
// TcpListener::TryAccept distinguishes would-block from a closed listener
// so it can sit behind an epoll readable callback. An object is used in
// one mode for its whole life: the blocking ByteStream contract does not
// hold on a non-blocking fd.

#ifndef RSR_NET_TCP_H_
#define RSR_NET_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "net/byte_stream.h"

namespace rsr {
namespace net {

class TcpStream : public ByteStream, public NonBlockingStream {
 public:
  /// Connects to host:port ("127.0.0.1" style dotted quad or a hostname
  /// resolvable by getaddrinfo). Returns nullptr on failure.
  static std::unique_ptr<TcpStream> Connect(const std::string& host,
                                            uint16_t port);

  /// Adopts an already-connected socket fd (used by TcpListener::Accept).
  explicit TcpStream(int fd);
  ~TcpStream() override;

  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  ptrdiff_t Read(uint8_t* buf, size_t n) override;
  bool Write(const uint8_t* data, size_t n) override;
  /// Satisfies both ByteStream and NonBlockingStream.
  void Close() override;

  /// NonBlockingStream (meaningful after SetNonBlocking(true)).
  ptrdiff_t ReadSome(uint8_t* buf, size_t n) override;
  ptrdiff_t WriteSome(const uint8_t* data, size_t n) override;

  /// Flips O_NONBLOCK. False if fcntl fails or the stream is closed.
  bool SetNonBlocking(bool enabled);

  /// The underlying socket (for event-loop registration); -1 once the
  /// destructor ran.
  int fd() const { return fd_.load(); }

 private:
  std::atomic<int> fd_;
};

class TcpListener {
 public:
  /// Binds and listens on host:port. `host` must be a dotted-quad IPv4
  /// address ("127.0.0.1", "0.0.0.0", ...); anything else fails rather
  /// than silently binding all interfaces. Pass port 0 for an ephemeral
  /// port and read it back with port(). Listens with the kernel's largest
  /// accept queue (SOMAXCONN), so a burst of connects queues rather than
  /// overflowing into SYN retransmits. Returns nullptr on failure.
  static std::unique_ptr<TcpListener> Listen(const std::string& host,
                                             uint16_t port);

  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Blocks for the next connection. Returns nullptr once the listener is
  /// closed (or on a non-transient accept failure).
  std::unique_ptr<TcpStream> Accept();

  enum class AcceptStatus {
    kAccepted,    ///< *out holds the new connection.
    kEmptyBacklog,  ///< Non-blocking listener with nothing to accept.
    kRetryLater,  ///< Resource exhaustion (fd limit, buffers). The backlog
                  ///< is NOT empty — a level-triggered reactor must back
                  ///< off (timer) instead of re-polling immediately.
    kClosed,      ///< Listener closed (or a non-transient failure).
  };

  /// Non-blocking accept for the event-loop path; pair with
  /// SetNonBlocking(true) and an epoll readable callback.
  AcceptStatus TryAccept(std::unique_ptr<TcpStream>* out);

  /// Flips O_NONBLOCK on the listening socket.
  bool SetNonBlocking(bool enabled);

  /// The listening socket (for event-loop registration).
  int fd() const { return fd_.load(); }

  /// Unblocks pending Accept calls; idempotent.
  void Close();

  uint16_t port() const { return port_; }

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_;
  uint16_t port_;
};

}  // namespace net
}  // namespace rsr

#endif  // RSR_NET_TCP_H_
