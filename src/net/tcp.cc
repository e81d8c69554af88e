#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rsr {
namespace net {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Close() only shuts the socket down: that unblocks any thread sitting in
/// recv/send/accept, but the fd number stays reserved until the destructor
/// — the object's sole owner — actually closes it. Releasing the fd while
/// another thread is between fd_.load() and its blocking syscall would let
/// the kernel recycle the number for an unrelated connection.
void ShutdownOnly(const std::atomic<int>& fd_slot) {
  const int fd = fd_slot.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void ShutdownAndRelease(std::atomic<int>* fd_slot) {
  const int fd = fd_slot->exchange(-1);
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

bool SetFdNonBlocking(int fd, bool enabled) {
  if (fd < 0) return false;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return flags == wanted || ::fcntl(fd, F_SETFL, wanted) == 0;
}

}  // namespace

// ----------------------------------------------------------------- stream

TcpStream::TcpStream(int fd) : fd_(fd) { SetNoDelay(fd); }

TcpStream::~TcpStream() { ShutdownAndRelease(&fd_); }

std::unique_ptr<TcpStream> TcpStream::Connect(const std::string& host,
                                              uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result) != 0) {
    return nullptr;
  }
  int fd = -1;
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) return nullptr;
  return std::make_unique<TcpStream>(fd);
}

ptrdiff_t TcpStream::Read(uint8_t* buf, size_t n) {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return 0;  // locally closed: report EOF
    const ssize_t r = ::recv(fd, buf, n, 0);
    if (r >= 0) return static_cast<ptrdiff_t>(r);
    if (errno == EINTR) continue;
    // ECONNRESET after we shipped our last frame is a peer that closed
    // without draining; callers treat -1 as a transport error.
    return -1;
  }
}

bool TcpStream::Write(const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const int fd = fd_.load();
    if (fd < 0) return false;
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a fatal signal.
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

void TcpStream::Close() { ShutdownOnly(fd_); }

ptrdiff_t TcpStream::ReadSome(uint8_t* buf, size_t n) {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return 0;  // locally closed: report EOF
    const ssize_t r = ::recv(fd, buf, n, 0);
    if (r >= 0) return static_cast<ptrdiff_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

ptrdiff_t TcpStream::WriteSome(const uint8_t* data, size_t n) {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return -1;
    const ssize_t r = ::send(fd, data, n, MSG_NOSIGNAL);
    if (r >= 0) return static_cast<ptrdiff_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

bool TcpStream::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(fd_.load(), enabled);
}

bool TcpStream::SetReadTimeout(std::chrono::milliseconds timeout) {
  const int fd = fd_.load();
  if (fd < 0 || timeout.count() <= 0) return false;
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

// --------------------------------------------------------------- listener

TcpListener::~TcpListener() { ShutdownAndRelease(&fd_); }

std::unique_ptr<TcpListener> TcpListener::Listen(const std::string& host,
                                                 uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Strict dotted-quad only ("0.0.0.0" binds all interfaces). Falling back
  // to INADDR_ANY on a typo would silently expose the server beyond the
  // interface the caller asked for.
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return nullptr;
  }
  // Recover the ephemeral port when the caller asked for port 0.
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  uint16_t actual_port = port;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    actual_port = ntohs(bound.sin_port);
  }
  return std::unique_ptr<TcpListener>(new TcpListener(fd, actual_port));
}

std::unique_ptr<TcpStream> TcpListener::Accept() {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return nullptr;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) return std::make_unique<TcpStream>(conn);
    if (errno == EINTR) continue;
    // A connection that RSTed while still in the backlog kills itself,
    // not the listener.
    if (errno == ECONNABORTED || errno == EPROTO) continue;
    // Close() shut the listening socket down: accept fails with EINVAL
    // (Linux) or EBADF; either way the accept loop is over.
    return nullptr;
  }
}

TcpListener::AcceptStatus TcpListener::TryAccept(
    std::unique_ptr<TcpStream>* out) {
  for (;;) {
    const int fd = fd_.load();
    if (fd < 0) return AcceptStatus::kClosed;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) {
      *out = std::make_unique<TcpStream>(conn);
      return AcceptStatus::kAccepted;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return AcceptStatus::kEmptyBacklog;
    }
    // Transient per-connection failure: the peer RSTed while queued.
    if (errno == ECONNABORTED || errno == EPROTO) continue;
    // Transient resource exhaustion (fd limits, socket buffers) must not
    // read as "listener closed" — the reactor would deregister the
    // listener and never accept again.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      return AcceptStatus::kRetryLater;
    }
    return AcceptStatus::kClosed;
  }
}

bool TcpListener::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(fd_.load(), enabled);
}

void TcpListener::Close() { ShutdownOnly(fd_); }

}  // namespace net
}  // namespace rsr
