// Blocking byte-stream transport abstraction.
//
// The blocking layers above this one (framing, the sync client, and the
// host's blocking pump, server::CanonicalHost::ServeConnection) speak
// ByteStream, so the same code runs over an in-process pipe pair
// (net/pipe_stream.h) and over real TCP sockets (net/tcp.h): clients dial
// the reactor host over TCP, and the pump serves pipes in tests, the
// replica mesh's pipe mode and the convergence fuzzer. The reactor itself
// speaks NonBlockingStream below. The contract is the plain POSIX one:
// reads block until at least one byte (or EOF/error), writes are
// all-or-nothing, Close is idempotent and unblocks a peer's pending read
// with a clean EOF.

#ifndef RSR_NET_BYTE_STREAM_H_
#define RSR_NET_BYTE_STREAM_H_

#include <cstddef>
#include <cstdint>

namespace rsr {
namespace net {

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Blocks until at least one byte is available, then reads up to `n`
  /// bytes into `buf`. Returns the number of bytes read, 0 on clean EOF
  /// (peer closed), or -1 on a transport error.
  virtual ptrdiff_t Read(uint8_t* buf, size_t n) = 0;

  /// Writes all `n` bytes. Returns false if the stream is closed or the
  /// transport failed mid-write.
  virtual bool Write(const uint8_t* data, size_t n) = 0;

  /// Shuts the stream down in both directions. Idempotent; a peer blocked
  /// in Read observes EOF.
  virtual void Close() = 0;
};

/// Sentinel returned by NonBlockingStream::ReadSome / WriteSome when the
/// operation cannot make progress right now (the async reactor re-arms the
/// fd and retries on the next readiness event).
inline constexpr ptrdiff_t kWouldBlock = -2;

/// Non-blocking byte-stream seam used by the async serving layer
/// (net/event_loop.h + net/async_frame.h). Unlike ByteStream, both
/// directions are partial: a read may return fewer bytes than asked, a
/// write may accept only a prefix, and either may report kWouldBlock
/// instead of blocking. TcpStream implements this in non-blocking mode;
/// tests use scripted doubles that dribble one byte at a time.
class NonBlockingStream {
 public:
  virtual ~NonBlockingStream() = default;

  /// Reads up to `n` bytes. Returns the (positive) count read, 0 on clean
  /// EOF, kWouldBlock if no byte is available, or -1 on a transport error.
  virtual ptrdiff_t ReadSome(uint8_t* buf, size_t n) = 0;

  /// Writes up to `n` bytes. Returns the count accepted (possibly short of
  /// `n`), kWouldBlock if not even one byte could be queued, or -1 on a
  /// transport error.
  virtual ptrdiff_t WriteSome(const uint8_t* data, size_t n) = 0;

  /// Shuts the stream down in both directions. Idempotent.
  virtual void Close() = 0;
};

/// Outcome of ReadFull: distinguishes a clean EOF *before* any byte (the
/// peer hung up between frames) from one *inside* the requested span (a
/// truncated frame).
enum class ReadStatus {
  kOk,         ///< All `n` bytes were read.
  kClosed,     ///< EOF before the first byte.
  kTruncated,  ///< EOF after >= 1 byte but before `n`.
  kError,      ///< Transport error.
};

/// Reads exactly `n` bytes (blocking across short reads).
ReadStatus ReadFull(ByteStream* stream, uint8_t* buf, size_t n);

}  // namespace net
}  // namespace rsr

#endif  // RSR_NET_BYTE_STREAM_H_
