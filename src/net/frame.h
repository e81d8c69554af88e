// Wire framing for transport::Message over a byte stream.
//
// The session API (recon/session.h) deals in Messages — a label, payload
// bytes, and an exact payload bit count. To carry a session over a socket,
// each Message becomes one length-prefixed binary frame:
//
//   offset  size  field
//   0       4     magic "RSF1" (also the wire version: bump the digit)
//   4       1     header version byte (kWireVersion)
//   5       2     label length   (uint16, little-endian)
//   7       4     payload length (uint32, little-endian, bytes)
//   11      8     payload bits   (uint64, little-endian)
//   19      ...   label bytes, then payload bytes
//
// Carrying payload_bits on the wire preserves the library's bit-exact
// communication accounting across a real network: the receiver re-creates
// the Message the sender's BitWriter produced, bit count included.
//
// Decoding is defensive: bad magic / version, an over-limit label or
// payload (max-frame guard against hostile or corrupt peers), and a bit
// count exceeding payload.size()*8 all surface as
// recon::SessionError::kMalformedMessage rather than aborting; a stream
// that ends mid-frame is likewise malformed, while a clean close between
// frames maps to kTransportClosed. See DESIGN.md §6.

#ifndef RSR_NET_FRAME_H_
#define RSR_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/byte_stream.h"
#include "recon/protocol.h"
#include "transport/message.h"

namespace rsr {
namespace net {

/// First 4 bytes of every frame.
inline constexpr uint8_t kFrameMagic[4] = {'R', 'S', 'F', '1'};
/// Header version byte; receivers reject anything else.
inline constexpr uint8_t kWireVersion = 1;
/// Fixed part of the frame header, before label and payload bytes.
inline constexpr size_t kFrameHeaderBytes = 19;

/// Receiver-side guards. A frame whose label or payload exceeds these is
/// rejected as malformed before its body is buffered.
struct FrameLimits {
  size_t max_label_bytes = 255;
  size_t max_payload_bytes = transport::kMaxPayloadBytes;
};

/// Appends the frame encoding of `message` to `out`. The message must be
/// well-formed (transport::IsWellFormed); encoding a malformed message is a
/// programming error and aborts.
void EncodeFrame(const transport::Message& message, std::vector<uint8_t>* out);

/// Convenience: the frame as a fresh buffer.
std::vector<uint8_t> EncodeFrame(const transport::Message& message);

/// Incremental frame parser: feed bytes as they arrive, pop complete
/// Messages. Once an error is reported the decoder stays failed (a byte
/// stream with one corrupt frame has lost sync for good).
class FrameDecoder {
 public:
  explicit FrameDecoder(FrameLimits limits = {}) : limits_(limits) {}

  enum class Status {
    kFrame,         ///< *out holds the next decoded message.
    kNeedMoreData,  ///< No complete frame buffered yet.
    kError,         ///< Corrupt frame; see error().
  };

  void Feed(const uint8_t* data, size_t n);
  void Feed(const std::vector<uint8_t>& bytes) {
    Feed(bytes.data(), bytes.size());
  }

  Status Next(transport::Message* out);

  /// The SessionError a corrupt frame maps to (kNone while healthy).
  recon::SessionError error() const { return error_; }

  /// True if a partial frame is buffered — at EOF this distinguishes a
  /// truncated frame from a clean close between frames. Accurate only
  /// once every complete frame has been popped (the blocking FramedStream
  /// pops before reading more, so it qualifies); an async reader that
  /// drains the socket to EOF first should use at_frame_boundary().
  bool mid_frame() const { return buffer_.size() > consumed_; }

  /// True if the undecoded bytes end exactly on a frame boundary: zero or
  /// more complete frames and no partial tail. At EOF this is the
  /// accurate clean-close test even while complete frames are still
  /// queued for Next(). Walks the claimed header lengths only — a frame
  /// with a corrupt header fails in Next() regardless of how the stream
  /// ended.
  bool at_frame_boundary() const;

 private:
  FrameLimits limits_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  recon::SessionError error_ = recon::SessionError::kNone;
};

/// Message-granular send/receive over a ByteStream, with byte accounting.
/// Not thread-safe; the server uses one FramedStream per connection on one
/// worker thread.
class FramedStream {
 public:
  explicit FramedStream(ByteStream* stream, FrameLimits limits = {})
      : stream_(stream), decoder_(limits) {}

  /// Encodes and writes one message. False on transport failure.
  bool Send(const transport::Message& message);

  enum class RecvStatus {
    kMessage,  ///< *out holds the next message.
    kClosed,   ///< Peer closed cleanly between frames.
    kError,    ///< Corrupt frame, truncation, or transport error.
  };

  /// Blocks for the next frame.
  RecvStatus Receive(transport::Message* out);

  /// The SessionError of the last kError / kClosed status.
  recon::SessionError error() const { return error_; }

  size_t bytes_sent() const { return bytes_sent_; }
  size_t bytes_received() const { return bytes_received_; }

 private:
  ByteStream* stream_;
  FrameDecoder decoder_;
  recon::SessionError error_ = recon::SessionError::kNone;
  size_t bytes_sent_ = 0;
  size_t bytes_received_ = 0;
};

}  // namespace net
}  // namespace rsr

#endif  // RSR_NET_FRAME_H_
