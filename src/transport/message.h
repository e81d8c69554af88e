// Messages exchanged by reconciliation protocols.
//
// Every protocol in this library communicates exclusively through Message
// objects carried over a transport::Channel, so reported communication costs
// are measured from real encoded payloads (at bit granularity), never
// estimated from formulas.

#ifndef RSR_TRANSPORT_MESSAGE_H_
#define RSR_TRANSPORT_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitio.h"

namespace rsr {
namespace transport {

/// The largest payload one message may carry: the RSF1 max-frame payload
/// every default receiver enforces (net::FrameLimits), so a session never
/// builds a message its peer is bound to refuse.
inline constexpr size_t kMaxPayloadBytes = size_t{64} << 20;  // 64 MiB

/// A single protocol message.
struct Message {
  std::string label;             ///< Human-readable tag for transcripts.
  std::vector<uint8_t> payload;  ///< Encoded bytes.
  size_t payload_bits = 0;       ///< Exact bit count (<= payload.size()*8).

  size_t bits() const { return payload_bits; }
};

/// True iff the bit accounting is consistent: payload_bits fits in the
/// payload buffer. Every message built by MakeMessage satisfies this; the
/// wire-frame decoder (net/frame.h) re-checks it on untrusted input so a
/// corrupt peer cannot inflate or deflate communication accounting.
bool IsWellFormed(const Message& message);

/// Builds a Message from a finished BitWriter (moves the buffer out).
/// Aborts if the writer's bit count does not fit its buffer (a BitWriter
/// invariant violation, i.e. a programming error upstream).
Message MakeMessage(std::string label, BitWriter&& writer);

}  // namespace transport
}  // namespace rsr

#endif  // RSR_TRANSPORT_MESSAGE_H_
