// Wire fault injection: a ByteStream decorator that dribbles and dies.
//
// FaultyStream wraps any blocking ByteStream and misbehaves in the two ways
// a real peer legally can: it fragments traffic (reads return one byte at a
// time, writes are split into 1..3-byte chunks — the DribbleStream torture
// shape from the framing tests, applied to a live duplex stream), and it
// disconnects mid-exchange after a configured byte budget, so every framing
// and verb state machine above it sees partial I/O and mid-verb EOF. The
// convergence fuzzer (src/fuzz/) uses it to model clients that vanish
// mid-session; the replication-verb fault tests drive "@log-fetch"/"@pull"
// through it over pipes and the reactor's TCP.
//
// Determinism: chunk boundaries come from a seeded Rng, and the kill budget
// counts every byte that crosses the wrapper in either direction, so a
// {seed, script} fuzz artifact replays the same fault at the same byte.

#ifndef RSR_NET_FAULT_STREAM_H_
#define RSR_NET_FAULT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "net/byte_stream.h"
#include "util/random.h"

namespace rsr {
namespace net {

struct FaultOptions {
  /// Close the underlying stream (both directions) once this many total
  /// bytes have crossed the wrapper, reads and writes combined. 0 = never.
  size_t close_after_bytes = 0;
  /// Fragment traffic: reads return at most one byte per call and each
  /// write is forwarded as a run of 1..3-byte writes.
  bool dribble = false;
  /// Chunk-boundary RNG seed (dribble mode).
  uint64_t seed = 0;
};

class FaultyStream : public ByteStream {
 public:
  FaultyStream(std::unique_ptr<ByteStream> inner, FaultOptions options);
  ~FaultyStream() override;

  ptrdiff_t Read(uint8_t* buf, size_t n) override;
  bool Write(const uint8_t* data, size_t n) override;
  void Close() override;

  /// True once the byte budget tripped and the wrapper killed the stream.
  bool fault_fired() const { return fault_fired_; }
  size_t bytes_crossed() const { return bytes_crossed_; }

 private:
  /// Charges `n` bytes against the budget; kills the stream and returns
  /// false if the budget is exhausted.
  bool Charge(size_t n);

  const std::unique_ptr<ByteStream> inner_;
  const FaultOptions options_;
  Rng rng_;
  size_t bytes_crossed_ = 0;
  bool fault_fired_ = false;
};

/// Convenience: wraps `inner` only when the options actually inject a
/// fault, otherwise returns it untouched (no wrapper overhead on the
/// common clean path).
std::unique_ptr<ByteStream> MaybeWrapFaulty(std::unique_ptr<ByteStream> inner,
                                            const FaultOptions& options);

}  // namespace net
}  // namespace rsr

#endif  // RSR_NET_FAULT_STREAM_H_
