// Bit-granular serialisation.
//
// The protocols in this library are compared on *bits* of communication, so
// messages are packed at bit granularity: a coordinate of a point in [Δ]^d
// occupies exactly ceil(log2 Δ) bits, an IBLT count field exactly as many
// bits as its configured width, etc. BitWriter appends bits to a byte
// buffer; BitReader consumes them in the same order.

#ifndef RSR_UTIL_BITIO_H_
#define RSR_UTIL_BITIO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace rsr {

/// Append-only bit sink. Bits are packed LSB-first within each byte.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value` (0 <= bits <= 64).
  void WriteBits(uint64_t value, int bits);

  /// Appends the first `bits` bits of `words`, as WordPacker laid them out.
  void WriteWords(const uint64_t* words, size_t bits);

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends an unsigned LEB128 varint (7 bits per byte-group).
  void WriteVarint(uint64_t value);

  /// Appends a signed value via zigzag + varint.
  void WriteSignedVarint(int64_t value);

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Total number of bits written so far.
  size_t bit_count() const { return bit_count_; }

  /// Returns the backing buffer; trailing partial byte is zero-padded.
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// Gathers bit fields LSB-first into 64-bit words: the bits BitWriter
/// writes for the same fields, as little-endian words. Each full word is
/// stored at `out`, which must have room for all of them; Flush() stores
/// the trailing partial word.
class WordPacker {
 public:
  explicit WordPacker(uint64_t* out) : out_(out) {}

  /// Appends `value`, which must fit in `bits` bits (0 <= bits <= 64).
  void Put(uint64_t value, int bits) {
    RSR_DCHECK(bits >= 0 && bits <= 64 && (bits == 64 || value >> bits == 0));
    word_ |= value << pending_;
    pending_ += bits;
    if (pending_ < 64) return;
    *out_++ = word_;
    pending_ -= 64;
    // The bits of `value` that did not fit; none if the word was empty.
    word_ = pending_ == 0 ? 0 : value >> (bits - pending_);
  }

  /// Stores the trailing partial word, if any.
  void Flush() {
    if (pending_ == 0) return;
    *out_ = word_;
  }

 private:
  uint64_t* out_;
  uint64_t word_ = 0;
  int pending_ = 0;  // bits held in word_, below 64 between calls
};

/// Sequential reader over a buffer produced by BitWriter.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// Reads `bits` bits (0 <= bits <= 64). Returns false on underrun.
  bool ReadBits(int bits, uint64_t* out);

  /// Reads a single bit.
  bool ReadBit(bool* out);

  /// Reads an unsigned LEB128 varint.
  bool ReadVarint(uint64_t* out);

  /// Reads a zigzag-encoded signed varint.
  bool ReadSignedVarint(int64_t* out);

  /// Skips to the next byte boundary.
  void AlignToByte();

  /// Advances past `bits` bits. Returns false, consuming nothing, when
  /// fewer remain.
  bool Skip(size_t bits) {
    if (bits > bits_remaining()) return false;
    pos_ += bits;
    return true;
  }

  size_t bits_consumed() const { return pos_; }
  size_t bits_remaining() const { return size_bits_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
};

/// Number of bits needed to represent values in [0, n); BitWidth(0|1) == 0...
/// Specifically: smallest b with n <= 2^b. BitWidthFor(1) == 0,
/// BitWidthFor(2) == 1, BitWidthFor(1024) == 10.
int BitWidthForUniverse(uint64_t n);

}  // namespace rsr

#endif  // RSR_UTIL_BITIO_H_
