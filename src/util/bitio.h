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

namespace rsr {

/// Append-only bit sink. Bits are packed LSB-first within each byte.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value` (0 <= bits <= 64).
  void WriteBits(uint64_t value, int bits);

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

/// BitWriter's layout for one fixed-width record of `bits` bits, written
/// into a caller's buffer: `out` is zero-filled to (bits + 7) / 8 bytes,
/// reusing its capacity, so a loop packing many records into one buffer
/// allocates at most once. Bits gather in a 64-bit word that is stored
/// whole, little-endian, as it fills. Call Flush() after the last field.
class BitPacker {
 public:
  BitPacker(int bits, std::vector<uint8_t>* out) {
    out->assign((static_cast<size_t>(bits) + 7) / 8, 0);
    out_ = out->data();
  }

  /// Appends the low `bits` bits of `value` (0 <= bits <= 64).
  void WriteBits(uint64_t value, int bits) {
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    word_ |= value << pending_;
    pending_ += bits;
    if (pending_ < 64) return;
    Store(word_, 8);
    pending_ -= 64;
    // The bits of `value` that did not fit; none if the word was empty.
    word_ = pending_ == 0 ? 0 : value >> (bits - pending_);
  }

  /// Stores the trailing partial word, zero-padded to a byte.
  void Flush() { Store(word_, (pending_ + 7) / 8); }

 private:
  void Store(uint64_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_[i] = static_cast<uint8_t>(word >> (8 * i));
    }
    out_ += bytes;
  }

  uint8_t* out_;
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
