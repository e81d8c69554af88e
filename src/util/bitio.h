// Bit-granular serialisation.
//
// The protocols in this library are compared on *bits* of communication, so
// messages are packed at bit granularity: a coordinate of a point in [Δ]^d
// occupies exactly ceil(log2 Δ) bits, an IBLT count field exactly as many
// bits as its configured width, etc. BitWriter appends bits to a byte
// buffer; BitReader consumes them in the same order.
//
// Bulk fields move a word at a time. WordPacker gathers fields LSB-first
// into 64-bit words and WordUnpacker takes them back out. BitWriter::Pack
// runs a packer straight over the writer's buffer, and BitReader::Unpack
// hands out an unpacker over the reader's bytes after one bound check:
// that pair is the codec of every sketch table, and neither allocates
// anything in between.

#ifndef RSR_UTIL_BITIO_H_
#define RSR_UTIL_BITIO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "util/check.h"

namespace rsr {

// Bytes of the stream are the little-endian bytes of its words.
static_assert(std::endian::native == std::endian::little,
              "bit streams are stored and loaded as little-endian words");

/// The low `bits` bits of `value` (0 <= bits <= 64).
inline uint64_t LowBits(uint64_t value, int bits) {
  return bits >= 64 ? value : value & ((uint64_t{1} << bits) - 1);
}

/// Gathers bit fields LSB-first into 64-bit words: the bits BitWriter
/// writes for the same fields, as little-endian words. Each full word is
/// stored at `out`, which must have room for all of them; Flush() stores
/// the trailing partial word.
class WordPacker {
 public:
  explicit WordPacker(uint64_t* out)
      : WordPacker(reinterpret_cast<uint8_t*>(out), 0, 0) {}

  /// Appends `value`, which must fit in `bits` bits (0 <= bits <= 64).
  void Put(uint64_t value, int bits) {
    RSR_DCHECK(bits >= 0 && bits <= 64 && (bits == 64 || value >> bits == 0));
    word_ |= value << pending_;
    pending_ += bits;
    if (pending_ < 64) return;
    std::memcpy(out_, &word_, 8);
    out_ += 8;
    pending_ -= 64;
    // The bits of `value` that did not fit; none if the word was empty.
    word_ = pending_ == 0 ? 0 : value >> (bits - pending_);
  }

  /// Appends the low `bits` bits of `value`'s two's complement
  /// (1 <= bits <= 64).
  void PutSigned(int64_t value, int bits) {
    Put(LowBits(static_cast<uint64_t>(value), bits), bits);
  }

  /// Stores the trailing partial word, if any.
  void Flush() {
    if (pending_ == 0) return;
    std::memcpy(out_, &word_, 8);
  }

 private:
  friend class BitWriter;

  /// Continues a stream whose first `pending` (< 64) bits are the low bits
  /// of `head`, storing words at `out`, which need not be aligned.
  WordPacker(uint8_t* out, uint64_t head, int pending)
      : out_(out), word_(head), pending_(pending) {}

  uint8_t* out_;
  uint64_t word_;
  int pending_;  // bits held in word_, below 64 between calls
};

/// Takes fields back out in WordPacker's layout, one word load per 64
/// bits. BitReader::Unpack hands one out over a range it has bounded, so a
/// take cannot fail.
class WordUnpacker {
 public:
  /// The next `bits` bits (0 <= bits <= 64).
  uint64_t Take(int bits) {
    RSR_DCHECK(bits >= 0 && bits <= 64 && static_cast<size_t>(bits) <= left_);
    left_ -= static_cast<size_t>(bits);
    if (bits <= held_) {
      const uint64_t value = LowBits(word_, bits);
      word_ = bits == 64 ? 0 : word_ >> bits;
      held_ -= bits;
      return value;
    }
    // held_ < bits: the rest comes from the next word.
    const uint64_t next = Load();
    const uint64_t value = LowBits(word_ | next << held_, bits);
    const int used = bits - held_;  // 1..64 bits of `next`
    word_ = used == 64 ? 0 : next >> used;
    held_ = 64 - used;
    return value;
  }

  /// The next `bits` bits as a two's complement value, sign-extended
  /// (1 <= bits <= 64).
  int64_t TakeSigned(int bits) {
    RSR_DCHECK(bits >= 1);
    const int shift = 64 - bits;
    return static_cast<int64_t>(Take(bits) << shift) >> shift;
  }

 private:
  friend class BitReader;

  /// Over `bits` bits of `data` (`size` bytes), from bit `start` on.
  WordUnpacker(const uint8_t* data, size_t size, size_t start, size_t bits)
      : data_(data), size_(size), next_(start >> 3), left_(bits) {
    const int offset = static_cast<int>(start & 7);
    word_ = Load() >> offset;
    held_ = 64 - offset;
  }

  /// The word at next_, zero-extended past the end of the buffer.
  uint64_t Load() {
    uint64_t word = 0;
    if (next_ < size_) {
      std::memcpy(&word, data_ + next_, size_ - next_ < 8 ? size_ - next_ : 8);
    }
    next_ += 8;
    return word;
  }

  const uint8_t* data_;
  size_t size_;
  size_t next_;    // byte index of the next word to load
  size_t left_;    // bits the range has left
  uint64_t word_;  // the loaded bits not yet taken, low-aligned
  int held_;       // bits held in word_
};

/// Append-only bit sink. Bits are packed LSB-first within each byte.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `bits` bits of `value` (0 <= bits <= 64).
  void WriteBits(uint64_t value, int bits);

  /// Appends exactly `bits` bits, put by `fill(WordPacker&)` straight into
  /// the buffer at any bit offset: one resize, then one store per word.
  template <typename Fill>
  void Pack(size_t bits, Fill&& fill) {
    const size_t index = bit_count_ >> 3;
    const int offset = static_cast<int>(bit_count_ & 7);
    // The packer stores whole words; the last may reach past the bits,
    // into room trimmed below.
    bytes_.resize(index + (static_cast<size_t>(offset) + bits + 63) / 64 * 8);
    WordPacker packer(bytes_.data() + index, offset == 0 ? 0 : bytes_[index],
                      offset);
    fill(packer);
    packer.Flush();
    RSR_DCHECK(static_cast<size_t>(packer.out_ - (bytes_.data() + index)) *
                       8 + static_cast<size_t>(packer.pending_) ==
               static_cast<size_t>(offset) + bits);
    bit_count_ += bits;
    bytes_.resize((bit_count_ + 7) >> 3);
  }

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

/// Sequential reader over a buffer produced by BitWriter.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}
  explicit BitReader(const std::vector<uint8_t>& bytes)
      : BitReader(bytes.data(), bytes.size()) {}

  /// Reads `bits` bits (0 <= bits <= 64). Returns false on underrun.
  bool ReadBits(int bits, uint64_t* out);

  /// The next `bits` bits, to be taken by a WordUnpacker reading the
  /// buffer in place, and advances past them. The bound is checked here,
  /// once: nullopt, consuming nothing, when fewer bits remain.
  std::optional<WordUnpacker> Unpack(size_t bits) {
    if (bits > bits_remaining()) return std::nullopt;
    const WordUnpacker unpacker(data_, size_bits_ >> 3, pos_, bits);
    pos_ += bits;
    return unpacker;
  }

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
