#include "util/bitio.h"

#include <bit>
#include <cstring>

#include "util/check.h"

namespace rsr {

namespace {

// The low `bytes` (<= 8) bytes of `word`, stored / loaded little-endian:
// BitWriter's LSB-first layout, a whole word at a time.
void StoreLittle(uint64_t word, uint8_t* out, size_t bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &word, bytes);
  } else {
    for (size_t i = 0; i < bytes; ++i) {
      out[i] = static_cast<uint8_t>(word >> (8 * i));
    }
  }
}

uint64_t LoadLittle(const uint8_t* in, size_t bytes) {
  uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, in, bytes);
  } else {
    for (size_t i = 0; i < bytes; ++i) {
      word |= static_cast<uint64_t>(in[i]) << (8 * i);
    }
  }
  return word;
}

}  // namespace

void BitWriter::WriteBits(uint64_t value, int bits) {
  RSR_DCHECK(bits >= 0 && bits <= 64);
  if (bits == 0) return;
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  const int offset = static_cast<int>(bit_count_ & 7);
  size_t index = bit_count_ >> 3;
  bit_count_ += static_cast<size_t>(bits);
  if (offset != 0) {
    // Top up the trailing partial byte first.
    bytes_[index] |= static_cast<uint8_t>(value << offset);
    const int room = 8 - offset;
    if (bits <= room) return;
    value >>= room;
    ++index;
  }
  // Byte-aligned now, with at most 64 bits left: one word store.
  const size_t end = (bit_count_ + 7) >> 3;
  bytes_.resize(end);
  StoreLittle(value, bytes_.data() + index, end - index);
}

void BitWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    WriteBits((value & 0x7f) | 0x80, 8);
    value >>= 7;
  }
  WriteBits(value, 8);
}

void BitWriter::WriteSignedVarint(int64_t value) {
  const uint64_t zigzag =
      (static_cast<uint64_t>(value) << 1) ^
      static_cast<uint64_t>(value >> 63);
  WriteVarint(zigzag);
}

void BitWriter::AlignToByte() {
  const int rem = static_cast<int>(bit_count_ & 7);
  if (rem != 0) WriteBits(0, 8 - rem);
}

bool BitReader::ReadBits(int bits, uint64_t* out) {
  RSR_DCHECK(bits >= 0 && bits <= 64);
  if (pos_ + static_cast<size_t>(bits) > size_bits_) return false;
  if (bits == 0) {
    *out = 0;
    return true;
  }
  // The bits span at most 9 bytes, [index, end), all inside the buffer;
  // a whole word is loaded when the buffer has one from `index` on.
  const size_t index = pos_ >> 3;
  const int offset = static_cast<int>(pos_ & 7);
  pos_ += static_cast<size_t>(bits);
  const size_t end = (pos_ + 7) >> 3;
  const size_t available = (size_bits_ >> 3) - index;
  uint64_t value = available >= 8 ? LoadLittle(data_ + index, 8)
                                   : LoadLittle(data_ + index, available);
  value >>= offset;
  if (end - index > 8) {
    value |= static_cast<uint64_t>(data_[index + 8]) << (64 - offset);
  }
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  *out = value;
  return true;
}

bool BitReader::ReadBit(bool* out) {
  uint64_t v = 0;
  if (!ReadBits(1, &v)) return false;
  *out = (v != 0);
  return true;
}

bool BitReader::ReadVarint(uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t byte = 0;
    if (!ReadBits(8, &byte)) return false;
    value |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
    shift += 7;
  }
  return false;  // malformed: more than 10 groups
}

bool BitReader::ReadSignedVarint(int64_t* out) {
  uint64_t zigzag = 0;
  if (!ReadVarint(&zigzag)) return false;
  *out = static_cast<int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
  return true;
}

void BitReader::AlignToByte() {
  const size_t rem = pos_ & 7;
  if (rem != 0) pos_ += 8 - rem;
}

int BitWidthForUniverse(uint64_t n) {
  return n <= 1 ? 0 : static_cast<int>(std::bit_width(n - 1));
}

}  // namespace rsr
