#include "util/bitio.h"

#include <bit>

#include "util/check.h"

namespace rsr {

void BitWriter::WriteBits(uint64_t value, int bits) {
  RSR_DCHECK(bits >= 0 && bits <= 64);
  if (bits < 64) value &= (bits == 0) ? 0 : ((~uint64_t{0}) >> (64 - bits));
  int written = 0;
  while (written < bits) {
    const size_t byte_index = bit_count_ >> 3;
    const int bit_offset = static_cast<int>(bit_count_ & 7);
    if (byte_index >= bytes_.size()) bytes_.push_back(0);
    const int room = 8 - bit_offset;
    const int take = (bits - written < room) ? (bits - written) : room;
    const uint8_t chunk =
        static_cast<uint8_t>((value >> written) & ((1u << take) - 1));
    bytes_[byte_index] |= static_cast<uint8_t>(chunk << bit_offset);
    bit_count_ += static_cast<size_t>(take);
    written += take;
  }
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
  uint64_t value = 0;
  int read = 0;
  while (read < bits) {
    const size_t byte_index = pos_ >> 3;
    const int bit_offset = static_cast<int>(pos_ & 7);
    const int room = 8 - bit_offset;
    const int take = (bits - read < room) ? (bits - read) : room;
    const uint64_t chunk =
        (static_cast<uint64_t>(data_[byte_index]) >> bit_offset) &
        ((uint64_t{1} << take) - 1);
    value |= chunk << read;
    pos_ += static_cast<size_t>(take);
    read += take;
  }
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
