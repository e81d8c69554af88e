#include "util/bitio.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rsr {
namespace {

TEST(BitWidthForUniverseTest, KnownValues) {
  EXPECT_EQ(BitWidthForUniverse(0), 0);
  EXPECT_EQ(BitWidthForUniverse(1), 0);
  EXPECT_EQ(BitWidthForUniverse(2), 1);
  EXPECT_EQ(BitWidthForUniverse(3), 2);
  EXPECT_EQ(BitWidthForUniverse(4), 2);
  EXPECT_EQ(BitWidthForUniverse(5), 3);
  EXPECT_EQ(BitWidthForUniverse(1024), 10);
  EXPECT_EQ(BitWidthForUniverse(1025), 11);
  EXPECT_EQ(BitWidthForUniverse(uint64_t{1} << 40), 40);
}

// BitPacker must lay records out byte for byte like BitWriter, including
// fields that straddle its 64-bit word, full-width and zero-width fields,
// and high bits above a field's width (masked off).
TEST(BitPackerTest, MatchesBitWriter) {
  Rng rng(17);
  std::vector<uint8_t> packed;
  for (int record = 0; record < 500; ++record) {
    std::vector<int> widths(static_cast<size_t>(rng.Uniform(0, 6)));
    for (int& w : widths) w = static_cast<int>(rng.Uniform(0, 64));
    int total = 0;
    for (int w : widths) total += w;
    BitWriter writer;
    BitPacker packer(total, &packed);
    for (int w : widths) {
      const uint64_t value = rng.Next64();
      writer.WriteBits(value, w);
      packer.WriteBits(value, w);
    }
    packer.Flush();
    EXPECT_EQ(packed, writer.bytes()) << "record " << record;
  }
}

TEST(BitIoTest, SingleBits) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) w.WriteBit(b);
  EXPECT_EQ(w.bit_count(), 7u);

  BitReader r(w.bytes());
  for (bool expected : pattern) {
    bool b = false;
    ASSERT_TRUE(r.ReadBit(&b));
    EXPECT_EQ(b, expected);
  }
  bool dummy;
  // Only the zero-padding of the final partial byte remains.
  EXPECT_TRUE(r.ReadBit(&dummy));
  EXPECT_FALSE(dummy);
}

TEST(BitIoTest, ZeroWidthWriteIsNoop) {
  BitWriter w;
  w.WriteBits(0xffff, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitIoTest, FullWidthRoundTrip) {
  BitWriter w;
  const uint64_t v = 0xdeadbeefcafebabeULL;
  w.WriteBits(v, 64);
  BitReader r(w.bytes());
  uint64_t out = 0;
  ASSERT_TRUE(r.ReadBits(64, &out));
  EXPECT_EQ(out, v);
}

TEST(BitIoTest, MaskingOfHighBits) {
  BitWriter w;
  w.WriteBits(0xff, 4);  // only low 4 bits should be kept
  BitReader r(w.bytes());
  uint64_t out = 0;
  ASSERT_TRUE(r.ReadBits(4, &out));
  EXPECT_EQ(out, 0xfu);
  ASSERT_TRUE(r.ReadBits(4, &out));
  EXPECT_EQ(out, 0u);  // padding
}

TEST(BitIoTest, UnderrunReturnsFalse) {
  BitWriter w;
  w.WriteBits(5, 3);
  BitReader r(w.bytes());
  uint64_t out = 0;
  EXPECT_TRUE(r.ReadBits(8, &out));   // one padded byte exists
  EXPECT_FALSE(r.ReadBits(1, &out));  // now empty
}

TEST(BitIoTest, AlignToByte) {
  BitWriter w;
  w.WriteBits(1, 3);
  w.AlignToByte();
  EXPECT_EQ(w.bit_count(), 8u);
  w.WriteBits(0xab, 8);
  BitReader r(w.bytes());
  uint64_t out = 0;
  ASSERT_TRUE(r.ReadBits(3, &out));
  r.AlignToByte();
  ASSERT_TRUE(r.ReadBits(8, &out));
  EXPECT_EQ(out, 0xabu);
}

TEST(BitIoTest, VarintKnownValues) {
  BitWriter w;
  w.WriteVarint(0);
  w.WriteVarint(127);
  w.WriteVarint(128);
  w.WriteVarint(300);
  w.WriteVarint(~uint64_t{0});
  BitReader r(w.bytes());
  uint64_t out = 0;
  ASSERT_TRUE(r.ReadVarint(&out));
  EXPECT_EQ(out, 0u);
  ASSERT_TRUE(r.ReadVarint(&out));
  EXPECT_EQ(out, 127u);
  ASSERT_TRUE(r.ReadVarint(&out));
  EXPECT_EQ(out, 128u);
  ASSERT_TRUE(r.ReadVarint(&out));
  EXPECT_EQ(out, 300u);
  ASSERT_TRUE(r.ReadVarint(&out));
  EXPECT_EQ(out, ~uint64_t{0});
}

TEST(BitIoTest, SignedVarintRoundTrip) {
  BitWriter w;
  const int64_t values[] = {0, 1, -1, 63, -64, 1234567, -7654321,
                            INT64_MAX, INT64_MIN};
  for (int64_t v : values) w.WriteSignedVarint(v);
  BitReader r(w.bytes());
  for (int64_t expected : values) {
    int64_t out = 0;
    ASSERT_TRUE(r.ReadSignedVarint(&out));
    EXPECT_EQ(out, expected);
  }
}

// Property sweep: random sequences of mixed-width writes round-trip exactly.
class BitIoFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitIoFuzzSweep, MixedWidthRoundTrip) {
  Rng rng(GetParam());
  struct Item {
    uint64_t value;
    int bits;
  };
  std::vector<Item> items;
  BitWriter w;
  for (int i = 0; i < 500; ++i) {
    const int bits = static_cast<int>(rng.Below(65));
    uint64_t value = rng.Next64();
    if (bits < 64) value &= (bits == 0) ? 0 : ((~uint64_t{0}) >> (64 - bits));
    items.push_back({value, bits});
    w.WriteBits(value, bits);
  }
  BitReader r(w.bytes());
  for (const Item& item : items) {
    uint64_t out = 0;
    ASSERT_TRUE(r.ReadBits(item.bits, &out));
    ASSERT_EQ(out, item.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoFuzzSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Bit-at-a-time reference of BitWriter's LSB-first layout: stream bit i is
// bit i % 8 of byte i / 8.
std::vector<uint8_t> ReferencePack(const std::vector<bool>& bits) {
  std::vector<uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  return bytes;
}

uint64_t ReferenceRead(const std::vector<uint8_t>& bytes, size_t start,
                       int width) {
  uint64_t value = 0;
  for (int b = 0; b < width; ++b) {
    const size_t i = start + static_cast<size_t>(b);
    value |= static_cast<uint64_t>((bytes[i / 8] >> (i % 8)) & 1) << b;
  }
  return value;
}

TEST(BitIoTest, WordWritesMatchBitAtATimeReference) {
  // Every start offset within a byte (the lead write), then every width
  // 0..64 with unmasked high bits, in random order.
  Rng rng(2024);
  for (int trial = 0; trial < 64; ++trial) {
    BitWriter w;
    std::vector<bool> bits;
    const auto write = [&](uint64_t value, int width) {
      w.WriteBits(value, width);
      for (int b = 0; b < width; ++b) bits.push_back((value >> b) & 1);
    };
    write(rng.Next64(), trial % 8);
    for (int i = 0; i < 65; ++i) {
      write(rng.Next64(), static_cast<int>(rng.Below(65)));
    }
    for (int width = 0; width <= 64; ++width) write(rng.Next64(), width);
    ASSERT_EQ(w.bit_count(), bits.size()) << "trial " << trial;
    ASSERT_EQ(w.bytes(), ReferencePack(bits)) << "trial " << trial;
  }
}

TEST(BitIoTest, ReadsAtEveryOffsetMatchBitAtATimeReference) {
  // Buffers of exactly 0..17 bytes (a sanitizer build flags any load past
  // the end); from every start bit, every width 0..64: the read succeeds
  // iff the bits are there, and then equals the reference.
  Rng rng(77);
  for (size_t size = 0; size <= 17; ++size) {
    std::vector<uint8_t> bytes(size);
    for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Below(256));
    for (size_t start = 0; start <= size * 8; ++start) {
      for (int width = 0; width <= 64; ++width) {
        BitReader r(bytes.data(), bytes.size());
        uint64_t skipped = 0;
        for (size_t left = start; left > 0;) {
          const int step = static_cast<int>(left < 64 ? left : 64);
          ASSERT_TRUE(r.ReadBits(step, &skipped));
          left -= static_cast<size_t>(step);
        }
        uint64_t value = ~uint64_t{0};
        const bool fits = start + static_cast<size_t>(width) <= size * 8;
        ASSERT_EQ(r.ReadBits(width, &value), fits)
            << size << " bytes, bit " << start << ", width " << width;
        if (fits) {
          ASSERT_EQ(value, ReferenceRead(bytes, start, width))
              << size << " bytes, bit " << start << ", width " << width;
          ASSERT_EQ(r.bits_consumed(), start + static_cast<size_t>(width));
        } else {
          ASSERT_EQ(r.bits_consumed(), start);  // underrun consumes nothing
        }
      }
    }
  }
}

}  // namespace
}  // namespace rsr
