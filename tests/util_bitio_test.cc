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

}  // namespace
}  // namespace rsr
