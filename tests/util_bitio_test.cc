#include "util/bitio.h"

#include <algorithm>
#include <optional>
#include <utility>
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

// Skip advances exactly like reads of the same width, and an underrun
// consumes nothing.
TEST(BitIoTest, SkipMatchesReadsAndRefusesUnderrun) {
  BitWriter w;
  for (int i = 0; i < 40; ++i) w.WriteBits(static_cast<uint64_t>(i), 7);
  BitReader skipped(w.bytes());
  BitReader read(w.bytes());
  for (size_t bits :
       {size_t{0}, size_t{7}, size_t{63}, size_t{64}, size_t{3}}) {
    ASSERT_TRUE(skipped.Skip(bits));
    uint64_t unused = 0;
    for (size_t left = bits; left > 0; left -= std::min<size_t>(left, 64)) {
      ASSERT_TRUE(read.ReadBits(static_cast<int>(std::min<size_t>(left, 64)),
                                &unused));
    }
    EXPECT_EQ(skipped.bits_consumed(), read.bits_consumed());
  }
  const size_t left = skipped.bits_remaining();
  EXPECT_FALSE(skipped.Skip(left + 1));
  EXPECT_EQ(skipped.bits_remaining(), left);
  EXPECT_TRUE(skipped.Skip(left));
  EXPECT_EQ(skipped.bits_remaining(), 0u);
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

// WordPacker lays fields out as BitWriter does, a word at a time.
TEST(BitIoTest, WordPackerMatchesBitWriter) {
  Rng rng(2025);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::pair<uint64_t, int>> fields;
    size_t total = 0;
    const int count = static_cast<int>(rng.Below(40));
    for (int i = 0; i < count; ++i) {
      const int width = static_cast<int>(rng.Below(65));
      const uint64_t value =
          width == 64 ? rng.Next64()
                      : rng.Next64() & ((uint64_t{1} << width) - 1);
      fields.emplace_back(value, width);
      total += static_cast<size_t>(width);
    }
    std::vector<uint64_t> words((total + 63) / 64);
    WordPacker packer(words.data());
    BitWriter expected;
    const int prefix = trial % 11;
    expected.WriteBits(0x5a5, prefix);
    for (const auto& [value, width] : fields) {
      packer.Put(value, width);
      expected.WriteBits(value, width);
    }
    packer.Flush();
    // The words, read back little-endian, hold BitWriter's bits.
    BitReader r(expected.bytes());
    ASSERT_TRUE(r.Skip(static_cast<size_t>(prefix)));
    for (size_t left = total, i = 0; left > 0; ++i) {
      const int take = static_cast<int>(std::min<size_t>(left, 64));
      uint64_t word = 0;
      ASSERT_TRUE(r.ReadBits(take, &word));
      EXPECT_EQ(words[i], word) << "trial " << trial << " word " << i;
      left -= static_cast<size_t>(take);
    }
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

/// Random fields: a width 0..64 each (signed ones 1..64), the value
/// within it.
struct Field {
  uint64_t value;
  int width;
  bool is_signed;
};

std::vector<Field> RandomFields(Rng* rng, int count) {
  std::vector<Field> fields;
  for (int i = 0; i < count; ++i) {
    Field f;
    f.is_signed = rng->Below(3) == 0;
    f.width = f.is_signed ? 1 + static_cast<int>(rng->Below(64))
                          : static_cast<int>(rng->Below(65));
    f.value = LowBits(rng->Next64(), f.width);
    fields.push_back(f);
  }
  return fields;
}

/// The field's value as PutSigned takes it and TakeSigned returns it.
int64_t SignExtended(const Field& f) {
  const bool negative = f.width > 0 && (f.value >> (f.width - 1)) & 1;
  return static_cast<int64_t>(negative && f.width < 64
                                  ? f.value | ~uint64_t{0} << f.width
                                  : f.value);
}

// Pack puts fields straight into the writer's buffer exactly as WriteBits
// writes them, after a prefix of every length 0..63; Unpack takes them back
// out of the reader's bytes, signed ones sign-extended.
TEST(BitIoTest, PackAndUnpackMatchBitWriterAtEveryOffset) {
  Rng rng(2027);
  for (int offset = 0; offset < 64; ++offset) {
    const std::vector<Field> fields =
        RandomFields(&rng, static_cast<int>(rng.Below(60)));
    size_t total = 0;
    for (const Field& f : fields) total += static_cast<size_t>(f.width);
    const uint64_t prefix = rng.Next64();
    BitWriter w, expected;
    w.WriteBits(prefix, offset);
    expected.WriteBits(prefix, offset);
    w.Pack(total, [&](WordPacker& packer) {
      for (const Field& f : fields) {
        if (f.is_signed) {
          packer.PutSigned(SignExtended(f), f.width);
        } else {
          packer.Put(f.value, f.width);
        }
      }
    });
    for (const Field& f : fields) expected.WriteBits(f.value, f.width);
    ASSERT_EQ(w.bit_count(), expected.bit_count()) << "offset " << offset;
    ASSERT_EQ(w.bytes(), expected.bytes()) << "offset " << offset;

    // Exactly the bytes written (a sanitizer build flags any load past
    // them), read from the same offset.
    BitReader r(w.bytes());
    ASSERT_TRUE(r.Skip(static_cast<size_t>(offset)));
    std::optional<WordUnpacker> unpacker = r.Unpack(total);
    ASSERT_TRUE(unpacker.has_value());
    EXPECT_EQ(r.bits_consumed(), static_cast<size_t>(offset) + total);
    for (const Field& f : fields) {
      if (f.is_signed) {
        ASSERT_EQ(unpacker->TakeSigned(f.width), SignExtended(f))
            << "offset " << offset << " width " << f.width;
      } else {
        ASSERT_EQ(unpacker->Take(f.width), f.value)
            << "offset " << offset << " width " << f.width;
      }
    }
  }
}

// Unpack checks its bound once, up front: a range past the end is refused
// and consumes nothing; a range ending at the last bit is granted.
TEST(BitIoTest, UnpackRefusesARangePastTheEnd) {
  const std::vector<uint8_t> bytes(9, 0xa5);
  for (size_t start = 0; start <= 72; ++start) {
    BitReader r(bytes);
    ASSERT_TRUE(r.Skip(start));
    EXPECT_FALSE(r.Unpack(72 - start + 1).has_value());
    EXPECT_EQ(r.bits_consumed(), start);
    std::optional<WordUnpacker> rest = r.Unpack(72 - start);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(r.bits_remaining(), 0u);
    for (size_t i = start; i < 72; ++i) {
      EXPECT_EQ(rest->Take(1), (0xa5u >> (i % 8)) & 1) << "bit " << i;
    }
  }
}

}  // namespace
}  // namespace rsr
