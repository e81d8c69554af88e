#include "iblt/iblt.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hash/checksum.h"
#include "hash/family.h"
#include "iblt/sizing.h"
#include "util/random.h"

namespace rsr {

// The per-field codec the word codec replaced, kept as its oracle: one
// WriteBits call per field and per value word.
struct IbltTestPeer {
  static void ReferenceSerialize(const Iblt& table, BitWriter* out) {
    const IbltConfig& config = table.config_;
    for (size_t i = 0; i < table.m_; ++i) {
      out->WriteBits(static_cast<uint64_t>(table.counts_[i]),
                     config.count_bits);
      out->WriteBits(table.key_xor_[i], 64);
      out->WriteBits(table.check_xor_[i], config.checksum_bits);
      const uint8_t* src = table.values_.data() + i * table.value_bytes_;
      for (int remaining = config.value_bits; remaining > 0;
           remaining -= 64, src += 8) {
        uint64_t word;
        std::memcpy(&word, src, 8);
        out->WriteBits(word, std::min(remaining, 64));
      }
    }
  }

  /// `read` holds every field of every cell of `written` as the wire
  /// keeps it: counts in their low count_bits, sign-extended.
  static bool SameCells(const Iblt& read, const Iblt& written) {
    const int shift = 64 - written.config_.count_bits;
    for (size_t i = 0; i < written.m_; ++i) {
      const uint64_t count = static_cast<uint64_t>(written.counts_[i]);
      if (read.counts_[i] != static_cast<int64_t>(count << shift) >> shift) {
        return false;
      }
    }
    return read.key_xor_ == written.key_xor_ &&
           read.check_xor_ == written.check_xor_ &&
           read.values_ == written.values_;
  }
};

namespace {

IbltConfig SmallConfig(int value_bits = 0, uint64_t seed = 1) {
  IbltConfig config;
  config.cells = 64;
  config.q = 4;
  config.value_bits = value_bits;
  config.seed = seed;
  return config;
}

std::vector<uint8_t> MakeValue(uint64_t payload, int value_bits) {
  BitWriter w;
  w.WriteBits(payload, value_bits);
  return std::move(w).TakeBytes();
}

TEST(IbltConfigTest, RoundingAndSize) {
  IbltConfig config;
  config.cells = 10;
  config.q = 4;
  EXPECT_EQ(config.RoundedCells(), 12u);
  config.cells = 12;
  EXPECT_EQ(config.RoundedCells(), 12u);
  config.value_bits = 20;
  config.checksum_bits = 32;
  config.count_bits = 16;
  EXPECT_EQ(config.SerializedBits(), 12u * (16 + 64 + 32 + 20));
}

TEST(IbltTest, EmptyTableDecodesToNothing) {
  Iblt table(SmallConfig());
  const IbltDecodeResult result = table.Decode();
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.entries.empty());
  EXPECT_TRUE(table.IsEmpty());
}

TEST(IbltTest, SingleEntryRoundTrip) {
  Iblt table(SmallConfig(16));
  table.Insert(42, MakeValue(0xabcd, 16));
  EXPECT_FALSE(table.IsEmpty());
  const IbltDecodeResult result = table.Decode();
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].key, 42u);
  EXPECT_EQ(result.entries[0].sign, 1);
  EXPECT_EQ(result.entries[0].value, MakeValue(0xabcd, 16));
}

TEST(IbltTest, InsertThenEraseIsEmpty) {
  Iblt table(SmallConfig(8));
  table.Insert(7, MakeValue(0x5a, 8));
  table.Erase(7, MakeValue(0x5a, 8));
  EXPECT_TRUE(table.IsEmpty());
}

TEST(IbltTest, EraseWithoutInsertYieldsNegativeEntry) {
  Iblt table(SmallConfig());
  table.Erase(99, {});
  const IbltDecodeResult result = table.Decode();
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].key, 99u);
  EXPECT_EQ(result.entries[0].sign, -1);
}

TEST(IbltTest, ManyEntriesDecodeWithinCapacity) {
  Iblt table(SmallConfig(0, 3));
  std::set<uint64_t> keys;
  Rng rng(2);
  while (keys.size() < 30) keys.insert(rng.Next64());
  for (uint64_t k : keys) table.Insert(k, {});
  const IbltDecodeResult result = table.Decode();
  ASSERT_TRUE(result.success);
  std::set<uint64_t> decoded;
  for (const IbltEntry& e : result.entries) {
    EXPECT_EQ(e.sign, 1);
    decoded.insert(e.key);
  }
  EXPECT_EQ(decoded, keys);
}

TEST(IbltTest, OverloadedTableFailsToDecode) {
  Iblt table(SmallConfig(0, 4));  // 64 cells
  Rng rng(3);
  for (int i = 0; i < 500; ++i) table.Insert(rng.Next64(), {});
  const IbltDecodeResult result = table.Decode();
  EXPECT_FALSE(result.success);
}

TEST(IbltTest, MaxEntriesLimitAbortsDecode) {
  Iblt table(SmallConfig(0, 5));
  Rng rng(4);
  for (int i = 0; i < 20; ++i) table.Insert(rng.Next64(), {});
  EXPECT_TRUE(table.Decode().success);
  EXPECT_FALSE(table.Decode(/*max_entries=*/10).success);
  EXPECT_TRUE(table.Decode(/*max_entries=*/20).success);
}

TEST(IbltTest, SubtractRecoversSymmetricDifference) {
  const IbltConfig config = SmallConfig(24, 6);
  Iblt alice(config), bob(config);
  Rng rng(5);
  std::map<uint64_t, std::vector<uint8_t>> common, alice_only, bob_only;
  for (int i = 0; i < 200; ++i) {
    common[rng.Next64()] = MakeValue(rng.Below(1 << 24), 24);
  }
  for (int i = 0; i < 8; ++i) {
    alice_only[rng.Next64()] = MakeValue(rng.Below(1 << 24), 24);
    bob_only[rng.Next64()] = MakeValue(rng.Below(1 << 24), 24);
  }
  for (const auto& [k, v] : common) {
    alice.Insert(k, v);
    bob.Insert(k, v);
  }
  for (const auto& [k, v] : alice_only) alice.Insert(k, v);
  for (const auto& [k, v] : bob_only) bob.Insert(k, v);

  alice.Subtract(bob);
  const IbltDecodeResult result = alice.Decode();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.entries.size(), alice_only.size() + bob_only.size());
  for (const IbltEntry& e : result.entries) {
    if (e.sign == 1) {
      ASSERT_TRUE(alice_only.count(e.key));
      EXPECT_EQ(e.value, alice_only[e.key]);
    } else {
      ASSERT_TRUE(bob_only.count(e.key));
      EXPECT_EQ(e.value, bob_only[e.key]);
    }
  }
}

TEST(IbltTest, SubtractOfEqualTablesIsEmpty) {
  const IbltConfig config = SmallConfig(12, 7);
  Iblt a(config), b(config);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const uint64_t k = rng.Next64();
    const auto v = MakeValue(rng.Below(1 << 12), 12);
    a.Insert(k, v);
    b.Insert(k, v);
  }
  a.Subtract(b);
  EXPECT_TRUE(a.IsEmpty());
  EXPECT_TRUE(a.Decode().success);
  EXPECT_TRUE(a.Decode().entries.empty());
}

TEST(IbltTest, SerializeDeserializeRoundTrip) {
  const IbltConfig config = SmallConfig(20, 8);
  Iblt table(config);
  Rng rng(7);
  std::set<uint64_t> keys;
  for (int i = 0; i < 25; ++i) {
    const uint64_t k = rng.Next64();
    keys.insert(k);
    table.Insert(k, MakeValue(rng.Below(1 << 20), 20));
  }
  BitWriter w;
  table.Serialize(&w);
  EXPECT_EQ(w.bit_count(), config.SerializedBits());

  BitReader r(w.bytes());
  std::optional<Iblt> restored = Iblt::Deserialize(config, &r);
  ASSERT_TRUE(restored.has_value());
  const IbltDecodeResult result = restored->Decode();
  ASSERT_TRUE(result.success);
  std::set<uint64_t> decoded;
  for (const IbltEntry& e : result.entries) decoded.insert(e.key);
  EXPECT_EQ(decoded, keys);
}

TEST(IbltTest, SerializeNegativeCountsRoundTrip) {
  const IbltConfig config = SmallConfig(0, 9);
  Iblt table(config);
  table.Erase(123, {});
  table.Erase(456, {});
  BitWriter w;
  table.Serialize(&w);
  BitReader r(w.bytes());
  std::optional<Iblt> restored = Iblt::Deserialize(config, &r);
  ASSERT_TRUE(restored.has_value());
  const IbltDecodeResult result = restored->Decode();
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].sign, -1);
  EXPECT_EQ(result.entries[1].sign, -1);
}

// The word codec writes exactly the per-field codec's bits after a prefix
// of every length 0..63, for every field width the codec distinguishes
// (keys only, values under, at and over a word, the widest counts and
// checksums), reads them back to the same table, and refuses input one
// bit short without consuming it.
TEST(IbltCodecTest, MatchesPerFieldReferenceAtEveryOffset) {
  struct Widths {
    int value_bits, checksum_bits, count_bits;
  };
  const Widths widths[] = {{0, 32, 16},  {20, 32, 16}, {64, 64, 64},
                           {100, 1, 2},  {133, 17, 9}, {7, 63, 63}};
  Rng rng(404);
  for (const Widths& width : widths) {
    IbltConfig config = SmallConfig(width.value_bits, 21);
    config.cells = 90;
    config.checksum_bits = width.checksum_bits;
    config.count_bits = width.count_bits;
    Iblt table(config);
    std::vector<uint64_t> value(table.value_words());
    for (int i = 0; i < 300; ++i) {
      for (size_t w = 0; w < value.size(); ++w) {
        const int bits = std::min(config.value_bits - 64 * static_cast<int>(w),
                                  64);
        value[w] = LowBits(rng.Next64(), bits);
      }
      // Erasures outnumber insertions: counts of both signs.
      if (i % 3 == 0) {
        table.Insert(rng.Next64(), value.data());
      } else {
        table.Erase(rng.Next64(), value.data());
      }
    }
    const size_t bits = config.SerializedBits();
    for (int offset = 0; offset < 64; ++offset) {
      SCOPED_TRACE(testing::Message() << "value_bits " << width.value_bits
                                      << " offset " << offset);
      const uint64_t prefix = rng.Next64();
      BitWriter w, reference;
      w.WriteBits(prefix, offset);
      reference.WriteBits(prefix, offset);
      table.Serialize(&w);
      IbltTestPeer::ReferenceSerialize(table, &reference);
      ASSERT_EQ(w.bit_count(), static_cast<size_t>(offset) + bits);
      ASSERT_EQ(w.bytes(), reference.bytes());

      BitReader r(w.bytes());
      ASSERT_TRUE(r.Skip(static_cast<size_t>(offset)));
      const std::optional<Iblt> back = Iblt::Deserialize(config, &r);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(r.bits_consumed(), static_cast<size_t>(offset) + bits);
      ASSERT_TRUE(IbltTestPeer::SameCells(*back, table));

      BitReader short_by_one(w.bytes());
      ASSERT_TRUE(short_by_one.Skip(w.bytes().size() * 8 - (bits - 1)));
      EXPECT_FALSE(Iblt::Deserialize(config, &short_by_one).has_value());
      EXPECT_EQ(short_by_one.bits_remaining(), bits - 1);
    }
  }
}

TEST(IbltTest, DeserializeUnderrunFails) {
  const IbltConfig config = SmallConfig(0, 10);
  BitWriter w;
  w.WriteBits(0, 32);  // far too short
  BitReader r(w.bytes());
  EXPECT_FALSE(Iblt::Deserialize(config, &r).has_value());
}

TEST(IbltTest, SubtractAfterSerializationMatchesDirect) {
  // The reconciliation path: Alice serializes, Bob deserializes and
  // subtracts his own table; result must equal the in-memory difference.
  const IbltConfig config = SmallConfig(16, 11);
  Iblt alice(config), bob(config);
  Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    const uint64_t k = rng.Next64();
    const auto v = MakeValue(rng.Below(1 << 16), 16);
    alice.Insert(k, v);
    if (i % 5 != 0) bob.Insert(k, v);  // bob misses every 5th
  }
  BitWriter w;
  alice.Serialize(&w);
  BitReader r(w.bytes());
  std::optional<Iblt> wire = Iblt::Deserialize(config, &r);
  ASSERT_TRUE(wire.has_value());
  wire->Subtract(bob);
  const IbltDecodeResult result = wire->Decode();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.entries.size(), 8u);
  for (const IbltEntry& e : result.entries) EXPECT_EQ(e.sign, 1);
}

// The table as it was before values went word-wide: every field per cell,
// the value XORed and serialized a byte at a time. Same hash functions.
class ByteReferenceIblt {
 public:
  explicit ByteReferenceIblt(const IbltConfig& config)
      : config_(config),
        m_(config.RoundedCells()),
        value_bytes_((static_cast<size_t>(config.value_bits) + 7) / 8),
        indexer_(config.seed, config.q, m_),
        checksum_(config.seed ^ 0x636865636bULL),
        counts_(m_, 0),
        keys_(m_, 0),
        checks_(m_, 0),
        values_(m_, std::vector<uint8_t>(value_bytes_, 0)) {}

  const IndexHasher& indexer() const { return indexer_; }

  void Apply(uint64_t key, const std::vector<uint8_t>& value, int direction) {
    const uint64_t check = checksum_.Truncated(key, config_.checksum_bits);
    for (int j = 0; j < config_.q; ++j) {
      const size_t cell = indexer_.Cell(key, j);
      counts_[cell] += direction;
      keys_[cell] ^= key;
      checks_[cell] ^= check;
      for (size_t b = 0; b < value_bytes_; ++b) values_[cell][b] ^= value[b];
    }
  }

  std::vector<uint8_t> Bytes() const {
    BitWriter w;
    for (size_t i = 0; i < m_; ++i) {
      w.WriteBits(static_cast<uint64_t>(counts_[i]), config_.count_bits);
      w.WriteBits(keys_[i], 64);
      w.WriteBits(checks_[i], config_.checksum_bits);
      for (int left = config_.value_bits, b = 0; left > 0; left -= 8, ++b) {
        w.WriteBits(values_[i][static_cast<size_t>(b)], std::min(left, 8));
      }
    }
    return std::move(w).TakeBytes();
  }

 private:
  IbltConfig config_;
  size_t m_;
  size_t value_bytes_;
  IndexHasher indexer_;
  Checksum checksum_;
  std::vector<int64_t> counts_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> checks_;
  std::vector<std::vector<uint8_t>> values_;
};

template <typename Sketch>
std::vector<uint8_t> SerializedBytes(const Sketch& table) {
  BitWriter w;
  table.Serialize(&w);
  EXPECT_EQ(w.bit_count(), table.config().SerializedBits());
  return std::move(w).TakeBytes();
}

// Word-wide Insert/Erase (pointer and byte-vector forms) against the
// byte-at-a-time reference, at every value width from 1 to 130 bits: the
// same serialized bytes, the same decode, and the padding past the last
// cell — which every width but multiples of 64 has, and which the last
// cell's word-wide updates reach into — never shows in Serialize,
// Subtract, IsEmpty or Decode.
TEST(IbltTest, WordWideUpdatesMatchByteAtATimeReference) {
  Rng rng(61);
  for (int value_bits = 1; value_bits <= 130; ++value_bits) {
    SCOPED_TRACE("value_bits " + std::to_string(value_bits));
    IbltConfig config = SmallConfig(value_bits, 70 + value_bits);
    config.cells = 48;
    Iblt table(config);
    ByteReferenceIblt reference(config);
    const size_t words = table.value_words();
    ASSERT_EQ(words, (static_cast<size_t>(value_bits) + 63) / 64);
    // Random full-width values, low bits first, as little-endian words.
    const auto random_value = [&] {
      std::vector<uint64_t> value(words);
      for (size_t w = 0; w < words; ++w) {
        const int bits = std::min(64, value_bits - 64 * static_cast<int>(w));
        value[w] = bits == 64 ? rng.Next64()
                              : rng.Next64() & ((uint64_t{1} << bits) - 1);
      }
      return value;
    };
    const auto bytes_of = [&](const std::vector<uint64_t>& value) {
      std::vector<uint8_t> bytes(table.value_bytes());
      for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(value[i / 8] >> (8 * (i % 8)));
      }
      return bytes;
    };
    // One key whose last cell is the table's last cell, so its word-wide
    // update runs into the padding.
    uint64_t last_key = rng.Next64();
    while (reference.indexer().Cell(last_key, config.q - 1) !=
           table.cells() - 1) {
      last_key = rng.Next64();
    }
    std::map<uint64_t, std::vector<uint8_t>> inserted;
    for (int i = 0; i < 6; ++i) {
      const uint64_t key = i == 0 ? last_key : rng.Next64();
      const std::vector<uint64_t> value = random_value();
      if (i % 2 == 0) {
        table.Insert(key, value.data());
      } else {
        table.Insert(key, bytes_of(value));
      }
      reference.Apply(key, bytes_of(value), +1);
      inserted[key] = bytes_of(value);
    }
    // An erase of an absent entry leaves a -1 entry behind.
    const uint64_t absent = rng.Next64();
    const std::vector<uint64_t> absent_value = random_value();
    table.Erase(absent, absent_value.data());
    reference.Apply(absent, bytes_of(absent_value), -1);

    const std::vector<uint8_t> bytes = SerializedBytes(table);
    ASSERT_EQ(bytes, reference.Bytes());
    BitReader in(bytes);
    const std::optional<Iblt> reread = Iblt::Deserialize(config, &in);
    ASSERT_TRUE(reread.has_value());
    EXPECT_EQ(SerializedBytes(*reread), bytes);

    const IbltDecodeResult decoded = table.Decode();
    ASSERT_TRUE(decoded.success);
    ASSERT_EQ(decoded.entries.size(), inserted.size() + 1);
    for (const IbltEntry& entry : decoded.entries) {
      if (entry.sign < 0) {
        EXPECT_EQ(entry.key, absent);
        EXPECT_EQ(entry.value, bytes_of(absent_value));
      } else {
        ASSERT_EQ(inserted.count(entry.key), 1u);
        EXPECT_EQ(entry.value, inserted.at(entry.key));
      }
    }
    Iblt difference = table;
    difference.Subtract(*reread);
    EXPECT_TRUE(difference.IsEmpty());
    EXPECT_TRUE(std::move(difference).Decode().entries.empty());
    // Erasing everything again empties the table.
    for (const auto& [key, value] : inserted) table.Erase(key, value);
    table.Insert(absent, absent_value.data());
    EXPECT_TRUE(table.IsEmpty());
    EXPECT_EQ(SerializedBytes(table),
              std::vector<uint8_t>(bytes.size(), 0));
  }
}

TEST(SizingTest, ThresholdsSane) {
  // More hash functions (up to the optimum) reduce the per-entry overhead.
  EXPECT_GT(CellsPerEntryThreshold(3), 1.2);
  EXPECT_LT(CellsPerEntryThreshold(3), 1.25);
  EXPECT_GT(CellsPerEntryThreshold(4), CellsPerEntryThreshold(5) - 0.2);
  EXPECT_GT(RecommendedCells(100, 4), 100u);
  EXPECT_GE(RecommendedCells(0, 4), 16u);  // floor
  EXPECT_GT(RecommendedCells(1000, 4, 2.0), RecommendedCells(1000, 4, 1.0));
}

// Decode success probability across sizing ratios: below threshold decode
// mostly fails, above the recommended sizing it virtually always succeeds.
class IbltThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(IbltThresholdSweep, RecommendedSizingDecodes) {
  const int q = GetParam();
  const size_t entries = 120;
  int successes = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    IbltConfig config;
    config.cells = RecommendedCells(entries, q);
    config.q = q;
    config.seed = static_cast<uint64_t>(t) * 977 + 13;
    Iblt table(config);
    Rng rng(config.seed);
    for (size_t i = 0; i < entries; ++i) table.Insert(rng.Next64(), {});
    if (table.Decode().success) ++successes;
  }
  EXPECT_GE(successes, trials - 1);
}

TEST_P(IbltThresholdSweep, WayUndersizedFails) {
  const int q = GetParam();
  const size_t entries = 400;
  IbltConfig config;
  config.cells = entries / 4;  // far below any threshold
  config.q = q;
  config.seed = 99;
  Iblt table(config);
  Rng rng(31);
  for (size_t i = 0; i < entries; ++i) table.Insert(rng.Next64(), {});
  EXPECT_FALSE(table.Decode().success);
}

INSTANTIATE_TEST_SUITE_P(HashCounts, IbltThresholdSweep,
                         ::testing::Values(3, 4, 5));

}  // namespace
}  // namespace rsr
