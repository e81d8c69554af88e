#include "riblt/riblt.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/metric.h"
#include "riblt/riblt_recon.h"
#include "util/random.h"

namespace rsr {

// The per-field codec the word codec replaced, kept as its oracle: one
// WriteBits call per field, a sum wider than a word as its low word and
// then its high bits.
struct RibltTestPeer {
  static void ReferenceSerialize(const Riblt& table, BitWriter* out) {
    const RibltConfig& config = table.config_;
    const int key_bits = config.KeySumBits();
    const int coord_bits = config.CoordSumBits();
    const auto write_sum = [&](__int128 v) {
      const unsigned __int128 u = static_cast<unsigned __int128>(v);
      out->WriteBits(static_cast<uint64_t>(u), 64);
      out->WriteBits(static_cast<uint64_t>(u >> 64), key_bits - 64);
    };
    for (size_t i = 0; i < table.m_; ++i) {
      out->WriteBits(static_cast<uint64_t>(table.counts_[i]),
                     config.count_bits);
      write_sum(table.key_sums_[i]);
      write_sum(table.check_sums_[i]);
      const int64_t* vs =
          table.value_sums_.data() + i * static_cast<size_t>(table.d_);
      for (int c = 0; c < table.d_; ++c) {
        out->WriteBits(static_cast<uint64_t>(vs[c]), coord_bits);
      }
    }
  }

  /// Every field of every cell is equal.
  static bool SameCells(const Riblt& a, const Riblt& b) {
    return a.counts_ == b.counts_ && a.key_sums_ == b.key_sums_ &&
           a.check_sums_ == b.check_sums_ && a.value_sums_ == b.value_sums_;
  }

  /// True when some cell holds a negative count, key sum and value sum and
  /// some cell a key sum beyond 2^64: the fields whose high bits matter.
  static bool HasWideAndNegativeFields(const Riblt& table) {
    bool negative_count = false, negative_sum = false, negative_value = false;
    bool wide_sum = false;
    const __int128 word = static_cast<__int128>(1) << 64;
    for (size_t i = 0; i < table.m_; ++i) {
      negative_count |= table.counts_[i] < 0;
      negative_sum |= table.key_sums_[i] < 0;
      wide_sum |= table.key_sums_[i] >= word || table.key_sums_[i] <= -word;
    }
    for (int64_t v : table.value_sums_) negative_value |= v < 0;
    return negative_count && negative_sum && negative_value && wide_sum;
  }

  /// Sets the value sums of `key`'s first cell (in queue order) to `first`
  /// and of its other cells to `rest`.
  static void SetValueSums(Riblt* table, uint64_t key, int64_t first,
                           int64_t rest) {
    std::vector<size_t> cells;
    for (int j = 0; j < table->config_.q; ++j) {
      cells.push_back(table->indexer_.Cell(key, j));
    }
    std::sort(cells.begin(), cells.end());
    for (size_t cell : cells) {
      int64_t* vs =
          table->value_sums_.data() + cell * static_cast<size_t>(table->d_);
      std::fill(vs, vs + table->d_, cell == cells.front() ? first : rest);
    }
  }
};

namespace {

RibltConfig TestConfig(size_t cells = 120, uint64_t seed = 1) {
  RibltConfig config;
  config.cells = cells;
  config.q = 3;
  config.universe = MakeUniverse(1 << 10, 2);
  config.max_entries = 1 << 12;
  config.seed = seed;
  return config;
}

TEST(RibltConfigTest, Widths) {
  const RibltConfig config = TestConfig();
  EXPECT_EQ(config.RoundedCells(), 120u);
  // key sums: 64 + log2(4097) + sign = 64 + 13 + 1.
  EXPECT_EQ(config.KeySumBits(), 78);
  // coords: log2(1024) + log2(4097) + sign = 10 + 13 + 1.
  EXPECT_EQ(config.CoordSumBits(), 24);
  EXPECT_EQ(config.SerializedBits(),
            120u * (16 + 2 * 78 + 2 * 24));
}

TEST(RibltTest, EmptyDecodes) {
  Riblt table(TestConfig());
  Rng rng(1);
  const RibltDecodeResult result = table.Decode(&rng);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.entries.empty());
}

TEST(RibltTest, SingleEntryRoundTrip) {
  Riblt table(TestConfig());
  table.Insert(42, {100, 200});
  Rng rng(2);
  const RibltDecodeResult result = table.Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].key, 42u);
  EXPECT_EQ(result.entries[0].sign, 1);
  ASSERT_EQ(result.entries[0].values.size(), 1u);
  EXPECT_EQ(result.entries[0].values[0], Point({100, 200}));
}

TEST(RibltTest, ErasedEntryHasNegativeSign) {
  Riblt table(TestConfig());
  table.Erase(7, {5, 6});
  Rng rng(3);
  const RibltDecodeResult result = table.Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].sign, -1);
  EXPECT_EQ(result.entries[0].values[0], Point({5, 6}));
}

TEST(RibltTest, DuplicateKeysWithEqualValuesExtractExactCopies) {
  Riblt table(TestConfig());
  table.Insert(9, {50, 60});
  table.Insert(9, {50, 60});
  table.Insert(9, {50, 60});
  Rng rng(4);
  const RibltDecodeResult result = table.Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].key, 9u);
  ASSERT_EQ(result.entries[0].values.size(), 3u);
  for (const Point& v : result.entries[0].values) {
    EXPECT_EQ(v, Point({50, 60}));
  }
}

TEST(RibltTest, DuplicateKeysWithDifferentValuesAverage) {
  Riblt table(TestConfig());
  table.Insert(11, {10, 100});
  table.Insert(11, {20, 100});
  Rng rng(5);
  const RibltDecodeResult result = table.Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  ASSERT_EQ(result.entries[0].values.size(), 2u);
  for (const Point& v : result.entries[0].values) {
    EXPECT_EQ(v[0], 15);   // exact average, no rounding needed
    EXPECT_EQ(v[1], 100);
  }
}

TEST(RibltTest, AveragingWithRoundingStaysNearMean) {
  // Values 0 and 1 average to 0.5: each extracted copy must round to 0 or 1.
  Riblt table(TestConfig());
  table.Insert(13, {0, 7});
  table.Insert(13, {1, 7});
  Rng rng(6);
  const RibltDecodeResult result = table.Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  for (const Point& v : result.entries[0].values) {
    EXPECT_TRUE(v[0] == 0 || v[0] == 1);
    EXPECT_EQ(v[1], 7);
  }
}

TEST(RibltTest, RoundingFrequencyMatchesFraction) {
  // Average 1/4 should round up ~25% of the time across many decodes.
  int ups = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    Riblt table(TestConfig(120, 7));
    table.Insert(17, {1, 0});
    table.Insert(17, {0, 0});
    table.Insert(17, {0, 0});
    table.Insert(17, {0, 0});
    Rng rng(static_cast<uint64_t>(t) + 999);
    const RibltDecodeResult result = table.Decode(&rng);
    ASSERT_TRUE(result.success);
    ups += result.entries[0].values[0][0];  // first copy's first coord
  }
  EXPECT_NEAR(static_cast<double>(ups) / trials, 0.25, 0.03);
}

TEST(RibltTest, MatchedNoisyPairLeavesValueResidueOnly) {
  // Same key, different values, opposite signs: structurally cancels.
  Riblt table(TestConfig());
  table.Insert(21, {100, 100});
  table.Erase(21, {101, 99});
  EXPECT_TRUE(table.IsStructurallyEmpty());
  Rng rng(8);
  const RibltDecodeResult result = table.Decode(&rng);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.entries.empty());
}

TEST(RibltTest, ErrorPropagationContaminatesButDecodes) {
  // A matched noisy pair shares a cell structure with genuinely differing
  // entries; peeling still succeeds and the residue perturbs at most the
  // values, never the keys.
  Riblt table(TestConfig(120, 9));
  Rng data_rng(9);
  std::map<uint64_t, Point> alice_only;
  for (int i = 0; i < 10; ++i) {
    const uint64_t key = data_rng.Next64();
    const Point p = {data_rng.Uniform(0, 1023), data_rng.Uniform(0, 1023)};
    alice_only[key] = p;
    table.Insert(key, p);
  }
  // Ten matched noisy pairs (same keys both sides, values off by one).
  for (int i = 0; i < 10; ++i) {
    const uint64_t key = data_rng.Next64();
    const Point p = {data_rng.Uniform(1, 1022), data_rng.Uniform(1, 1022)};
    table.Insert(key, p);
    table.Erase(key, {p[0] + 1, p[1] - 1});
  }
  Rng rng(10);
  const RibltDecodeResult result = table.Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), alice_only.size());
  int64_t total_error = 0;
  for (const RibltEntry& e : result.entries) {
    ASSERT_TRUE(alice_only.count(e.key));
    ASSERT_EQ(e.values.size(), 1u);
    total_error += DistanceL1(e.values[0], alice_only[e.key]);
  }
  // Total residue injected is 10 pairs x L1 error 2 = 20; the decoded
  // values can't accumulate more error than what was injected times a
  // small propagation factor.
  EXPECT_LE(total_error, 200);
}

TEST(RibltTest, SubtractEquivalentToInsertErase) {
  const RibltConfig config = TestConfig(120, 11);
  Riblt direct(config);
  direct.Insert(1, {10, 10});
  direct.Erase(2, {20, 20});

  Riblt a(config), b(config);
  a.Insert(1, {10, 10});
  b.Insert(2, {20, 20});
  a.Subtract(b);

  Rng rng1(11), rng2(11);
  const RibltDecodeResult r1 = direct.Decode(&rng1);
  const RibltDecodeResult r2 = a.Decode(&rng2);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  ASSERT_EQ(r1.entries.size(), 2u);
  ASSERT_EQ(r2.entries.size(), 2u);
}

TEST(RibltTest, OverloadedFailsCleanly) {
  Riblt table(TestConfig(30, 12));
  Rng data_rng(12);
  for (int i = 0; i < 400; ++i) {
    table.Insert(data_rng.Next64(),
                 {data_rng.Uniform(0, 1023), data_rng.Uniform(0, 1023)});
  }
  Rng rng(13);
  EXPECT_FALSE(table.Decode(&rng).success);
}

TEST(RibltTest, MaxEntriesAbortsEarly) {
  Riblt table(TestConfig(300, 13));
  Rng data_rng(14);
  for (int i = 0; i < 50; ++i) {
    table.Insert(data_rng.Next64(),
                 {data_rng.Uniform(0, 1023), data_rng.Uniform(0, 1023)});
  }
  Rng rng(15);
  EXPECT_TRUE(table.Decode(&rng).success);
  Rng rng2(15);
  EXPECT_FALSE(table.Decode(&rng2, /*max_entries=*/10).success);
}

TEST(RibltTest, SerializeRoundTrip) {
  const RibltConfig config = TestConfig(90, 16);
  Riblt table(config);
  Rng data_rng(16);
  for (int i = 0; i < 20; ++i) {
    table.Insert(data_rng.Next64(),
                 {data_rng.Uniform(0, 1023), data_rng.Uniform(0, 1023)});
  }
  table.Erase(777, {3, 4});

  BitWriter w;
  table.Serialize(&w);
  EXPECT_EQ(w.bit_count(), config.SerializedBits());
  BitReader r(w.bytes());
  std::optional<Riblt> restored = Riblt::Deserialize(config, &r);
  ASSERT_TRUE(restored.has_value());

  Rng rng1(17), rng2(17);
  const RibltDecodeResult d1 = table.Decode(&rng1);
  const RibltDecodeResult d2 = restored->Decode(&rng2);
  ASSERT_TRUE(d1.success);
  ASSERT_TRUE(d2.success);
  ASSERT_EQ(d1.entries.size(), d2.entries.size());
  for (size_t i = 0; i < d1.entries.size(); ++i) {
    EXPECT_EQ(d1.entries[i].key, d2.entries[i].key);
    EXPECT_EQ(d1.entries[i].sign, d2.entries[i].sign);
    EXPECT_EQ(d1.entries[i].values, d2.entries[i].values);
  }
}

TEST(RibltTest, DeserializeUnderrunFails) {
  const RibltConfig config = TestConfig(90, 17);
  BitWriter w;
  w.WriteBits(0, 50);
  BitReader r(w.bytes());
  EXPECT_FALSE(Riblt::Deserialize(config, &r).has_value());
}

/// `table` after `inserts` random insertions and `erases` random erasures:
/// counts of both signs, key and checksum sums beyond 2^64 where keys
/// pile up, negative value sums.
Riblt Filled(const RibltConfig& config, int inserts, int erases,
             uint64_t seed) {
  Riblt table(config);
  Rng rng(seed);
  const auto point = [&] {
    Point p(static_cast<size_t>(config.universe.d));
    for (int64_t& c : p) {
      c = static_cast<int64_t>(
          rng.Below(static_cast<uint64_t>(config.universe.delta)));
    }
    return p;
  };
  for (int i = 0; i < inserts; ++i) table.Insert(rng.Next64(), point());
  for (int i = 0; i < erases; ++i) table.Erase(rng.Next64(), point());
  return table;
}

// The word codec writes exactly the per-field codec's bits after a prefix
// of every length 0..63, reads them back to the same table, and refuses
// input one bit short without consuming it. The k = 1024 one-shot table
// is mesh-repl's repair sketch.
TEST(RibltCodecTest, MatchesPerFieldReferenceAtEveryOffset) {
  RibltReconParams oneshot;
  oneshot.k = 1024;
  struct Case {
    RibltConfig config;
    int inserts;
    int erases;
  };
  RibltConfig wide_coords = TestConfig(60, 5);
  wide_coords.universe = MakeUniverse(int64_t{1} << 40, 3);
  wide_coords.count_bits = kRibltMaxCountBits;
  const Case cases[] = {
      {TestConfig(120, 3), 150, 250},
      {wide_coords, 90, 120},
      {RibltOneShotConfig(MakeUniverse(1 << 14, 2), oneshot, 1 << 14, 9),
       12000, 12000},
  };
  Rng prefix_rng(31);
  for (const Case& c : cases) {
    const Riblt table = Filled(c.config, c.inserts, c.erases, c.inserts);
    ASSERT_TRUE(RibltTestPeer::HasWideAndNegativeFields(table));
    const size_t bits = c.config.SerializedBits();
    for (int offset = 0; offset < 64; ++offset) {
      SCOPED_TRACE(testing::Message() << "cells " << table.cells()
                                      << " offset " << offset);
      const uint64_t prefix = prefix_rng.Next64();
      BitWriter w, reference;
      w.WriteBits(prefix, offset);
      reference.WriteBits(prefix, offset);
      table.Serialize(&w);
      RibltTestPeer::ReferenceSerialize(table, &reference);
      ASSERT_EQ(w.bit_count(), static_cast<size_t>(offset) + bits);
      ASSERT_EQ(w.bytes(), reference.bytes());

      BitReader r(w.bytes());
      ASSERT_TRUE(r.Skip(static_cast<size_t>(offset)));
      const std::optional<Riblt> back = Riblt::Deserialize(c.config, &r);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(r.bits_consumed(), static_cast<size_t>(offset) + bits);
      ASSERT_TRUE(RibltTestPeer::SameCells(*back, table));

      BitReader short_by_one(w.bytes());
      ASSERT_TRUE(short_by_one.Skip(w.bytes().size() * 8 - (bits - 1)));
      EXPECT_FALSE(Riblt::Deserialize(c.config, &short_by_one).has_value());
      EXPECT_EQ(short_by_one.bits_remaining(), bits - 1);
    }
  }
}

// The widest table a config allows keeps 127-bit sums, so even a hostile
// one holding the least sums and counts in every cell takes the erasure of
// a set and a budgeted decode without overflow (the sanitizer build checks
// it).
TEST(RibltTest, WidestSumsKeepHeadroomForErasesAndDecode) {
  RibltConfig config = TestConfig(30, 41);
  config.max_entries = kRibltMaxEntries;
  ASSERT_EQ(config.KeySumBits(), 127);
  const auto least = [](int bits) { return uint64_t{1} << (bits - 1); };
  BitWriter w;
  for (size_t cell = 0; cell < config.RoundedCells(); ++cell) {
    w.WriteBits(least(config.count_bits), config.count_bits);
    for (int sum = 0; sum < 2; ++sum) {  // key and checksum sums -2^126
      w.WriteBits(0, 64);
      w.WriteBits(least(config.KeySumBits() - 64), config.KeySumBits() - 64);
    }
    for (int c = 0; c < config.universe.d; ++c) {
      w.WriteBits(least(config.CoordSumBits()), config.CoordSumBits());
    }
  }
  BitReader r(w.bytes());
  std::optional<Riblt> table = Riblt::Deserialize(config, &r);
  ASSERT_TRUE(table.has_value());
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    table->Erase(~uint64_t{0} - rng.Below(1 << 20),
                 {rng.Uniform(0, 1023), rng.Uniform(0, 1023)});
  }
  const RibltDecodeResult result = std::move(*table).Decode(&rng, 64);
  EXPECT_FALSE(result.success);
}

// A peel subtracts a value sum it never checks, so a hostile table's value
// sums can grow from cell to cell until they wrap. Here the cell peeled
// first holds -2^63 over a count of -1 and the key's other cells 2^63 - 1:
// the average is clamped into the universe and the other cells wrap to -1.
TEST(RibltTest, WrappedValueSumsPeelInsideTheUniverse) {
  const RibltConfig config = TestConfig(30, 43);
  Riblt table(config);
  const uint64_t key = 0x5eed;
  table.Erase(key, {1, 2});
  RibltTestPeer::SetValueSums(&table, key,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max());
  Rng rng(44);
  const RibltDecodeResult result = std::move(table).Decode(&rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].key, key);
  EXPECT_EQ(result.entries[0].sign, -1);
  const int64_t top = config.universe.delta - 1;
  EXPECT_EQ(result.entries[0].values, std::vector<Point>({Point{top, top}}));
}

// Peeling in place gives what peeling a copy gives: the same entries in
// the same (FIFO) order, from the same rounding stream.
TEST(RibltTest, DecodeInPlaceMatchesDecodeOfACopy) {
  const RibltConfig config = TestConfig(240, 12);
  Riblt table(config);
  Rng data_rng(12);
  for (int i = 0; i < 30; ++i) {
    const uint64_t key = data_rng.Next64();
    const int copies = 1 + static_cast<int>(data_rng.Below(3));
    for (int c = 0; c < copies; ++c) {
      table.Insert(key, {data_rng.Uniform(0, 1023), data_rng.Uniform(0, 1023)});
    }
  }
  for (int i = 0; i < 10; ++i) table.Erase(data_rng.Next64(), {1, 2});
  Rng copy_rng(40), place_rng(40);
  const RibltDecodeResult copied = table.Decode(&copy_rng);
  Riblt consumed = table;
  const RibltDecodeResult in_place = std::move(consumed).Decode(&place_rng);
  ASSERT_TRUE(copied.success);
  EXPECT_EQ(in_place.success, copied.success);
  ASSERT_EQ(in_place.entries.size(), copied.entries.size());
  for (size_t i = 0; i < copied.entries.size(); ++i) {
    EXPECT_EQ(in_place.entries[i].key, copied.entries[i].key);
    EXPECT_EQ(in_place.entries[i].sign, copied.entries[i].sign);
    EXPECT_EQ(in_place.entries[i].values, copied.entries[i].values);
  }
  EXPECT_EQ(place_rng.Next64(), copy_rng.Next64());
}

// Reconciliation-shaped sweep: two parties, varying overlap; the subtracted
// RIBLT must recover exactly the differing pairs' keys.
class RibltReconSweep : public ::testing::TestWithParam<int> {};

TEST_P(RibltReconSweep, SymmetricDifferenceByKeys) {
  const int diff = GetParam();
  const RibltConfig config = TestConfig(
      static_cast<size_t>(3 * 2 * diff * 4 + 60), 18);
  Riblt alice(config), bob(config);
  Rng rng(20 + static_cast<uint64_t>(diff));
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = rng.Next64();
    const Point p = {rng.Uniform(0, 1023), rng.Uniform(0, 1023)};
    alice.Insert(key, p);
    bob.Insert(key, p);
  }
  std::map<uint64_t, int> expected;  // key -> sign
  for (int i = 0; i < diff; ++i) {
    const uint64_t ka = rng.Next64();
    const uint64_t kb = rng.Next64();
    alice.Insert(ka, {rng.Uniform(0, 1023), rng.Uniform(0, 1023)});
    bob.Insert(kb, {rng.Uniform(0, 1023), rng.Uniform(0, 1023)});
    expected[ka] = 1;
    expected[kb] = -1;
  }
  alice.Subtract(bob);
  Rng round_rng(21);
  const RibltDecodeResult result = alice.Decode(&round_rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.entries.size(), expected.size());
  for (const RibltEntry& e : result.entries) {
    ASSERT_TRUE(expected.count(e.key));
    EXPECT_EQ(e.sign, expected[e.key]);
  }
}

INSTANTIATE_TEST_SUITE_P(DiffSizes, RibltReconSweep,
                         ::testing::Values(1, 4, 16, 48));

// The greedy matching RetireAndAdopt replaced: a nearest-point scan over
// every untaken point of Bob's per retired value.
PointSet ReferenceRetireAndAdopt(const PointSet& bob, const PointSet& retire,
                                 const PointSet& adopt, Metric metric) {
  std::vector<char> taken(bob.size(), 0);
  for (const Point& x : retire) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_index = bob.size();
    for (size_t i = 0; i < bob.size(); ++i) {
      if (taken[i]) continue;
      const double dist = Distance(x, bob[i], metric);
      if (dist < best) {
        best = dist;
        best_index = i;
      }
    }
    if (best_index < bob.size()) taken[best_index] = 1;
  }
  PointSet final_set;
  for (size_t i = 0; i < bob.size(); ++i) {
    if (!taken[i]) final_set.push_back(bob[i]);
  }
  final_set.insert(final_set.end(), adopt.begin(), adopt.end());
  return final_set;
}

TEST(RetireAndAdoptTest, MatchesNearestPointScan) {
  // Coordinates in [0, 5) make duplicates common on both sides; retired
  // values are exact copies of Bob's points, copies nudged by one (the
  // averaged-value residue a noisy decode leaves), points Bob may or may
  // not hold, and points far outside his set. Retiring more copies of a
  // value than Bob holds, and more values than he has points, both occur.
  const Metric metrics[] = {Metric::kL1, Metric::kL2, Metric::kLinf,
                            Metric::kHamming};
  Rng rng(4242);
  const auto random_point = [&](int64_t hi) {
    return Point{rng.Uniform(0, hi - 1), rng.Uniform(0, hi - 1)};
  };
  for (int trial = 0; trial < 400; ++trial) {
    const Metric metric = metrics[trial % 4];
    PointSet bob(static_cast<size_t>(rng.Uniform(0, 40)));
    for (Point& p : bob) p = random_point(5);
    PointSet retire(static_cast<size_t>(rng.Uniform(0, 24)));
    for (Point& x : retire) {
      const int64_t kind = bob.empty() ? 2 : rng.Uniform(0, 3);
      if (kind <= 1) {
        x = bob[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(bob.size()) - 1))];
        if (kind == 1) x[static_cast<size_t>(rng.Uniform(0, 1))] += 1;
      } else if (kind == 2) {
        x = random_point(7);
      } else {
        x = {100 + rng.Uniform(0, 9), -rng.Uniform(0, 9)};
      }
    }
    PointSet adopt(static_cast<size_t>(rng.Uniform(0, 4)));
    for (Point& p : adopt) p = random_point(5);
    EXPECT_EQ(RetireAndAdopt(bob, retire, adopt, metric).Materialize(),
              ReferenceRetireAndAdopt(bob, retire, adopt, metric))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace rsr
