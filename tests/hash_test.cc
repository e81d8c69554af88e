#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "hash/checksum.h"
#include "hash/family.h"
#include "hash/mix.h"
#include "util/random.h"

namespace rsr {
namespace {

TEST(Mix64Test, DeterministicAndBijectiveSpotCheck) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  // Bijective finalizer: no collisions among a decent sample.
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(Mix64Test, AvalancheRoughly) {
  // Flipping one input bit should flip ~32 output bits on average.
  Rng rng(1);
  double total_flips = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const uint64_t x = rng.Next64();
    const int bit = static_cast<int>(rng.Below(64));
    const uint64_t diff = Mix64(x) ^ Mix64(x ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(diff);
  }
  EXPECT_NEAR(total_flips / trials, 32.0, 1.5);
}

TEST(Hash64Test, SeedSensitivity) {
  EXPECT_NE(Hash64(123, 1), Hash64(123, 2));
  EXPECT_EQ(Hash64(123, 7), Hash64(123, 7));
}

TEST(HashCombineTest, OrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(HashBytesTest, BasicProperties) {
  const char data1[] = "hello world";
  const char data2[] = "hello worle";
  EXPECT_EQ(HashBytes(data1, sizeof(data1), 5),
            HashBytes(data1, sizeof(data1), 5));
  EXPECT_NE(HashBytes(data1, sizeof(data1), 5),
            HashBytes(data2, sizeof(data2), 5));
  EXPECT_NE(HashBytes(data1, sizeof(data1), 5),
            HashBytes(data1, sizeof(data1), 6));
  // Length is part of the hash: a prefix hashes differently.
  EXPECT_NE(HashBytes(data1, 5, 5), HashBytes(data1, 6, 5));
}

TEST(HashBytesTest, EmptyInput) {
  EXPECT_EQ(HashBytes(nullptr, 0, 1), HashBytes(nullptr, 0, 1));
  EXPECT_NE(HashBytes(nullptr, 0, 1), HashBytes(nullptr, 0, 2));
}

TEST(PairwiseHashTest, SeededAndSpread) {
  PairwiseHash h1(1), h2(1), h3(2);
  EXPECT_EQ(h1(999), h2(999));
  EXPECT_NE(h1(999), h3(999));
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(h1(i));
  EXPECT_GT(outputs.size(), 9990u);
}

TEST(PairwiseHashTest, BoundedRangeAndUniformity) {
  PairwiseHash h(3);
  const uint64_t range = 10;
  std::vector<int> counts(range, 0);
  for (uint64_t i = 0; i < 50000; ++i) {
    const uint64_t v = h.Bounded(i, range);
    ASSERT_LT(v, range);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 50000.0, 0.1, 0.02);
  }
}

TEST(PairwiseHashTest, PairwiseCollisionRate) {
  // Over random hash draws, Pr[h(x) == h(y) mod r] should be ~1/r for
  // distinct x, y — the defining property of 2-independence.
  const uint64_t range = 64;
  int collisions = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    PairwiseHash h(static_cast<uint64_t>(t) + 1000);
    if (h.Bounded(17, range) == h.Bounded(91, range)) ++collisions;
  }
  EXPECT_NEAR(static_cast<double>(collisions) / trials, 1.0 / range, 0.01);
}

TEST(PolynomialHashTest, IndependenceParameterRespected) {
  PolynomialHash h(5, 4);
  EXPECT_EQ(h.independence(), 4);
  EXPECT_EQ(h(77), h(77));
  PolynomialHash h2(6, 4);
  EXPECT_NE(h(77), h2(77));
}

TEST(PolynomialHashTest, OutputBelowMersennePrime) {
  PolynomialHash h(7, 3);
  const uint64_t p = (uint64_t{1} << 61) - 1;
  for (uint64_t i = 0; i < 1000; ++i) EXPECT_LT(h(i), p);
}

TEST(IndexHasherTest, CellsAreDistinctAndPartitioned) {
  const int q = 4;
  const size_t m = 64;
  IndexHasher indexer(3, q, m);
  EXPECT_EQ(indexer.cells_per_partition(), m / q);
  std::vector<size_t> cells;
  for (uint64_t key = 0; key < 500; ++key) {
    indexer.Cells(key, &cells);
    ASSERT_EQ(cells.size(), static_cast<size_t>(q));
    std::set<size_t> unique(cells.begin(), cells.end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(q));  // always distinct
    for (int j = 0; j < q; ++j) {
      // Function j stays within partition j.
      EXPECT_GE(cells[static_cast<size_t>(j)], static_cast<size_t>(j) * m / q);
      EXPECT_LT(cells[static_cast<size_t>(j)],
                static_cast<size_t>(j + 1) * m / q);
    }
  }
}

TEST(IndexHasherTest, CellMatchesCells) {
  IndexHasher indexer(8, 3, 30);
  std::vector<size_t> cells;
  indexer.Cells(42, &cells);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(indexer.Cell(42, j), cells[static_cast<size_t>(j)]);
  }
}

TEST(ChecksumTest, SeededDeterministic) {
  Checksum c1(1), c2(1), c3(2);
  EXPECT_EQ(c1(500), c2(500));
  EXPECT_NE(c1(500), c3(500));
}

TEST(ChecksumTest, TruncationConsistent) {
  Checksum c(9);
  const uint64_t full = c(123456);
  EXPECT_EQ(c.Truncated(123456, 64), full);
  EXPECT_EQ(c.Truncated(123456, 16), full & 0xffff);
  EXPECT_EQ(c.Truncated(123456, 1), full & 1);
}

TEST(ChecksumTest, XorOfChecksumsIsNotAChecksum) {
  // The pure-cell test relies on XORs of distinct keys' checksums not
  // matching the checksum of the XOR of the keys. Spot-check on a sample.
  Checksum c(10);
  Rng rng(20);
  int bad = 0;
  for (int t = 0; t < 5000; ++t) {
    const uint64_t k1 = rng.Next64(), k2 = rng.Next64();
    if ((c(k1) ^ c(k2)) == c(k1 ^ k2)) ++bad;
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace rsr
