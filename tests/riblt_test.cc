#include "riblt/riblt.h"

#include <algorithm>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "geometry/metric.h"
#include "riblt/riblt_recon.h"
#include "util/random.h"

namespace rsr {
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
    EXPECT_EQ(RetireAndAdopt(bob, retire, adopt, metric),
              ReferenceRetireAndAdopt(bob, retire, adopt, metric))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace rsr
