#include "geometry/point.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rsr {
namespace {

TEST(UniverseTest, BitWidths) {
  EXPECT_EQ(MakeUniverse(1024, 2).BitsPerCoord(), 10);
  EXPECT_EQ(MakeUniverse(1024, 2).BitsPerPoint(), 20);
  EXPECT_EQ(MakeUniverse(1000, 3).BitsPerCoord(), 10);  // next power of two
  EXPECT_EQ(MakeUniverse(1, 4).BitsPerCoord(), 0);
  EXPECT_EQ(MakeUniverse(2, 4).BitsPerCoord(), 1);
}

TEST(UniverseTest, Contains) {
  const Universe u = MakeUniverse(100, 2);
  EXPECT_TRUE(u.Contains({0, 0}));
  EXPECT_TRUE(u.Contains({99, 99}));
  EXPECT_FALSE(u.Contains({100, 0}));
  EXPECT_FALSE(u.Contains({0, -1}));
  EXPECT_FALSE(u.Contains({1, 2, 3}));  // wrong arity
  EXPECT_FALSE(u.Contains({1}));
}

TEST(PointPackTest, RoundTripFixedCases) {
  const Universe u = MakeUniverse(1 << 12, 3);
  const PointSet points = {
      {0, 0, 0}, {4095, 4095, 4095}, {1, 2, 3}, {1024, 0, 4095}};
  BitWriter w;
  for (const Point& p : points) PackPoint(u, p, &w);
  EXPECT_EQ(w.bit_count(), points.size() * 36);

  BitReader r(w.bytes());
  for (const Point& expected : points) {
    Point p;
    ASSERT_TRUE(UnpackPoint(u, &r, &p));
    EXPECT_EQ(p, expected);
  }
}

TEST(PointPackTest, RoundTripRandomSweep) {
  Rng rng(77);
  for (int d = 1; d <= 8; d *= 2) {
    for (int64_t delta : {2ll, 17ll, 1024ll, 1ll << 20}) {
      const Universe u = MakeUniverse(delta, d);
      BitWriter w;
      PointSet points;
      for (int i = 0; i < 50; ++i) {
        Point p(static_cast<size_t>(d));
        for (auto& c : p) {
          c = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(delta)));
        }
        PackPoint(u, p, &w);
        points.push_back(std::move(p));
      }
      BitReader r(w.bytes());
      for (const Point& expected : points) {
        Point p;
        ASSERT_TRUE(UnpackPoint(u, &r, &p));
        ASSERT_EQ(p, expected);
      }
    }
  }
}

TEST(PointPackTest, UnderrunFails) {
  const Universe u = MakeUniverse(1 << 16, 4);
  BitWriter w;
  w.WriteBits(7, 16);  // not enough for a whole point
  BitReader r(w.bytes());
  Point p;
  EXPECT_FALSE(UnpackPoint(u, &r, &p));
}

// PackPoints / UnpackPoints (and PackPointWords, one point as words) move
// exactly PackPoint's bits, at every coordinate width (zero-width and
// word-straddling ones included) and after a misaligned prefix; an
// underrun fails and consumes nothing.
TEST(PointPackTest, WholeSetsMatchPointAtATime) {
  Rng rng(91);
  for (int64_t delta : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{1000},
                        int64_t{1} << 20, (int64_t{1} << 40) + 7,
                        int64_t{1} << 62}) {
    for (int d : {1, 2, 3, 5}) {
      const Universe u = MakeUniverse(delta, d);
      const size_t point_bits = static_cast<size_t>(u.BitsPerPoint());
      for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64}}) {
        PointSet points(n, Point(static_cast<size_t>(d)));
        for (Point& p : points) {
          for (int64_t& c : p) {
            c = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(delta)));
          }
        }
        for (int prefix : {0, 3, 13}) {
          BitWriter one, all;
          one.WriteBits(0x1fff, prefix);
          all.WriteBits(0x1fff, prefix);
          for (const Point& p : points) PackPoint(u, p, &one);
          PackPoints(u, points, &all);
          if (prefix == 0) {
            // One point as IBLT value words: PackPoint's bytes, widened.
            for (const Point& p : points) {
              BitWriter single;
              PackPoint(u, p, &single);
              std::vector<uint64_t> words((point_bits + 63) / 64,
                                          ~uint64_t{0});
              PackPointWords(u, p, words.data());
              std::vector<uint8_t> widened(words.size() * 8);
              for (size_t i = 0; i < widened.size(); ++i) {
                widened[i] =
                    static_cast<uint8_t>(words[i / 8] >> (8 * (i % 8)));
              }
              std::vector<uint8_t> expected = single.bytes();
              expected.resize(widened.size(), 0);
              ASSERT_EQ(widened, expected)
                  << "delta " << delta << " d " << d;
            }
          }
          ASSERT_EQ(all.bit_count(), one.bit_count());
          ASSERT_EQ(all.bytes(), one.bytes())
              << "delta " << delta << " d " << d << " n " << n;

          BitReader r(all.bytes());
          ASSERT_TRUE(r.Skip(static_cast<size_t>(prefix)));
          PointSet read;
          ASSERT_TRUE(UnpackPoints(u, n, &r, &read));
          EXPECT_EQ(read, points);
          EXPECT_EQ(r.bits_consumed(), static_cast<size_t>(prefix) +
                                           n * point_bits);
          if (point_bits == 0) continue;
          // Eight more points than were written need more bits than a
          // byte's padding holds.
          BitReader short_reader(all.bytes());
          ASSERT_TRUE(short_reader.Skip(static_cast<size_t>(prefix)));
          PointSet none;
          EXPECT_FALSE(UnpackPoints(u, n + 8, &short_reader, &none));
          EXPECT_TRUE(none.empty());
          EXPECT_EQ(short_reader.bits_consumed(),
                    static_cast<size_t>(prefix));
        }
      }
    }
  }
}

TEST(PointKeyTest, SensitivityAndSeedDependence) {
  const Point a = {1, 2, 3};
  const Point b = {1, 2, 4};
  EXPECT_EQ(PointKey(a, 5), PointKey(a, 5));
  EXPECT_NE(PointKey(a, 5), PointKey(b, 5));
  EXPECT_NE(PointKey(a, 5), PointKey(a, 6));
  // Arity matters too.
  EXPECT_NE(PointKey({1, 2}, 5), PointKey({1, 2, 0}, 5));
}

TEST(PointLessTest, LexicographicOrder) {
  EXPECT_TRUE(PointLess({1, 2}, {1, 3}));
  EXPECT_TRUE(PointLess({1, 2}, {2, 0}));
  EXPECT_FALSE(PointLess({1, 2}, {1, 2}));
  EXPECT_FALSE(PointLess({2, 0}, {1, 9}));
}

TEST(PointToStringTest, Rendering) {
  EXPECT_EQ(PointToString({1, 2, 3}), "(1, 2, 3)");
  EXPECT_EQ(PointToString({-5}), "(-5)");
  EXPECT_EQ(PointToString({}), "()");
}

}  // namespace
}  // namespace rsr
