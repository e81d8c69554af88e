#include "geometry/grid.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/metric.h"
#include "util/random.h"

namespace rsr {
namespace {

TEST(ShiftedGridTest, BasicsAndDeterminism) {
  const Universe u = MakeUniverse(1 << 10, 2);
  ShiftedGrid g1(u, 5), g2(u, 5), g3(u, 6);
  EXPECT_EQ(g1.max_level(), 10);
  EXPECT_EQ(g1.shift(), g2.shift());
  EXPECT_NE(g1.shift(), g3.shift());  // overwhelmingly likely
  for (auto s : g1.shift()) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, int64_t{1} << 10);
  }
}

TEST(ShiftedGridTest, CellSide) {
  const Universe u = MakeUniverse(256, 1);
  ShiftedGrid g(u, 1);
  EXPECT_EQ(g.CellSide(0), 1);
  EXPECT_EQ(g.CellSide(3), 8);
  EXPECT_EQ(g.CellSide(8), 256);
}

TEST(ShiftedGridTest, LevelZeroSeparatesPoints) {
  const Universe u = MakeUniverse(1 << 8, 2);
  ShiftedGrid g(u, 7);
  // At level 0 every distinct point has a distinct cell.
  EXPECT_NE(g.CellKeyOf({1, 2}, 0), g.CellKeyOf({1, 3}, 0));
  EXPECT_EQ(g.CellKeyOf({1, 2}, 0), g.CellKeyOf({1, 2}, 0));
}

TEST(ShiftedGridTest, CellsNestAcrossLevels) {
  const Universe u = MakeUniverse(1 << 12, 3);
  ShiftedGrid g(u, 11);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    Point p(3);
    for (auto& c : p) c = rng.Uniform(0, (1 << 12) - 1);
    for (int level = 0; level < g.max_level(); ++level) {
      const Cell fine = g.CellOf(p, level);
      const Cell coarse = g.CellOf(p, level + 1);
      EXPECT_EQ(g.ParentCell(fine), coarse);
    }
  }
}

TEST(ShiftedGridTest, CellSharingIsMonotoneAcrossLevels) {
  // Nesting implies: once two points share a cell at some level, they share
  // cells at every coarser level.
  const Universe u = MakeUniverse(1 << 16, 2);
  const Point a = {1000, 2000};
  const Point b = {1001, 2001};  // L1 distance 2
  for (uint64_t seed = 0; seed < 100; ++seed) {
    ShiftedGrid g(u, seed);
    bool shared = false;
    for (int level = 0; level <= g.max_level(); ++level) {
      const bool same = g.CellOf(a, level) == g.CellOf(b, level);
      if (shared) {
        EXPECT_TRUE(same);
      }
      shared |= same;
    }
  }
}

TEST(ShiftedGridTest, NearbyPointsAlmostAlwaysShareCoarseCells) {
  // Distance-2 points are split by a side-2^14 grid with probability
  // ~ 2 * 2/2^14 per axis pair; over 500 seeds expect nearly all shared.
  const Universe u = MakeUniverse(1 << 16, 2);
  const Point a = {1000, 2000};
  const Point b = {1001, 2001};
  int shared = 0;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    ShiftedGrid g(u, seed);
    if (g.CellOf(a, 14) == g.CellOf(b, 14)) ++shared;
  }
  EXPECT_GE(shared, 495);
}

TEST(ShiftedGridTest, CollisionProbabilityScalesWithDistance) {
  // The random-shift property: points at distance r are separated at level
  // ℓ with probability ≈ min(1, r / 2^ℓ) per axis. Measure over seeds.
  const Universe u = MakeUniverse(1 << 12, 1);
  const Point a = {1000};
  const Point b = {1000 + 64};  // r = 64
  const int level = 9;          // side 512; expected split prob = 64/512
  int split = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    ShiftedGrid g(u, static_cast<uint64_t>(t));
    if (g.CellOf(a, level) != g.CellOf(b, level)) ++split;
  }
  EXPECT_NEAR(static_cast<double>(split) / trials, 64.0 / 512.0, 0.02);
}

TEST(ShiftedGridTest, RepresentativeIsInUniverseAndClose) {
  const Universe u = MakeUniverse(1 << 10, 3);
  ShiftedGrid g(u, 17);
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    Point p(3);
    for (auto& c : p) c = rng.Uniform(0, (1 << 10) - 1);
    for (int level = 0; level <= g.max_level(); ++level) {
      const Cell cell = g.CellOf(p, level);
      const Point rep = g.CellRepresentative(cell, level);
      EXPECT_TRUE(u.Contains(rep));
      // The representative lies within one cell diameter of the point.
      const double bound =
          CellDiameter(u.d, static_cast<double>(g.CellSide(level)),
                       Metric::kLinf);
      EXPECT_LE(Distance(p, rep, Metric::kLinf), bound);
    }
  }
}

TEST(ShiftedGridTest, RepresentativeOfLevelZeroIsThePoint) {
  const Universe u = MakeUniverse(1 << 10, 2);
  ShiftedGrid g(u, 23);
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const Point p = {rng.Uniform(0, 1023), rng.Uniform(0, 1023)};
    EXPECT_EQ(g.CellRepresentative(g.CellOf(p, 0), 0), p);
  }
}

TEST(ShiftedGridTest, CellPackRoundTrip) {
  const Universe u = MakeUniverse(1 << 10, 2);
  ShiftedGrid g(u, 29);
  Rng rng(6);
  for (int level = 0; level <= g.max_level(); ++level) {
    BitWriter w;
    std::vector<Cell> cells;
    for (int i = 0; i < 30; ++i) {
      const Point p = {rng.Uniform(0, 1023), rng.Uniform(0, 1023)};
      Cell c = g.CellOf(p, level);
      g.PackCell(c, level, &w);
      cells.push_back(std::move(c));
    }
    EXPECT_EQ(w.bit_count(),
              cells.size() * static_cast<size_t>(g.CellBits(level)));
    BitReader r(w.bytes());
    for (const Cell& expected : cells) {
      Cell c;
      ASSERT_TRUE(g.UnpackCell(level, &r, &c));
      ASSERT_EQ(c, expected);
    }
  }
}

TEST(ShiftedGridTest, CellKeyDependsOnLevelAndCell) {
  const Universe u = MakeUniverse(1 << 8, 2);
  ShiftedGrid g(u, 31);
  const Cell c1 = {3, 4};
  const Cell c2 = {3, 5};
  EXPECT_NE(g.CellKey(c1, 2), g.CellKey(c2, 2));
  EXPECT_NE(g.CellKey(c1, 2), g.CellKey(c1, 3));
}

// Collects a ladder level as cell key -> (cell, count), checking that every
// cell is visited once.
std::map<uint64_t, std::pair<Cell, int64_t>> LadderLevel(
    const ShiftedGrid& g, const CellLadder& ladder, int level) {
  std::map<uint64_t, std::pair<Cell, int64_t>> cells;
  ladder.ForEachCell(level, [&](const Cell& cell, int64_t count) {
    EXPECT_GT(count, 0);
    EXPECT_TRUE(cells.emplace(g.CellKey(cell, level), std::pair{cell, count})
                    .second)
        << "cell visited twice at level " << level;
  });
  return cells;
}

TEST(CellLadderTest, CountsAndKeys) {
  const Universe u = MakeUniverse(1 << 8, 2);
  ShiftedGrid g(u, 37);
  const PointSet points = {{10, 10}, {200, 200}, {10, 11}, {10, 10}};
  const CellLadder ladder(g, points);
  EXPECT_EQ(ladder.size(), 4u);
  // Level 0: {10,10} twice, the others once each.
  const auto hist0 = LadderLevel(g, ladder, 0);
  ASSERT_EQ(hist0.size(), 3u);
  EXPECT_EQ(hist0.at(g.CellKeyOf({10, 10}, 0)).second, 2);
  EXPECT_EQ(hist0.at(g.CellKeyOf({10, 11}, 0)).second, 1);
  EXPECT_EQ(hist0.at(g.CellKeyOf({200, 200}, 0)).first,
            g.CellOf({200, 200}, 0));

  // Every level partitions the points into the cells CellOf assigns.
  for (int level = 0; level <= g.max_level(); ++level) {
    std::map<uint64_t, int64_t> expected;
    for (const Point& p : points) ++expected[g.CellKeyOf(p, level)];
    const auto hist = LadderLevel(g, ladder, level);
    ASSERT_EQ(hist.size(), expected.size()) << "level " << level;
    for (const auto& [key, cc] : hist) {
      EXPECT_EQ(cc.second, expected.at(key)) << "level " << level;
    }
  }
}

TEST(CellLadderTest, UpdatedLadderCountsLikeAFreshOne) {
  // d = 3 and a small universe, so cells hold many points and duplicates
  // are common; erases take copies of held points, some duplicated.
  const Universe u = MakeUniverse(1 << 5, 3);
  ShiftedGrid g(u, 43);
  Rng rng(44);
  const auto random_point = [&] {
    return Point{rng.Uniform(0, 31), rng.Uniform(0, 31), rng.Uniform(0, 31)};
  };
  PointSet points(300);
  for (Point& p : points) p = random_point();
  CellLadder ladder(g, points);
  for (int step = 0; step < 6; ++step) {
    PointSet erases, inserts;
    for (int i = 0; i < 25 && !points.empty(); ++i) {
      const size_t at = rng.Below(points.size());
      erases.push_back(points[at]);
      points.erase(points.begin() + static_cast<ptrdiff_t>(at));
    }
    for (int i = 0; i < 20 + step * 5; ++i) inserts.push_back(random_point());
    points.insert(points.end(), inserts.begin(), inserts.end());
    const CellLadder fresh(g, points);
    CellMoves moves(g, ladder, erases, inserts);
    for (int level = 0; level <= g.max_level(); ++level) {
      // Every touched cell's count before the batch, and after it.
      const auto before = LadderLevel(g, ladder, level);
      const auto after = LadderLevel(g, fresh, level);
      const auto count_in = [&](const auto& hist, const Cell& cell) {
        const auto it = hist.find(g.CellKey(cell, level));
        return it == hist.end() ? int64_t{0} : it->second.second;
      };
      std::set<uint64_t> touched;
      moves.ForEachCell(level, [&](const Cell& cell, int64_t was,
                                   int64_t net) {
        EXPECT_TRUE(touched.insert(g.CellKey(cell, level)).second);
        EXPECT_EQ(was, count_in(before, cell)) << "level " << level;
        EXPECT_EQ(was + net, count_in(after, cell)) << "level " << level;
      });
      // Every cell whose count changed was visited.
      for (const auto* hist : {&before, &after}) {
        for (const auto& [key, cc] : *hist) {
          if (count_in(before, cc.first) != count_in(after, cc.first)) {
            EXPECT_EQ(touched.count(key), 1u) << "level " << level;
          }
        }
      }
    }
    ladder = ladder.Updated(moves);
    ASSERT_EQ(ladder.size(), points.size());
    for (int level = 0; level <= g.max_level(); ++level) {
      EXPECT_EQ(LadderLevel(g, ladder, level), LadderLevel(g, fresh, level))
          << "level " << level;
    }
  }
}

// An independent Z-order: shifted coordinates compared bit by bit from the
// top, and at one bit position coordinate by coordinate — the Morton key,
// never built.
std::vector<std::vector<uint64_t>> ReferenceZOrder(const ShiftedGrid& g,
                                                   const PointSet& points) {
  std::vector<std::vector<uint64_t>> shifted;
  for (const Point& p : points) {
    std::vector<uint64_t>& c = shifted.emplace_back();
    for (size_t j = 0; j < p.size(); ++j) {
      c.push_back(static_cast<uint64_t>(p[j] + g.shift()[j]));
    }
  }
  std::stable_sort(shifted.begin(), shifted.end(),
                   [&](const auto& a, const auto& b) {
                     for (int bit = g.max_level(); bit >= 0; --bit) {
                       for (size_t j = 0; j < a.size(); ++j) {
                         const uint64_t x = (a[j] >> bit) & 1;
                         const uint64_t y = (b[j] >> bit) & 1;
                         if (x != y) return x < y;
                       }
                     }
                     return false;
                   });
  return shifted;
}

// The ladder's level-`level` cells in visiting order, with counts.
std::vector<std::pair<Cell, int64_t>> LadderSequence(const CellLadder& ladder,
                                                     int level) {
  std::vector<std::pair<Cell, int64_t>> cells;
  ladder.ForEachCell(level, [&](const Cell& cell, int64_t count) {
    cells.emplace_back(cell, count);
  });
  return cells;
}

// The same from the reference order: runs of equal cells.
std::vector<std::pair<Cell, int64_t>> ReferenceSequence(
    const std::vector<std::vector<uint64_t>>& sorted, int level) {
  std::vector<std::pair<Cell, int64_t>> cells;
  for (const std::vector<uint64_t>& c : sorted) {
    Cell cell;
    for (uint64_t x : c) cell.push_back(static_cast<int64_t>(x >> level));
    if (!cells.empty() && cells.back().first == cell) {
      ++cells.back().second;
    } else {
      cells.emplace_back(cell, 1);
    }
  }
  return cells;
}

// The ladder's sort — radix on Morton keys when d · (L + 1) fits 64 bits,
// by comparison when it does not — visits cells exactly in the reference
// Z-order, at every level.
TEST(CellLadderTest, SortsMatchAReferenceZOrder) {
  struct Shape {
    int d;
    int64_t delta;
  };
  std::vector<Shape> shapes = {
      {3, int64_t{1} << 20},  // d · (L + 1) = 63
      {4, int64_t{1} << 15},  // 64
      {2, int64_t{1} << 31},  // 64
      {5, int64_t{1} << 12},  // 65: comparison sort
  };
  for (int d = 1; d <= 5; ++d) {
    for (int64_t delta : {int64_t{1000}, int64_t{1} << 15, int64_t{1} << 20}) {
      shapes.push_back({d, delta});
    }
  }
  Rng rng(47);
  for (const Shape& shape : shapes) {
    const Universe u = MakeUniverse(shape.delta, shape.d);
    const ShiftedGrid g(u, 53);
    const auto random_point = [&] {
      Point p(static_cast<size_t>(shape.d));
      for (int64_t& c : p) {
        c = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(u.delta)));
      }
      return p;
    };
    std::vector<PointSet> sets = {{}, {random_point()}};
    sets.push_back(PointSet(40, random_point()));  // all equal
    for (size_t n : {size_t{50}, size_t{600}}) {
      PointSet distinct(n), repeats;
      for (Point& p : distinct) p = random_point();
      // Duplicates: draws from a pool a tenth the size.
      for (size_t i = 0; i < n; ++i) {
        repeats.push_back(distinct[rng.Below(n / 10)]);
      }
      sets.push_back(std::move(distinct));
      sets.push_back(std::move(repeats));
    }
    for (const PointSet& points : sets) {
      SCOPED_TRACE("d " + std::to_string(shape.d) + " delta " +
                   std::to_string(shape.delta) + " n " +
                   std::to_string(points.size()));
      const CellLadder ladder(g, points);
      const auto reference = ReferenceZOrder(g, points);
      for (int level = 0; level <= g.max_level(); ++level) {
        ASSERT_EQ(LadderSequence(ladder, level),
                  ReferenceSequence(reference, level))
            << "level " << level;
      }
    }
  }
}

TEST(CellLadderTest, EmptyInput) {
  const Universe u = MakeUniverse(16, 1);
  ShiftedGrid g(u, 41);
  const CellLadder ladder(g, {});
  EXPECT_EQ(ladder.size(), 0u);
  EXPECT_TRUE(LadderLevel(g, ladder, 2).empty());
}

TEST(ShiftedGridTest, DegenerateUniverseDeltaOne) {
  const Universe u = MakeUniverse(1, 2);
  ShiftedGrid g(u, 43);
  EXPECT_EQ(g.max_level(), 0);
  const Point p = {0, 0};
  EXPECT_EQ(g.CellRepresentative(g.CellOf(p, 0), 0), p);
}

}  // namespace
}  // namespace rsr
