#include "geometry/grid.h"

#include <algorithm>
#include <numeric>

#include "hash/mix.h"
#include "util/check.h"
#include "util/random.h"

namespace rsr {

ShiftedGrid::ShiftedGrid(const Universe& universe, uint64_t seed)
    : universe_(universe), levels_(universe.BitsPerCoord()) {
  // delta == 1 gives a degenerate 0-level grid; still usable (single cell).
  Rng rng(seed ^ 0x67726964ULL);  // "grid" tag
  const uint64_t span = uint64_t{1} << levels_;
  shift_.resize(static_cast<size_t>(universe_.d));
  for (auto& s : shift_) {
    s = static_cast<int64_t>(levels_ == 0 ? 0 : rng.Below(span));
  }
  key_seed_ = Hash64(seed, 0x63656c6cULL);  // "cell" tag
}

int64_t ShiftedGrid::CellSide(int level) const {
  RSR_DCHECK(level >= 0 && level <= levels_);
  return int64_t{1} << level;
}

Cell ShiftedGrid::CellOf(const Point& p, int level) const {
  RSR_DCHECK(universe_.Contains(p));
  RSR_DCHECK(level >= 0 && level <= levels_);
  Cell cell(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    cell[i] = (p[i] + shift_[i]) >> level;
  }
  return cell;
}

Cell ShiftedGrid::ParentCell(const Cell& cell) const {
  Cell parent(cell.size());
  for (size_t i = 0; i < cell.size(); ++i) parent[i] = cell[i] >> 1;
  return parent;
}

uint64_t ShiftedGrid::CellKey(const Cell& cell, int level) const {
  uint64_t h = Hash64(static_cast<uint64_t>(level), key_seed_);
  for (int64_t c : cell) h = HashCombine(h, static_cast<uint64_t>(c));
  return h;
}

uint64_t ShiftedGrid::CellKeyOf(const Point& p, int level) const {
  // CellKey(CellOf(p, level), level) without materializing the cell.
  RSR_DCHECK(universe_.Contains(p));
  RSR_DCHECK(level >= 0 && level <= levels_);
  uint64_t h = Hash64(static_cast<uint64_t>(level), key_seed_);
  for (size_t i = 0; i < p.size(); ++i) {
    h = HashCombine(h, static_cast<uint64_t>((p[i] + shift_[i]) >> level));
  }
  return h;
}

Point ShiftedGrid::CellRepresentative(const Cell& cell, int level) const {
  RSR_DCHECK(static_cast<int>(cell.size()) == universe_.d);
  const int64_t side = CellSide(level);
  Point rep(cell.size());
  for (size_t i = 0; i < cell.size(); ++i) {
    // Centre of the cell in shifted space, mapped back and clamped.
    int64_t v = cell[i] * side + side / 2 - shift_[i];
    if (v < 0) v = 0;
    if (v >= universe_.delta) v = universe_.delta - 1;
    rep[i] = v;
  }
  return rep;
}

int ShiftedGrid::CellCoordBits(int level) const {
  RSR_DCHECK(level >= 0 && level <= levels_);
  // Shifted coordinates range over [0, 2^L + 2^L - 2]; after >> level the
  // maximum id is < 2^(L - level + 1), so L - level + 1 bits always suffice.
  return levels_ - level + 1;
}

void ShiftedGrid::PackCell(const Cell& cell, int level, BitWriter* out) const {
  const int bits = CellCoordBits(level);
  for (int64_t c : cell) {
    RSR_DCHECK(c >= 0);
    out->WriteBits(static_cast<uint64_t>(c), bits);
  }
}

bool ShiftedGrid::UnpackCell(int level, BitReader* in, Cell* out) const {
  const int bits = CellCoordBits(level);
  out->assign(static_cast<size_t>(universe_.d), 0);
  for (int i = 0; i < universe_.d; ++i) {
    uint64_t v = 0;
    if (!in->ReadBits(bits, &v)) return false;
    (*out)[static_cast<size_t>(i)] = static_cast<int64_t>(v);
  }
  return true;
}

namespace {

/// Z-order (Morton) comparison of two shifted coordinate vectors, through
/// the coordinate whose XOR has the highest set bit.
bool ZLess(size_t d, const uint64_t* a, const uint64_t* b) {
  size_t dim = 0;
  uint64_t top = 0;
  for (size_t j = 0; j < d; ++j) {
    const uint64_t x = a[j] ^ b[j];
    // msb(top) < msb(x): x's highest differing bit outranks top's.
    if (top < x && top < (top ^ x)) {
      top = x;
      dim = j;
    }
  }
  return a[dim] < b[dim];
}

/// `points` shifted onto the grid, n × d, in Z-order.
std::vector<uint64_t> ShiftedZOrder(const ShiftedGrid& grid,
                                    const PointSet& points) {
  const size_t n = points.size();
  const size_t d = static_cast<size_t>(grid.universe().d);
  RSR_CHECK(n <= UINT32_MAX);  // the sort permutes 32-bit indices
  const Point& shift = grid.shift();
  std::vector<uint64_t> shifted(n * d);
  for (size_t i = 0; i < n; ++i) {
    RSR_DCHECK(grid.universe().Contains(points[i]));
    for (size_t j = 0; j < d; ++j) {
      shifted[i * d + j] = static_cast<uint64_t>(points[i][j] + shift[j]);
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return ZLess(d, shifted.data() + size_t{a} * d,
                 shifted.data() + size_t{b} * d);
  });
  std::vector<uint64_t> sorted(n * d);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(shifted.data() + size_t{order[i]} * d, d,
                sorted.data() + i * d);
  }
  return sorted;
}

}  // namespace

CellLadder::CellLadder(const ShiftedGrid& grid, const PointSet& points)
    : d_(static_cast<size_t>(grid.universe().d)),
      coords_(ShiftedZOrder(grid, points)) {
  Split();
}

void CellLadder::Split() {
  const size_t n = coords_.size() / d_;
  splits_.resize(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    uint64_t split = 0;
    for (size_t j = 0; j < d_; ++j) {
      split |= coords_[i * d_ + j] ^ coords_[(i + 1) * d_ + j];
    }
    splits_[i] = split;
  }
  if (n > 0) splits_[n - 1] = ~uint64_t{0};
}

int64_t CellLadder::CountInCell(const Cell& cell, int level) const {
  RSR_DCHECK(cell.size() == d_);
  const size_t n = size();
  // The run starts at the first point not Z-below the cell's least corner.
  std::vector<uint64_t> least(d_);
  for (size_t j = 0; j < d_; ++j) {
    least[j] = static_cast<uint64_t>(cell[j]) << level;
  }
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ZLess(d_, coords_.data() + mid * d_, least.data())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t first = lo;
  const auto inside = [&](size_t i) {
    const uint64_t* p = coords_.data() + i * d_;
    for (size_t j = 0; j < d_; ++j) {
      if ((p[j] >> level) != static_cast<uint64_t>(cell[j])) return false;
    }
    return true;
  };
  // Gallop to the run's end: most cells a batch touches hold a point or
  // two, so this usually costs a probe or two, not a second search.
  lo = first;  // [first, lo) is inside the cell
  size_t probe = first;
  for (size_t step = 1; probe < n && inside(probe); step *= 2) {
    lo = probe + 1;
    probe += step;
  }
  hi = std::min(probe, n);  // the run ends in [lo, hi]
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (inside(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int64_t>(lo - first);
}

CellLadder CellLadder::Updated(const ShiftedGrid& grid, const PointSet& erases,
                               const PointSet& inserts) const {
  const std::vector<uint64_t> gone = ShiftedZOrder(grid, erases);
  const std::vector<uint64_t> added = ShiftedZOrder(grid, inserts);
  const size_t n = size();
  const size_t n_gone = erases.size();
  const size_t n_added = inserts.size();
  RSR_CHECK(n_gone <= n);
  CellLadder next(d_);
  next.coords_.reserve((n - n_gone + n_added) * d_);
  size_t i = 0;  // next held point
  size_t g = 0;  // next erased point
  size_t a = 0;  // next inserted point
  while (i < n || a < n_added) {
    const uint64_t* held = coords_.data() + i * d_;
    if (i < n && g < n_gone && std::equal(held, held + d_, &gone[g * d_])) {
      ++i;  // one erased copy
      ++g;
      continue;
    }
    const uint64_t* take = held;
    if (i == n || (a < n_added && ZLess(d_, &added[a * d_], held))) {
      take = &added[a++ * d_];
    } else {
      ++i;
    }
    next.coords_.insert(next.coords_.end(), take, take + d_);
  }
  RSR_CHECK_MSG(g == n_gone, "CellLadder::Updated: an erased point is absent");
  next.Split();
  return next;
}

}  // namespace rsr
