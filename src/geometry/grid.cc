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
  return CellKey(CellOf(p, level), level);
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

CellLadder::CellLadder(const ShiftedGrid& grid, const PointSet& points)
    : d_(static_cast<size_t>(grid.universe().d)) {
  const size_t n = points.size();
  RSR_CHECK(n <= UINT32_MAX);  // the sort permutes 32-bit indices
  const Point& shift = grid.shift();
  std::vector<uint64_t> shifted(n * d_);
  for (size_t i = 0; i < n; ++i) {
    RSR_DCHECK(grid.universe().Contains(points[i]));
    for (size_t j = 0; j < d_; ++j) {
      shifted[i * d_ + j] = static_cast<uint64_t>(points[i][j] + shift[j]);
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  const size_t d = d_;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t* pa = shifted.data() + size_t{a} * d;
    const uint64_t* pb = shifted.data() + size_t{b} * d;
    size_t dim = 0;
    uint64_t top = 0;
    for (size_t j = 0; j < d; ++j) {
      const uint64_t x = pa[j] ^ pb[j];
      // msb(top) < msb(x): x's highest differing bit outranks top's.
      if (top < x && top < (top ^ x)) {
        top = x;
        dim = j;
      }
    }
    return pa[dim] < pb[dim];
  });
  coords_.resize(n * d_);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(shifted.data() + size_t{order[i]} * d_, d_,
                coords_.data() + i * d_);
  }
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

}  // namespace rsr
