#include "geometry/grid.h"

#include <algorithm>
#include <array>
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

uint64_t ShiftedGrid::LevelKeySeed(int level) const {
  return Hash64(static_cast<uint64_t>(level), key_seed_);
}

uint64_t ShiftedGrid::CellKey(const Cell& cell, int level) const {
  uint64_t h = LevelKeySeed(level);
  for (int64_t c : cell) h = HashCombine(h, static_cast<uint64_t>(c));
  return h;
}

uint64_t ShiftedGrid::CellKeyOf(const Point& p, int level) const {
  // CellKey(CellOf(p, level), level) without materializing the cell.
  RSR_DCHECK(universe_.Contains(p));
  RSR_DCHECK(level >= 0 && level <= levels_);
  uint64_t h = LevelKeySeed(level);
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
/// the coordinate whose XOR has the highest set bit; at equal highest bits
/// the lower coordinate index decides.
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

/// Appends `points` shifted onto the grid to `shifted` (point-major).
void AppendShifted(const ShiftedGrid& grid, const PointSet& points,
                   std::vector<uint64_t>* shifted) {
  const size_t d = static_cast<size_t>(grid.universe().d);
  const Point& shift = grid.shift();
  shifted->reserve(shifted->size() + points.size() * d);
  for (const Point& p : points) {
    RSR_DCHECK(grid.universe().Contains(p));
    for (size_t j = 0; j < d; ++j) {
      shifted->push_back(static_cast<uint64_t>(p[j] + shift[j]));
    }
  }
}

/// Morton keys of n shifted coordinate vectors of `bits` bits each (d ·
/// bits ≤ 64): bit b of coordinate j lands at b·d + (d − 1 − j), so a key
/// compares like ZLess — higher bits first, and at one bit position the
/// lower coordinate index first. Each coordinate byte is spread through a
/// 256-entry table.
std::vector<uint64_t> MortonKeys(size_t d, int bits,
                                 const std::vector<uint64_t>& shifted) {
  RSR_DCHECK(d * static_cast<size_t>(bits) <= 64);
  // spread[v]: bit b of v moved to bit b·d (bits past 63 dropped; a
  // coordinate never has them).
  uint64_t spread[256];
  spread[0] = 0;
  for (uint64_t v = 1; v < 256; ++v) {
    spread[v] = (d < 64 ? spread[v >> 1] << d : 0) | (v & 1);
  }
  const size_t bytes = (static_cast<size_t>(bits) + 7) / 8;
  const size_t n = d == 0 ? 0 : shifted.size() / d;
  std::vector<uint64_t> keys(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* c = shifted.data() + i * d;
    uint64_t key = 0;
    for (size_t j = 0; j < d; ++j) {
      for (size_t k = 0; k < bytes; ++k) {
        key |= spread[(c[j] >> (8 * k)) & 0xff] << (8 * k * d + (d - 1 - j));
      }
    }
    keys[i] = key;
  }
  return keys;
}

/// The permutation listing `keys` in ascending order: an LSD radix sort,
/// one stable counting pass per key byte that varies.
std::vector<uint32_t> RadixOrder(const std::vector<uint64_t>& keys) {
  const size_t n = keys.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::vector<std::array<uint32_t, 256>> counts(8);
  for (auto& c : counts) c.fill(0);
  for (uint64_t key : keys) {
    for (size_t b = 0; b < 8; ++b) ++counts[b][(key >> (8 * b)) & 0xff];
  }
  std::vector<uint32_t> next(n);
  for (size_t b = 0; b < 8; ++b) {
    std::array<uint32_t, 256>& count = counts[b];
    if (n == 0 || count[(keys[0] >> (8 * b)) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : count) {
      const uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (uint32_t i : order) next[count[(keys[i] >> (8 * b)) & 0xff]++] = i;
    order.swap(next);
  }
  return order;
}

/// Sorts the point-major `shifted` (n × d) into Z-order, and returns the
/// permutation applied: sorted point i was shifted point order[i].
std::vector<uint32_t> SortZOrder(const ShiftedGrid& grid,
                                 std::vector<uint64_t>* shifted) {
  const size_t d = static_cast<size_t>(grid.universe().d);
  const size_t n = shifted->size() / d;
  RSR_CHECK(n <= UINT32_MAX);  // the sorts permute 32-bit indices
  // Shifted coordinates are below 2^(L+1).
  const int bits = grid.max_level() + 1;
  std::vector<uint32_t> order;
  if (d * static_cast<size_t>(bits) <= 64) {
    order = RadixOrder(MortonKeys(d, bits, *shifted));
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), uint32_t{0});
    const uint64_t* data = shifted->data();
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return ZLess(d, data + size_t{a} * d, data + size_t{b} * d);
    });
  }
  std::vector<uint64_t> sorted(n * d);
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(shifted->data() + size_t{order[i]} * d, d,
                sorted.data() + i * d);
  }
  shifted->swap(sorted);
  return order;
}

/// `points` shifted onto the grid, n × d, in Z-order.
std::vector<uint64_t> ShiftedZOrder(const ShiftedGrid& grid,
                                    const PointSet& points) {
  std::vector<uint64_t> shifted;
  AppendShifted(grid, points, &shifted);
  SortZOrder(grid, &shifted);
  return shifted;
}

}  // namespace

CellLadder::CellLadder(const ShiftedGrid& grid, const PointSet& points)
    : d_(static_cast<size_t>(grid.universe().d)),
      coords_(ShiftedZOrder(grid, points)),
      splits_(Splits(d_, coords_)) {}

std::vector<uint64_t> CellLadder::Splits(size_t d,
                                         const std::vector<uint64_t>& coords) {
  const size_t n = coords.size() / d;
  std::vector<uint64_t> splits(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    uint64_t split = 0;
    for (size_t j = 0; j < d; ++j) {
      split |= coords[i * d + j] ^ coords[(i + 1) * d + j];
    }
    splits[i] = split;
  }
  if (n > 0) splits[n - 1] = ~uint64_t{0};
  return splits;
}

CellLadder CellLadder::Updated(const CellMoves& moves) const {
  RSR_CHECK(moves.base_ == this);
  CellLadder next(d_);
  next.coords_.reserve(coords_.size() + moves.coords_.size());
  const auto copy_base = [&](size_t from, size_t to) {
    next.coords_.insert(next.coords_.end(), coords_.begin() + from * d_,
                        coords_.begin() + to * d_);
  };
  size_t i = 0;  // next base point to copy
  for (size_t m = 0; m < moves.moves_.size(); ++m) {
    // Moves are Z-sorted and positions are their lower bounds, so the
    // base points before this move's position come first; erases of one
    // value take its copies in turn from there.
    const size_t to = std::max(i, moves.positions_[m]);
    copy_base(i, to);
    i = to;
    const uint64_t* p = moves.coords_.data() + m * d_;
    if (moves.moves_[m] > 0) {
      next.coords_.insert(next.coords_.end(), p, p + d_);
    } else {
      RSR_CHECK_MSG(i < size() && std::equal(p, p + d_, &coords_[i * d_]),
                    "CellLadder::Updated: an erased point is absent");
      ++i;
    }
  }
  copy_base(i, size());
  next.splits_ = Splits(d_, next.coords_);
  return next;
}

CellMoves::CellMoves(const ShiftedGrid& grid, const CellLadder& base,
                     const PointSet& erases, const PointSet& inserts)
    : base_(&base), d_(static_cast<size_t>(grid.universe().d)) {
  AppendShifted(grid, erases, &coords_);
  AppendShifted(grid, inserts, &coords_);
  const std::vector<uint32_t> order = SortZOrder(grid, &coords_);
  moves_.reserve(order.size());
  for (uint32_t from : order) moves_.push_back(from < erases.size() ? -1 : 1);
  splits_ = CellLadder::Splits(d_, coords_);
  // Lower bounds in the base order; the moves are sorted, so each search
  // starts where the previous one ended.
  const uint64_t* held = base.coords_.data();
  positions_.resize(order.size());
  size_t lo = 0;
  for (size_t m = 0; m < order.size(); ++m) {
    const uint64_t* p = coords_.data() + m * d_;
    size_t hi = base.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (ZLess(d_, held + mid * d_, p)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    positions_[m] = lo;
  }
  run_lo_ = positions_;
  run_hi_ = positions_;
}

void CellMoves::Widen(const Cell& cell, int level, size_t* lo,
                      size_t* hi) const {
  // A cell's base points are one run, and the moved point that seeded
  // [*lo, *hi) lies in the cell, so the run is found by galloping out
  // from the current bounds, then bisecting the last step.
  const size_t n = base_->size();
  const uint64_t* held = base_->coords_.data();
  const auto inside = [&](size_t i) {
    const uint64_t* p = held + i * d_;
    for (size_t j = 0; j < d_; ++j) {
      if ((p[j] >> level) != static_cast<uint64_t>(cell[j])) return false;
    }
    return true;
  };
  size_t first_in = *lo;  // [first_in, *lo) is inside
  size_t floor = 0;       // the run starts in [floor, first_in]
  for (size_t step = 1; first_in > 0; step *= 2) {
    const size_t probe = first_in > step ? first_in - step : 0;
    if (!inside(probe)) {
      floor = probe + 1;
      break;
    }
    first_in = probe;
  }
  while (floor < first_in) {
    const size_t mid = floor + (first_in - floor) / 2;
    if (inside(mid)) {
      first_in = mid;
    } else {
      floor = mid + 1;
    }
  }
  *lo = first_in;
  size_t end_in = *hi;  // [*hi, end_in) is inside
  size_t ceiling = n;   // the run ends in [end_in, ceiling]
  for (size_t step = 1; end_in < n; step *= 2) {
    const size_t probe = std::min(end_in + step - 1, n - 1);
    if (!inside(probe)) {
      ceiling = probe;
      break;
    }
    end_in = probe + 1;
  }
  while (end_in < ceiling) {
    const size_t mid = end_in + (ceiling - end_in) / 2;
    if (inside(mid)) {
      end_in = mid + 1;
    } else {
      ceiling = mid;
    }
  }
  *hi = end_in;
}

}  // namespace rsr
