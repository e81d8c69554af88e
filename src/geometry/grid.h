// Randomly shifted hierarchical grid (the "quadtree" of the protocol).
//
// Both parties derive, from public coins, a shift vector s ∈ [0, 2^L)^d
// where L = ⌈log2 Δ⌉. The level-ℓ cell of a point x is
//   c_ℓ(x) = ⌊(x + s) / 2^ℓ⌋   (per coordinate),
// so cells nest exactly across levels (the level-(ℓ+1) cell id is the
// level-ℓ id shifted right by one). Level 0 separates every distinct point;
// level L+? puts everything into O(1) cells. The random shift is what makes
// the probability that two points at distance r are split by the level-ℓ
// grid proportional to r / 2^ℓ — the property the approximation analysis of
// the robust protocol rests on.

#ifndef RSR_GEOMETRY_GRID_H_
#define RSR_GEOMETRY_GRID_H_

#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "util/bitio.h"

namespace rsr {

/// Cell id: one integer per coordinate (level implied by context).
using Cell = std::vector<int64_t>;

/// The shifted hierarchy of grids over a Universe.
class ShiftedGrid {
 public:
  /// The shift and the cell-key hash seeds are deterministic in `seed`.
  ShiftedGrid(const Universe& universe, uint64_t seed);

  const Universe& universe() const { return universe_; }

  /// Number of usable levels: cells exist for level ∈ [0, max_level()].
  /// At max_level() the whole universe occupies at most 2^d cells.
  int max_level() const { return levels_; }

  /// The random shift vector (each coordinate in [0, 2^L)).
  const Point& shift() const { return shift_; }

  /// Side length of a level-ℓ cell (2^ℓ).
  int64_t CellSide(int level) const;

  /// Cell containing point `p` at `level`.
  Cell CellOf(const Point& p, int level) const;

  /// Parent cell at level+1 of a level-ℓ cell.
  Cell ParentCell(const Cell& cell) const;

  /// 64-bit key identifying (level, cell) — used as IBLT key.
  uint64_t CellKey(const Cell& cell, int level) const;

  /// Convenience: CellKey(CellOf(p, level), level).
  uint64_t CellKeyOf(const Point& p, int level) const;

  /// A representative point of the cell: its centre mapped back to the
  /// unshifted space and clamped into [0, Δ)^d. Every point of the cell is
  /// within one cell diameter of the representative.
  Point CellRepresentative(const Cell& cell, int level) const;

  /// Exact bit width of one cell coordinate at `level`.
  int CellCoordBits(int level) const;

  /// Exact bit width of a whole packed cell at `level`.
  int CellBits(int level) const { return CellCoordBits(level) * universe_.d; }

  /// Packs a cell's coordinates at fixed width CellCoordBits(level).
  void PackCell(const Cell& cell, int level, BitWriter* out) const;

  /// Reads a cell packed by PackCell. Returns false on underrun.
  bool UnpackCell(int level, BitReader* in, Cell* out) const;

 private:
  Universe universe_;
  int levels_;       // L = bits per coordinate
  Point shift_;      // d entries in [0, 2^L)
  uint64_t key_seed_;
};

/// A point set sorted once in Z-order of its shifted coordinates, so that
/// every level's cell histogram is a run-length scan of one order.
///
/// Points sharing a level-ℓ cell agree on every bit ≥ ℓ of every shifted
/// coordinate, i.e. on a prefix of their bit-interleaved (Morton) key, so
/// they are contiguous in Z-order at every level at once. The sort compares
/// two points through the coordinate whose XOR has the highest set bit
/// (Chan's xor-MSB trick), which orders by Morton key for any d without
/// building one. After the sort, neighbours i and i+1 share their level-ℓ
/// cell iff the OR of their coordinate XORs is below 2^ℓ, so a level's runs
/// cost one shift and one compare per point. The same order answers a
/// single cell's count by binary search, and absorbs a batch of mutations
/// by one merge, so a ladder can be kept current under churn.
class CellLadder {
 public:
  CellLadder(const ShiftedGrid& grid, const PointSet& points);

  /// Number of points (duplicates included).
  size_t size() const { return splits_.size(); }

  /// Number of points in the level-`level` cell `cell`: a dyadic cell's
  /// points are one run of the Z-order starting at the first point not
  /// below its least corner, so this is a binary search for the run's
  /// start and a gallop to its end, O(d (log n + log count)).
  int64_t CountInCell(const Cell& cell, int level) const;

  /// The ladder of this set after removing one copy of each of `erases`
  /// (every one must be present) and adding `inserts`: the sorted batch is
  /// merged into the order, O(n·d + b log b) for a batch of b, no re-sort.
  CellLadder Updated(const ShiftedGrid& grid, const PointSet& erases,
                     const PointSet& inserts) const;

  /// Calls fn(const Cell& cell, int64_t count) once per occupied
  /// level-`level` cell, in Z-order. The cell is a reused buffer, valid
  /// only during the call.
  template <typename Fn>
  void ForEachCell(int level, Fn&& fn) const {
    const size_t n = size();
    Cell cell(d_);
    size_t start = 0;
    for (size_t i = 0; i < n; ++i) {
      if ((splits_[i] >> level) == 0) continue;
      const uint64_t* first = coords_.data() + start * d_;
      for (size_t j = 0; j < d_; ++j) {
        cell[j] = static_cast<int64_t>(first[j] >> level);
      }
      fn(static_cast<const Cell&>(cell), static_cast<int64_t>(i + 1 - start));
      start = i + 1;
    }
  }

 private:
  explicit CellLadder(size_t d) : d_(d) {}
  /// Fills splits_ from coords_.
  void Split();

  size_t d_;
  std::vector<uint64_t> coords_;  // n × d shifted coordinates, Z-ordered
  /// splits_[i]: OR over j of coords(i)[j] ^ coords(i+1)[j]; the last
  /// entry is all ones, so every level closes its final run there.
  std::vector<uint64_t> splits_;
};

}  // namespace rsr

#endif  // RSR_GEOMETRY_GRID_H_
