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
#include "util/check.h"

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

  /// The hash every level-`level` cell key starts from: CellKey folds the
  /// cell's coordinates into it with HashCombine. Callers keying many cells
  /// of one level hoist it.
  uint64_t LevelKeySeed(int level) const;

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
/// they are contiguous in Z-order at every level at once. When the key
/// fits a word — d · (L + 1) ≤ 64, L = max_level() — the sort builds it
/// and radix-sorts it, 8 bits a pass; otherwise it compares two points
/// through the coordinate whose XOR has the highest set bit (Chan's
/// xor-MSB trick), which orders by Morton key without building one. Both
/// give the same order: points with equal keys are equal. After the sort,
/// neighbours i and i+1 share their level-ℓ cell iff the OR of their
/// coordinate XORs is below 2^ℓ, so a level's runs cost one shift and one
/// compare per point. The same order locates a batch of mutations
/// (CellMoves) and absorbs it by one merge, so a ladder can be kept
/// current under churn.
class CellMoves;

class CellLadder {
 public:
  CellLadder(const ShiftedGrid& grid, const PointSet& points);

  /// Number of points (duplicates included).
  size_t size() const { return splits_.size(); }

  /// The ladder of this set after `moves` (which must have been sorted
  /// against this ladder): every run between two moved points is copied
  /// whole, so the cost is O(n·d) word copies plus the batch, no re-sort.
  CellLadder Updated(const CellMoves& moves) const;

  /// Calls fn(const Cell& cell, int64_t count) once per occupied
  /// level-`level` cell, in Z-order. The cell is a reused buffer, valid
  /// only during the call.
  template <typename Fn>
  void ForEachCell(int level, Fn&& fn) const {
    ForEachRun(d_, coords_, splits_, level,
               [&](const Cell& cell, size_t first, size_t end) {
                 fn(cell, static_cast<int64_t>(end - first));
               });
  }

 private:
  friend class CellMoves;

  explicit CellLadder(size_t d) : d_(d) {}

  /// Calls fn(cell, first, end) once per level-`level` run [first, end) of
  /// the Z-ordered `coords` (n × d) whose neighbour splits are `splits`.
  template <typename Fn>
  static void ForEachRun(size_t d, const std::vector<uint64_t>& coords,
                         const std::vector<uint64_t>& splits, int level,
                         Fn&& fn) {
    Cell cell(d);
    size_t start = 0;
    for (size_t i = 0; i < splits.size(); ++i) {
      if ((splits[i] >> level) == 0) continue;
      const uint64_t* first = coords.data() + start * d;
      for (size_t j = 0; j < d; ++j) {
        cell[j] = static_cast<int64_t>(first[j] >> level);
      }
      fn(static_cast<const Cell&>(cell), start, i + 1);
      start = i + 1;
    }
  }

  /// splits[i]: OR over j of coords(i)[j] ^ coords(i+1)[j]; the last entry
  /// is all ones, so every level closes its final run there.
  static std::vector<uint64_t> Splits(size_t d,
                                      const std::vector<uint64_t>& coords);

  size_t d_;
  std::vector<uint64_t> coords_;  // n × d shifted coordinates, Z-ordered
  std::vector<uint64_t> splits_;
};

/// One batch of point moves — erases count −1, inserts +1 — against a
/// ladder of the set before the batch, sorted once in the ladder's
/// Z-order, so that at every level the cells the batch touches are runs of
/// it, exactly as a ladder's cells are. Each moved point also records
/// where it falls in the base ladder, so a touched cell's count there is
/// the width of a run around that position: visiting levels finest first,
/// a cell's run is its first child cell's run widened by a gallop each
/// way, O(log growth) per level rather than a search from scratch.
class CellMoves {
 public:
  /// `base` must outlive the moves; every erase must be held by it.
  CellMoves(const ShiftedGrid& grid, const CellLadder& base,
            const PointSet& erases, const PointSet& inserts);

  /// Calls fn(const Cell& cell, int64_t before, int64_t net) once per
  /// level-`level` cell holding a moved point, in Z-order: `before` is the
  /// cell's count in the base ladder and `net` the batch's change to it
  /// (0 when its moves cancel). The cell is a reused buffer. Levels must
  /// be visited in increasing order.
  template <typename Fn>
  void ForEachCell(int level, Fn&& fn) {
    RSR_DCHECK(level >= last_level_);
    last_level_ = level;
    CellLadder::ForEachRun(
        d_, coords_, splits_, level,
        [&](const Cell& cell, size_t first, size_t end) {
          int64_t net = 0;
          for (size_t i = first; i < end; ++i) net += moves_[i];
          // `first` began a run at every finer level visited, so its
          // base run is that of its finest cell so far.
          Widen(cell, level, &run_lo_[first], &run_hi_[first]);
          fn(cell, static_cast<int64_t>(run_hi_[first] - run_lo_[first]),
             net);
        });
  }

 private:
  friend class CellLadder;

  /// Widens [*lo, *hi), a run of base points inside the level-`level` cell
  /// `cell`, to all of the cell's base points.
  void Widen(const Cell& cell, int level, size_t* lo, size_t* hi) const;

  const CellLadder* base_;
  size_t d_;
  std::vector<uint64_t> coords_;  // Z-ordered, as in CellLadder
  std::vector<uint64_t> splits_;
  std::vector<int8_t> moves_;      // −1 or +1 per point of coords_
  std::vector<size_t> positions_;  // first base point not Z-below each
  /// Per moved point: the base run of its cell at the last level visited
  /// (kept current only for points that begin a run).
  std::vector<size_t> run_lo_;
  std::vector<size_t> run_hi_;
  int last_level_ = 0;
};

}  // namespace rsr

#endif  // RSR_GEOMETRY_GRID_H_
