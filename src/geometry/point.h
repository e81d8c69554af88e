// Points in the discretised universe [Δ]^d.
//
// A point is a d-vector of integer coordinates in [0, Δ). The Universe
// struct carries (Δ, d) plus the per-coordinate bit width, which determines
// the exact wire size of a packed point — the unit in which all
// communication results are reported.

#ifndef RSR_GEOMETRY_POINT_H_
#define RSR_GEOMETRY_POINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitio.h"

namespace rsr {

/// A point: d integer coordinates, each in [0, Δ).
using Point = std::vector<int64_t>;

/// A set (or multiset) of points.
using PointSet = std::vector<Point>;

/// The discretised metric-space domain [Δ]^d.
struct Universe {
  int64_t delta = 0;  ///< Coordinates range over [0, delta).
  int d = 0;          ///< Dimension.

  /// Bits needed to encode one coordinate exactly.
  int BitsPerCoord() const { return BitWidthForUniverse(static_cast<uint64_t>(delta)); }

  /// Bits needed to encode one full point.
  int BitsPerPoint() const { return BitsPerCoord() * d; }

  /// Smallest L with 2^L >= delta (the number of quadtree levels is L+1).
  int Levels() const { return BitsPerCoord(); }

  /// True if every coordinate of `p` lies in [0, delta) and p has arity d.
  bool Contains(const Point& p) const;
};

/// Makes a Universe, checking delta >= 1 and d >= 1.
Universe MakeUniverse(int64_t delta, int d);

/// Writes `p`'s coordinates, each in exactly universe.BitsPerCoord() bits.
void PackPoint(const Universe& universe, const Point& p, BitWriter* out);

/// Reads a point packed by PackPoint. Returns false on underrun.
bool UnpackPoint(const Universe& universe, BitReader* in, Point* out);

/// PackPoint's bits for `p` through `packer`: each coordinate in `bits`
/// (the universe's BitsPerCoord()) bits.
inline void PutPoint(const Point& p, int bits, WordPacker* packer) {
  for (int64_t c : p) packer->Put(static_cast<uint64_t>(c), bits);
}

/// PackPoint's bits for `p` as the little-endian words WordPacker lays
/// out, ceil(BitsPerPoint() / 64) of them at `out`: the value of an IBLT
/// entry that carries the point.
void PackPointWords(const Universe& universe, const Point& p, uint64_t* out);

/// PackPoint over a whole set, back to back: the same bits, packed a word
/// at a time straight into `out`.
void PackPoints(const Universe& universe, const PointSet& points,
                BitWriter* out);

/// Appends `count` points packed by PackPoint(s) to `out`, reading whole
/// words. Returns false, consuming nothing, when the reader holds fewer
/// than count points' bits.
bool UnpackPoints(const Universe& universe, size_t count, BitReader* in,
                  PointSet* out);

/// Seeded 64-bit hash of a point's exact coordinates.
uint64_t PointKey(const Point& p, uint64_t seed);

/// Lexicographic ordering (for canonical multiset representations in tests).
bool PointLess(const Point& a, const Point& b);

/// Human-readable "(x, y, …)" rendering for logs and examples.
std::string PointToString(const Point& p);

}  // namespace rsr

#endif  // RSR_GEOMETRY_POINT_H_
