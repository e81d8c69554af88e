#include "geometry/point.h"

#include <utility>

#include "hash/mix.h"
#include "util/check.h"

namespace rsr {

bool Universe::Contains(const Point& p) const {
  if (static_cast<int>(p.size()) != d) return false;
  for (int64_t c : p) {
    if (c < 0 || c >= delta) return false;
  }
  return true;
}

Universe MakeUniverse(int64_t delta, int d) {
  RSR_CHECK(delta >= 1);
  RSR_CHECK(d >= 1);
  Universe u;
  u.delta = delta;
  u.d = d;
  return u;
}

void PackPoint(const Universe& universe, const Point& p, BitWriter* out) {
  RSR_DCHECK(universe.Contains(p));
  const int bits = universe.BitsPerCoord();
  for (int64_t c : p) out->WriteBits(static_cast<uint64_t>(c), bits);
}

bool UnpackPoint(const Universe& universe, BitReader* in, Point* out) {
  const int bits = universe.BitsPerCoord();
  out->assign(static_cast<size_t>(universe.d), 0);
  for (int i = 0; i < universe.d; ++i) {
    uint64_t v = 0;
    if (!in->ReadBits(bits, &v)) return false;
    (*out)[static_cast<size_t>(i)] = static_cast<int64_t>(v);
  }
  return true;
}

void PackPointWords(const Universe& universe, const Point& p,
                    uint64_t* out) {
  RSR_DCHECK(universe.Contains(p));
  WordPacker packer(out);
  PutPoint(p, universe.BitsPerCoord(), &packer);
  packer.Flush();
}

void PackPoints(const Universe& universe, const PointSet& points,
                BitWriter* out) {
  const int bits = universe.BitsPerCoord();
  out->Pack(points.size() * static_cast<size_t>(universe.BitsPerPoint()),
            [&](WordPacker& packer) {
              for (const Point& p : points) {
                RSR_DCHECK(universe.Contains(p));
                PutPoint(p, bits, &packer);
              }
            });
}

bool UnpackPoints(const Universe& universe, size_t count, BitReader* in,
                  PointSet* out) {
  const size_t d = static_cast<size_t>(universe.d);
  const int bits = universe.BitsPerCoord();
  // Divided, not multiplied: a count off the wire cannot overflow.
  if (count > 0 && in->bits_remaining() / count / d <
                       static_cast<size_t>(bits)) {
    return false;
  }
  WordUnpacker coords = *in->Unpack(count * d * static_cast<size_t>(bits));
  for (size_t i = 0; i < count; ++i) {
    Point p(d);
    for (int64_t& c : p) c = static_cast<int64_t>(coords.Take(bits));
    out->push_back(std::move(p));
  }
  return true;
}

uint64_t PointKey(const Point& p, uint64_t seed) {
  uint64_t h = Hash64(p.size(), seed);
  for (int64_t c : p) h = HashCombine(h, static_cast<uint64_t>(c));
  return h;
}

bool PointLess(const Point& a, const Point& b) {
  return a < b;  // std::vector lexicographic compare
}

std::string PointToString(const Point& p) {
  std::string s = "(";
  for (size_t i = 0; i < p.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(p[i]);
  }
  s += ")";
  return s;
}

}  // namespace rsr
