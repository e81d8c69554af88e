#include "geometry/point.h"

#include <algorithm>
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
  const int bits = universe.BitsPerCoord();
  WordPacker packer(out);
  for (int64_t c : p) packer.Put(static_cast<uint64_t>(c), bits);
  packer.Flush();
}

PointPacker::PointPacker(const Universe& universe, size_t count)
    : universe_(universe),
      bits_(universe.BitsPerCoord()),
      room_(count),
      words_((count * static_cast<size_t>(universe.BitsPerPoint()) + 63) /
             64),
      packer_(words_.data()) {}

void PointPacker::Add(const Point& p) {
  RSR_DCHECK(universe_.Contains(p));
  RSR_CHECK(added_ < room_);
  ++added_;
  for (int64_t c : p) packer_.Put(static_cast<uint64_t>(c), bits_);
}

void PointPacker::WriteTo(BitWriter* out) {
  packer_.Flush();
  out->WriteWords(words_.data(),
                  added_ * static_cast<size_t>(universe_.BitsPerPoint()));
}

void PackPoints(const Universe& universe, const PointSet& points,
                BitWriter* out) {
  PointPacker packer(universe, points.size());
  for (const Point& p : points) packer.Add(p);
  packer.WriteTo(out);
}

bool UnpackPoints(const Universe& universe, size_t count, BitReader* in,
                  PointSet* out) {
  const size_t d = static_cast<size_t>(universe.d);
  const int bits = universe.BitsPerCoord();
  if (count > 0 && in->bits_remaining() / count / d <
                       static_cast<size_t>(bits)) {
    return false;
  }
  size_t unread = count * d * static_cast<size_t>(bits);
  const uint64_t mask = bits == 0 ? 0 : (uint64_t{1} << bits) - 1;
  uint64_t word = 0;
  int held = 0;  // unconsumed bits of word, below `bits` between reads
  for (size_t i = 0; i < count; ++i) {
    Point p(d);
    for (int64_t& c : p) {
      uint64_t v = word;
      if (held < bits) {
        // Top up from the next (at most 64) bits of the stream.
        const int take = static_cast<int>(std::min<size_t>(unread, 64));
        uint64_t next = 0;
        in->ReadBits(take, &next);
        unread -= static_cast<size_t>(take);
        v |= next << held;
        word = next >> (bits - held);
        held += take - bits;
      } else {
        word >>= bits;
        held -= bits;
      }
      c = static_cast<int64_t>(v & mask);
    }
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
