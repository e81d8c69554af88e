#include "hash/mix.h"

#include <cstring>

namespace rsr {

namespace {
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
}  // namespace

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed + kPrime3 + size;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    h ^= Rotl(LoadU64(p + i) * kPrime1, 31) * kPrime2;
    h = Rotl(h, 27) * kPrime1 + kPrime3;
  }
  uint64_t tail = 0;
  int shift = 0;
  for (; i < size; ++i) {
    tail |= static_cast<uint64_t>(p[i]) << shift;
    shift += 8;
  }
  if (shift != 0) {
    h ^= Rotl(tail * kPrime1, 31) * kPrime2;
    h = Rotl(h, 27) * kPrime1 + kPrime3;
  }
  return Mix64(h);
}

}  // namespace rsr
