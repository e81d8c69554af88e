// Core 64-bit mixing primitives.
//
// These are the building blocks for every hash family in the library:
// finalizer-style bijective mixers (derived from SplitMix64 / MurmurHash3)
// plus seeded hashing of words and byte strings. They are *not*
// cryptographic; they are fast, well-distributed and deterministic across
// platforms, which is what the protocols need (public-coin hashing shared
// between Alice and Bob via a seed).

#ifndef RSR_HASH_MIX_H_
#define RSR_HASH_MIX_H_

#include <cstddef>
#include <cstdint>

namespace rsr {

// The word mixers are defined inline: every sketch insert runs several.

/// Bijective 64-bit finalizer (SplitMix64's output function).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Seeded hash of a single 64-bit word.
inline uint64_t Hash64(uint64_t x, uint64_t seed) {
  return Mix64(x + 0x9e3779b97f4a7c15ULL * (seed | 1));
}

/// Combines an accumulated hash with the next value (order sensitive).
inline uint64_t HashCombine(uint64_t h, uint64_t next) {
  // Boost-style combine upgraded to 64 bits with a full mix.
  h ^= Mix64(next) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Seeded hash of a byte string (64-bit, xxhash-like construction).
uint64_t HashBytes(const void* data, size_t size, uint64_t seed);

}  // namespace rsr

#endif  // RSR_HASH_MIX_H_
