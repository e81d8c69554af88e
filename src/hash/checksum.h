// Key checksums for invertible sketches.
//
// An IBLT cell is declared "pure" (decodable) when its count is ±1 *and*
// its checksum field matches the checksum of its key field. The checksum
// must therefore (a) be a deterministic function of the key that both
// parties compute identically, and (b) make accidental matches — a cell
// whose XOR of several keys happens to look pure — vanishingly unlikely.

#ifndef RSR_HASH_CHECKSUM_H_
#define RSR_HASH_CHECKSUM_H_

#include <cstdint>

#include "hash/mix.h"
#include "util/check.h"

namespace rsr {

/// Seeded key-checksum function used by IBLT / RIBLT cells.
class Checksum {
 public:
  explicit Checksum(uint64_t seed) : seed_(seed) {}

  /// Full 64-bit checksum of a key.
  uint64_t operator()(uint64_t key) const {
    // Double-mix with seed folding on both sides so that no single XOR of
    // mixed keys can reproduce the checksum structure.
    return Mix64(Mix64(key ^ seed_) + (seed_ | 1));
  }

  /// Checksum truncated to `bits` low bits (1 <= bits <= 64) — lets the
  /// transport trade failure probability for message size.
  uint64_t Truncated(uint64_t key, int bits) const {
    RSR_DCHECK(bits >= 1 && bits <= 64);
    const uint64_t full = (*this)(key);
    if (bits == 64) return full;
    return full & ((uint64_t{1} << bits) - 1);
  }

 private:
  uint64_t seed_;
};

}  // namespace rsr

#endif  // RSR_HASH_CHECKSUM_H_
