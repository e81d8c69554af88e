// Seedable hash families with provable independence guarantees.
//
// * PairwiseHash — multiply-shift family, 2-independent over 64-bit keys,
//   used wherever the analysis only needs pairwise independence (LSH key
//   compression, strata assignment).
// * PolynomialHash — degree-(k-1) polynomial over GF(2^61 - 1),
//   k-independent, used when higher independence is wanted (IBLT cell
//   indexing).
// * IndexHasher — maps a key to q distinct cell indices of a partitioned
//   hash table (the IBLT convention: hash function j picks a cell inside
//   partition j, so the q cells are always distinct).

#ifndef RSR_HASH_FAMILY_H_
#define RSR_HASH_FAMILY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace rsr {

/// 2-independent multiply-shift hash: h(x) = hi64((a*x + b) mod 2^128).
class PairwiseHash {
 public:
  /// Draws (a, b) deterministically from `seed`.
  explicit PairwiseHash(uint64_t seed);

  /// Full 64-bit output.
  uint64_t operator()(uint64_t x) const {
    const __uint128_t v = a_ * static_cast<__uint128_t>(x) + b_;
    return static_cast<uint64_t>(v >> 64);
  }

  /// Output reduced to [0, range). Requires range > 0.
  uint64_t Bounded(uint64_t x, uint64_t range) const {
    RSR_DCHECK(range > 0);
    const __uint128_t scaled = static_cast<__uint128_t>((*this)(x)) *
                               static_cast<__uint128_t>(range);
    return static_cast<uint64_t>(scaled >> 64);
  }

 private:
  __uint128_t a_;
  __uint128_t b_;
};

/// k-independent polynomial hash over the Mersenne prime p = 2^61 - 1.
class PolynomialHash {
 public:
  /// `independence` is k (>= 1): the number of random coefficients.
  PolynomialHash(uint64_t seed, int independence);

  /// Output in [0, 2^61 - 1).
  uint64_t operator()(uint64_t x) const;

  int independence() const { return static_cast<int>(coeffs_.size()); }

 private:
  std::vector<uint64_t> coeffs_;  // degree k-1 .. 0
};

/// Maps keys to q distinct cells of an m-cell table partitioned into q
/// equal-size regions (the standard IBLT layout; m must be divisible by q).
class IndexHasher {
 public:
  IndexHasher(uint64_t seed, int q, size_t m);

  int q() const { return q_; }
  size_t m() const { return m_; }
  size_t cells_per_partition() const { return per_; }

  /// Returns the cell index for hash function j in [0, q).
  size_t Cell(uint64_t key, int j) const {
    RSR_DCHECK(j >= 0 && j < q_);
    const size_t index = static_cast<size_t>(j);
    return index * per_ +
           static_cast<size_t>(hashes_[index].Bounded(key, per_));
  }

  /// Fills out[0..q) with all q cell indices for `key`.
  void Cells(uint64_t key, std::vector<size_t>* out) const;

 private:
  int q_;
  size_t m_;
  size_t per_;
  std::vector<PairwiseHash> hashes_;
};

}  // namespace rsr

#endif  // RSR_HASH_FAMILY_H_
