#include "hash/family.h"

#include "hash/mix.h"
#include "util/check.h"
#include "util/random.h"

namespace rsr {

PairwiseHash::PairwiseHash(uint64_t seed) {
  uint64_t state = seed ^ 0x70616972ULL;  // "pair" tag
  const uint64_t a_lo = SplitMix64(&state);
  const uint64_t a_hi = SplitMix64(&state);
  const uint64_t b_lo = SplitMix64(&state);
  const uint64_t b_hi = SplitMix64(&state);
  a_ = (static_cast<__uint128_t>(a_hi) << 64) | (a_lo | 1);  // a odd
  b_ = (static_cast<__uint128_t>(b_hi) << 64) | b_lo;
}

namespace {
constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

// (a * b) mod (2^61 - 1) without overflow.
inline uint64_t MulMod61(uint64_t a, uint64_t b) {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  uint64_t lo = static_cast<uint64_t>(prod & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(prod >> 61);
  uint64_t sum = lo + hi;
  if (sum >= kMersenne61) sum -= kMersenne61;
  return sum;
}

inline uint64_t AddMod61(uint64_t a, uint64_t b) {
  uint64_t sum = a + b;
  if (sum >= kMersenne61) sum -= kMersenne61;
  return sum;
}
}  // namespace

PolynomialHash::PolynomialHash(uint64_t seed, int independence) {
  RSR_CHECK(independence >= 1);
  uint64_t state = seed ^ 0x706f6c79ULL;  // "poly" tag
  coeffs_.resize(static_cast<size_t>(independence));
  for (auto& c : coeffs_) c = SplitMix64(&state) % kMersenne61;
  // Ensure the hash is non-degenerate: leading coefficient nonzero when the
  // family has degree >= 1.
  if (coeffs_.size() > 1 && coeffs_.front() == 0) coeffs_.front() = 1;
}

uint64_t PolynomialHash::operator()(uint64_t x) const {
  // Map the key into the field first (Mix64 avoids structured inputs landing
  // on polynomial roots systematically; independence is preserved because
  // the mapping is a fixed bijection composed before the random polynomial).
  const uint64_t xf = Mix64(x) % kMersenne61;
  uint64_t acc = 0;
  for (uint64_t c : coeffs_) {
    acc = AddMod61(MulMod61(acc, xf), c);
  }
  return acc;
}

IndexHasher::IndexHasher(uint64_t seed, int q, size_t m) : q_(q), m_(m) {
  RSR_CHECK(q >= 1);
  RSR_CHECK(m > 0);
  RSR_CHECK_MSG(m % static_cast<size_t>(q) == 0,
                "table size must be divisible by q");
  per_ = m / static_cast<size_t>(q);
  hashes_.reserve(static_cast<size_t>(q));
  uint64_t state = seed ^ 0x6962746cULL;  // "ibtl" tag
  for (int j = 0; j < q; ++j) {
    hashes_.emplace_back(SplitMix64(&state));
  }
}

void IndexHasher::Cells(uint64_t key, std::vector<size_t>* out) const {
  out->resize(static_cast<size_t>(q_));
  for (int j = 0; j < q_; ++j) (*out)[static_cast<size_t>(j)] = Cell(key, j);
}

}  // namespace rsr
