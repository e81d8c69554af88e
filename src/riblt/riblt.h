// Robust Invertible Bloom Lookup Table (extension module).
//
// The RIBLT is the 2014 paper's future-work direction, formalised in the
// 2018 follow-up: an IBLT variant that tolerates *duplicate keys with
// different values* — exactly what happens when locality-sensitive keys
// collide for near-but-not-equal points. Differences from the plain IBLT:
//
//  1. Cells keep integer SUMS (not XORs) of keys, key checksums and
//     per-coordinate values, so c copies of one key are recognisable:
//     a cell is peelable when its key sum is divisible by its count C and
//     the checksum sum equals C · checksum(key_sum / C).
//  2. Peeling runs breadth-first (FIFO over cells), which is what bounds
//     error propagation to O(1) extra cells per residual error in the
//     sparse regime (cells > q(q-1) · entries).
//  3. Extracted values are the coordinate-wise average of the colliding
//     values, randomly rounded back into [0, Δ)^d (each extracted copy is
//     rounded independently).
//  4. Matched same-key pairs from the two parties cancel in the key/count/
//     checksum fields but may leave a VALUE residue in their cells; that
//     residue is silently absorbed into later extractions — the "error
//     propagation" the protocol's analysis bounds. Decode success is
//     therefore judged on counts/keys/checksums only.
//
// Wire layout (RibltConfig::SerializedBits() bits, cell after cell, no
// padding): per cell the count in count_bits, the key sum and the checksum
// sum in KeySumBits() each, then the d coordinate sums in CoordSumBits()
// each, every field two's complement, LSB-first. A sum field wider than 64
// bits is its low word, then its high bits. Serialize packs these fields
// straight into the writer's buffer and Deserialize takes them from the
// reader's bytes (util/bitio.h's word codec); neither allocates anything
// else the size of a table.

#ifndef RSR_RIBLT_RIBLT_H_
#define RSR_RIBLT_RIBLT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "geometry/point.h"
#include "hash/checksum.h"
#include "hash/family.h"
#include "util/bitio.h"
#include "util/random.h"

namespace rsr {

/// The most pairs a table's sums may be sized for (RibltConfig::max_entries).
/// Its key and checksum sums then fit 127 bits and its counts
/// kRibltMaxCountBits, so even a hostile table read off the wire keeps
/// headroom in the __int128 and int64 that hold them: erasing a set's pairs
/// into it and a decode within a budget (which bounds the counts peeled)
/// cannot overflow them. A peer's n that would size past this is refused.
inline constexpr size_t kRibltMaxEntries = (size_t{1} << 62) - 1;
inline constexpr int kRibltMaxCountBits = 62;

/// Static configuration; both parties must agree (derived from public
/// parameters).
struct RibltConfig {
  size_t cells = 0;       ///< Rounded up to a multiple of q. The robust
                          ///< analysis wants cells > q(q-1) · entries.
  int q = 3;              ///< Hash functions / partitions.
  Universe universe;      ///< Value domain [Δ]^d (fixes field widths).
  size_t max_entries = 0; ///< Upper bound on inserted+erased pairs, at
                          ///< most kRibltMaxEntries (fixes sum-field
                          ///< widths; overflow is the caller's
                          ///< responsibility to avoid).
  int count_bits = 16;    ///< At most kRibltMaxCountBits.
  uint64_t seed = 0;

  size_t RoundedCells() const;
  int KeySumBits() const;    ///< Width of the key / checksum sum fields.
  int CoordSumBits() const;  ///< Width of one value-coordinate sum field.
  size_t SerializedBits() const;
};

/// One extracted entry: `copies` identical keys collapsed into one record;
/// `values` holds one independently rounded point per copy.
struct RibltEntry {
  uint64_t key = 0;
  std::vector<Point> values;  ///< size == copies.
  int sign = 0;               ///< +1 inserted side, -1 erased side.
};

struct RibltDecodeResult {
  bool success = false;
  std::vector<RibltEntry> entries;
};

class Riblt {
 public:
  explicit Riblt(const RibltConfig& config);

  const RibltConfig& config() const { return config_; }
  size_t cells() const { return m_; }

  /// Adds / removes one (key, point) pair. The point must lie in the
  /// configured universe.
  void Insert(uint64_t key, const Point& value);
  void Erase(uint64_t key, const Point& value);

  /// Cell-wise this -= other (configs must match).
  void Subtract(const Riblt& other);

  /// Breadth-first robust peeling. `rng` drives the randomised rounding of
  /// averaged values. If max_entries > 0, aborts once more than that many
  /// pairs (counting copies) have been extracted; a table read off the wire
  /// is decoded with such a budget. Non-destructive.
  RibltDecodeResult Decode(Rng* rng, size_t max_entries = 0) const&;
  /// The same, peeling a table about to be discarded in place instead of
  /// a copy of it: the table is consumed.
  RibltDecodeResult Decode(Rng* rng, size_t max_entries = 0) &&;

  /// True when counts, key sums and checksum sums are all zero (value
  /// residue from matched noisy pairs is permitted).
  bool IsStructurallyEmpty() const;

  /// Appends the cells in the wire layout above.
  void Serialize(BitWriter* out) const;
  /// Reads a table serialized with the same config. nullopt, consuming
  /// nothing, when fewer than config.SerializedBits() bits remain: checked
  /// before anything is allocated.
  static std::optional<Riblt> Deserialize(const RibltConfig& config,
                                          BitReader* in);

 private:
  friend struct RibltTestPeer;  // a per-field reference codec


  void Apply(uint64_t key, const Point& value, int direction);
  void RemoveGroup(uint64_t key, int64_t count,
                   const std::vector<int64_t>& value_sum);

  RibltConfig config_;
  size_t m_;
  int d_;
  IndexHasher indexer_;
  Checksum checksum_;
  std::vector<int64_t> counts_;
  std::vector<__int128> key_sums_;
  std::vector<__int128> check_sums_;
  std::vector<int64_t> value_sums_;  // m_ * d_, cell-major
};

}  // namespace rsr

#endif  // RSR_RIBLT_RIBLT_H_
