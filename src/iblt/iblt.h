// Invertible Bloom Lookup Table (Goodrich & Mitzenmacher).
//
// An IBLT is a randomized sketch of a key→value multimap supporting Insert,
// Erase, Subtract (cell-wise difference of two sketches) and Decode (full
// recovery of the surviving entries by peeling "pure" cells). Its defining
// property for set reconciliation: if Alice inserts her set, Bob erases his,
// the surviving entries are exactly the symmetric difference — and the
// sketch size only needs to be proportional to the *difference*, not to the
// sets.
//
// Layout: m cells partitioned into q regions; each key maps to one cell per
// region (so its q cells are distinct). A cell holds
//   count      — signed number of entries hashed into it,
//   key_xor    — XOR of their keys,
//   check_xor  — XOR of their key checksums (truncated to checksum_bits),
//   value_xor  — XOR of their fixed-width value payloads.
// Values are stored cell-major, value_bytes() bytes per cell, and updated a
// 64-bit word at a time; the buffer carries a few zero bytes of padding past
// the last cell so that cell's final word stays in bounds. An update's word
// has zero bits beyond value_bits, so it never changes a neighbour's bytes
// or the padding, and the padding is never serialized.
// A cell is "pure" when count == ±1 and check_xor equals the checksum of
// key_xor; peeling pure cells until the table empties recovers everything
// with high probability once m exceeds ~1.3x the number of surviving
// entries (see sizing.h for the thresholds).
//
// Serialisation is bit-exact: a cell costs count_bits + 64 + checksum_bits +
// value_bits bits, which is what the transport layer reports as
// communication. Cells follow each other with no padding, fields in that
// order, LSB-first; Serialize packs them straight into the writer's buffer
// and Deserialize takes them from the reader's bytes (util/bitio.h's word
// codec).

#ifndef RSR_IBLT_IBLT_H_
#define RSR_IBLT_IBLT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "hash/checksum.h"
#include "hash/family.h"
#include "util/bitio.h"

namespace rsr {

/// Static configuration of an IBLT; both parties must agree on it exactly
/// (it is derived from public protocol parameters, never transmitted).
struct IbltConfig {
  size_t cells = 0;       ///< Requested m; rounded up to a multiple of q.
  int q = 4;              ///< Hash functions / partitions.
  int value_bits = 0;     ///< Fixed payload width in bits (0 = keys only).
  int checksum_bits = 32; ///< Truncated checksum width.
  int count_bits = 16;    ///< Serialized two's-complement count width.
  uint64_t seed = 0;      ///< Seeds index hashes and checksums.

  /// Cells after rounding up to a multiple of q.
  size_t RoundedCells() const;

  /// Serialized size in bits of one cell.
  size_t CellBits() const;

  /// Exact serialized size in bits of a table with this configuration.
  size_t SerializedBits() const;

  /// True when the table serializes to at most `bits` bits. Safe for a
  /// cell count off the wire: the raw count is checked before rounding, so
  /// RoundedCells() cannot overflow.
  bool FitsIn(size_t bits) const;
};

/// One recovered entry: `sign` is +1 if it survived from the inserted side,
/// -1 from the erased side.
struct IbltEntry {
  uint64_t key = 0;
  std::vector<uint8_t> value;  ///< ceil(value_bits / 8) bytes, zero-padded.
  int sign = 0;
};

/// Result of decoding: `success` is true iff the table peeled completely,
/// in which case `entries` is the full surviving multiset.
struct IbltDecodeResult {
  bool success = false;
  std::vector<IbltEntry> entries;
};

/// The table. Copyable; Subtract and Decode make this the reconciliation
/// primitive: decode(A.Subtract(B)) == (A \ B) ∪ (B \ A) w.h.p.
class Iblt {
 public:
  explicit Iblt(const IbltConfig& config);

  const IbltConfig& config() const { return config_; }
  size_t cells() const { return m_; }
  size_t value_bytes() const { return value_bytes_; }
  /// 64-bit words of one value: ceil(value_bits / 64).
  size_t value_words() const { return value_words_; }

  /// Adds an entry. `value` points at value_words() words holding the
  /// payload in BitWriter's LSB-first layout (little-endian words); bits
  /// beyond value_bits must be 0. Unread when value_bits == 0.
  void Insert(uint64_t key, const uint64_t* value) { Apply(key, value, +1); }

  /// Removes an entry (inverse of Insert; valid even if the entry was never
  /// inserted — the cell fields simply go negative, which is the mechanism
  /// reconciliation relies on).
  void Erase(uint64_t key, const uint64_t* value) { Apply(key, value, -1); }

  /// Byte-vector forms of Insert/Erase: `value` must have exactly
  /// value_bytes() bytes (empty when value_bits == 0). They widen the value
  /// into a temporary word buffer, so a per-entry loop packs words (e.g.
  /// PackPointWords, HistogramEntryCodec) and calls the pointer forms.
  void Insert(uint64_t key, const std::vector<uint8_t>& value);
  void Erase(uint64_t key, const std::vector<uint8_t>& value);

  /// Cell-wise this -= other. Configurations must match exactly.
  void Subtract(const Iblt& other);

  /// Attempts full recovery by peeling. Non-destructive.
  /// If `max_entries` > 0 decoding aborts (reporting failure) as soon as
  /// more than max_entries entries have been extracted — used by protocols
  /// that only accept small differences.
  IbltDecodeResult Decode(size_t max_entries = 0) const&;
  /// The same, peeling a table about to be discarded in place instead of
  /// a copy of it.
  IbltDecodeResult Decode(size_t max_entries = 0) &&;

  /// True if every cell is zero (e.g. after subtracting an equal table).
  bool IsEmpty() const;

  /// Bit-exact serialisation (config is not written; see IbltConfig).
  void Serialize(BitWriter* out) const;

  /// Reads a table serialized with the same config. nullopt on underrun,
  /// checked before anything is allocated: a table that cannot fit the
  /// bits left in `in` (e.g. a hostile wire cell count) is rejected.
  static std::optional<Iblt> Deserialize(const IbltConfig& config,
                                         BitReader* in);

 private:
  friend struct IbltTestPeer;  // a per-field reference codec

  void Apply(uint64_t key, const uint64_t* value, int direction);
  void ApplyBytes(uint64_t key, const std::vector<uint8_t>& value,
                  int direction);
  /// Copies cell `cell`'s value into value_words() words, zero-extended.
  void LoadValue(size_t cell, uint64_t* words) const;
  /// Bytes of values_ that belong to cells (the rest is padding).
  size_t value_span() const { return m_ * value_bytes_; }

  IbltConfig config_;
  size_t m_;
  size_t value_bytes_;
  size_t value_words_;
  IndexHasher indexer_;
  Checksum checksum_;
  std::vector<int64_t> counts_;
  std::vector<uint64_t> key_xor_;
  std::vector<uint64_t> check_xor_;
  // m_ * value_bytes_ cell-major bytes, then value_words_ * 8 -
  // value_bytes_ bytes of zero padding.
  std::vector<uint8_t> values_;
};

}  // namespace rsr

#endif  // RSR_IBLT_IBLT_H_
