// The core contribution: robust set reconciliation over a randomly shifted
// quadtree (SIGMOD 2014 construction).
//
// At every grid level ℓ the parties view their point sets as cell
// histograms {(cell, count)}. Alice sketches each level's histogram into an
// O(k)-cell IBLT (element key = hash of (cell, count), value = packed cell
// id + count, so Bob can reconstruct cells he has no points in). Bob
// subtracts his own histogram sketch and looks for the finest level ℓ* whose
// difference decodes within the budget; decoded entries tell him exactly
// which cells' occupancies differ and by how much. He repairs by deleting
// surplus points from over-full cells and inserting cell-centre
// representatives into under-full ones — each repaired point is within one
// level-ℓ* cell diameter of Alice's true point, which yields the O(d)·EMD_k
// approximation.
//
// Two variants share all of the machinery:
//  * QuadtreeReconciler    — one-shot, 1 round: ship every level's IBLT.
//  * AdaptiveQuadtreeReconciler — 3 messages: tiny per-level strata probes
//    first, then a single IBLT at the negotiated level (with doubling
//    retries on decode failure). Saves the log Δ factor of IBLT bytes.

#ifndef RSR_RECON_QUADTREE_RECON_H_
#define RSR_RECON_QUADTREE_RECON_H_

#include <optional>
#include <vector>

#include "geometry/grid.h"
#include "iblt/iblt.h"
#include "iblt/strata.h"
#include "recon/params.h"
#include "recon/protocol.h"
#include "recon/sketch_provider.h"

namespace rsr {
namespace recon {

/// One differing histogram entry recovered at a level: `sign` +1 means the
/// pair came from Alice's histogram, -1 from Bob's.
struct LevelDiffEntry {
  Cell cell;
  int64_t count = 0;
  int sign = 0;
};

/// IBLT key of a histogram pair. Includes the count so that equal-cell /
/// different-count pairs do not XOR-collide (see DESIGN.md §3.1).
uint64_t HistogramEntryKey(const ShiftedGrid& grid, const Cell& cell,
                           int level, int64_t count);

/// One level's histogram entry codec: the per-level constants of an
/// entry's key and value — the level's cell-key seed and the coordinate,
/// count and value widths — hoisted out of the per-entry loop, so keying
/// and packing an entry costs d + 1 hash combines and a few shifts and
/// allocates nothing. Every histogram sketch update goes through it.
class HistogramEntryCodec {
 public:
  /// The codec of level `level` for sets of size `n`.
  HistogramEntryCodec(const ShiftedGrid& grid, int level, size_t n);

  int value_bits() const { return value_bits_; }

  /// HistogramEntryKey(grid, cell, level, count).
  uint64_t Key(const Cell& cell, int64_t count) const;

  /// The entry's value — the packed cell id, then the count, in
  /// BitWriter's LSB-first layout — as the little-endian words
  /// Iblt::Insert takes. Written to the codec's own buffer, valid until the
  /// next call.
  const uint64_t* Pack(const Cell& cell, int64_t count);

  /// Adds / removes the entry (cell, count) to / from `iblt`, whose values
  /// must be value_bits() wide.
  void Insert(Iblt* iblt, const Cell& cell, int64_t count) {
    iblt->Insert(Key(cell, count), Pack(cell, count));
  }
  void Erase(Iblt* iblt, const Cell& cell, int64_t count) {
    iblt->Erase(Key(cell, count), Pack(cell, count));
  }

 private:
  uint64_t level_seed_;
  int coord_bits_;
  int count_bits_;
  int value_bits_;
  std::vector<uint64_t> words_;
};

/// Inverse of HistogramEntryCodec::Pack, read from the entry's value bytes
/// (+ key consistency check). Returns false on malformed payloads (e.g.
/// corrupted by an undetected IBLT error).
bool ParseHistogramEntry(const ShiftedGrid& grid, int level, size_t n,
                         const IbltEntry& entry, LevelDiffEntry* out);

/// The one histogram -> sketch loop. Every (cell, count) entry of the
/// level-`level` histogram of `ladder`'s points goes into `iblt` (through
/// HistogramEntryCodec) and into `probe` (the key). Null targets are
/// skipped.
void SketchLevelHistogram(const ShiftedGrid& grid, const CellLadder& ladder,
                          int level, size_t n, Iblt* iblt,
                          StrataEstimator* probe = nullptr);

/// Builds a party's level-ℓ histogram IBLT (one level; a party sketching
/// several levels sorts one CellLadder and calls SketchLevelHistogram).
Iblt BuildLevelIblt(const ShiftedGrid& grid, const PointSet& points,
                    int level, size_t n, const QuadtreeParams& params,
                    uint64_t seed);

/// Strata configuration of the adaptive variant's level-`level` probe
/// (LevelStrataConfig with the level folded into the seed). Exported so a
/// canonical sketch store can maintain the same probes the sessions expect
/// (server/sketch_store.h).
StrataConfig AdaptiveLevelProbeConfig(int level, uint64_t seed);

/// Builds a party's level-`level` probe: the level's histogram entry keys
/// inserted into a fresh estimator with AdaptiveLevelProbeConfig.
StrataEstimator BuildLevelProbe(const ShiftedGrid& grid,
                                const PointSet& points, int level,
                                uint64_t seed);

/// Bob's repair step: applies the decoded occupancy differences to his set,
/// as a RepairedSet over `bob` (which must outlive it). Preserves |bob|
/// exactly (the deltas sum to zero when |alice| == |bob|).
RepairedSet RepairBob(const ShiftedGrid& grid, const PointSet& bob,
                      int level, const std::vector<LevelDiffEntry>& diff);

/// Attempts to decode the difference of two level IBLTs (alice - bob) into
/// parsed entries, accepting at most `budget` entries. nullopt on failure.
/// Alice's table is consumed: the difference is peeled in it.
std::optional<std::vector<LevelDiffEntry>> TryDecodeLevelDiff(
    const ShiftedGrid& grid, int level, size_t n, Iblt alice_iblt,
    const Iblt& bob_iblt, size_t budget);

/// One-shot (single round) robust reconciliation.
///
/// Sessions: Alice sends every ladder level's IBLT in one "qt-levels"
/// message and is done; Bob scans for the finest decodable level, repairs,
/// and is done. 1 message, 1 round. With params.min_level ==
/// params.max_level the ladder is one forced level: the single-grid
/// ablation (E7).
class QuadtreeReconciler : public Reconciler {
 public:
  QuadtreeReconciler(const ProtocolContext& context,
                     const QuadtreeParams& params)
      : context_(context), params_(params) {}

  bool RequiresEqualSizes() const override { return true; }

 private:
  std::unique_ptr<PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> NewBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const override;

  ProtocolContext context_;
  QuadtreeParams params_;
};

/// Adaptive (strata-probe) robust reconciliation; at most `max_attempts`
/// doubling retries if the negotiated IBLT fails to decode.
///
/// Sessions: Alice opens with per-level strata probes ("qt-strata") and
/// then serves "qt-level-request" messages with "qt-level-iblt" responses;
/// Bob picks the finest level whose estimated difference fits his budget,
/// requests it, and doubles the request on decode failure. 3 messages /
/// 3 rounds on the first-attempt-success path, +2 per retry.
class AdaptiveQuadtreeReconciler : public Reconciler {
 public:
  AdaptiveQuadtreeReconciler(const ProtocolContext& context,
                             const QuadtreeParams& params,
                             size_t max_attempts = 3)
      : context_(context), params_(params), max_attempts_(max_attempts) {}

  bool RequiresEqualSizes() const override { return true; }

 private:
  std::unique_ptr<PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<PartySession> NewBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const override;

  ProtocolContext context_;
  QuadtreeParams params_;
  size_t max_attempts_;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_QUADTREE_RECON_H_
