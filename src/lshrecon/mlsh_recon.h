// LSH-based robust reconciliation (extension module).
//
// The LSH analogue of the quadtree protocol — the future-work direction of
// the SIGMOD 2014 paper (Algorithm 1 of the 2018 follow-up). Alice draws s
// MLSH functions from public coins; level i keys every point by a hash of
// the first prefix_i function values (prefixes double: 1, 2, 4, …, s).
// For each level she ships a Robust IBLT of (key, point) pairs. Bob
// subtracts his pairs and decodes the *finest* (longest-prefix) level that
// peels within budget. Decoded +1 entries approximate Alice's unmatched
// points (values may carry bounded propagated error — the RIBLT absorbs
// same-key collisions by averaging); decoded -1 entries identify Bob's own
// unmatched points, which he resolves against his set by nearest-neighbour
// matching and replaces with Alice's decoded points.
//
// Compared to the quadtree, the value payload here is a full point (not a
// cell id), but there is no per-coordinate log Δ blow-up in the *number* of
// levels: levels scale with log s, making this variant attractive for
// high-dimensional data (experiment E11).

#ifndef RSR_LSHRECON_MLSH_RECON_H_
#define RSR_LSHRECON_MLSH_RECON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/metric.h"
#include "lshrecon/lsh.h"
#include "recon/protocol.h"
#include "recon/sketch_provider.h"
#include "riblt/riblt.h"

namespace rsr {
namespace lshrecon {

/// Tunables of the MLSH protocol.
struct MlshParams {
  size_t k = 16;            ///< Outlier budget.
  int q = 3;                ///< RIBLT hash functions (robust analysis wants
                            ///< cells > q(q-1)·entries, hence small q).
  double cells_factor = 4.0;  ///< cells = factor · q² · k (paper: 4q²k).
  size_t num_functions = 0;   ///< s; 0 derives max(16, 4k).
  double width = 0.0;         ///< MLSH distance scale; 0 derives Δ/8.
  size_t decode_budget = 0;   ///< Max pairs accepted; 0 derives 4k + 8.
  int count_bits = 16;
  MlshKind family = MlshKind::kPStableL2;
  Metric metric = Metric::kL2;  ///< Used for Bob's local matching step.

  size_t DecodeBudget() const {
    // More generous than the quadtree's 4k+8: the RIBLT ships 4q²k cells
    // anyway, and accepting more pairs lets Bob decode at a finer prefix
    // level, which avoids averaging unrelated points in big buckets.
    return decode_budget > 0 ? decode_budget : 8 * k + 16;
  }
  size_t NumFunctions() const {
    if (num_functions > 0) return num_functions;
    const size_t derived = 4 * k;
    return derived < 16 ? 16 : derived;
  }
};

// Public derivations of the protocol's per-level sketch structure,
// exported so a canonical sketch store (server/sketch_store.h) can build
// and maintain exactly the RIBLTs a Bob session expects. All are pure
// functions of public parameters.

/// Prefix lengths of the level ladder: 1, 2, 4, …, s.
std::vector<size_t> MlshPrefixLadder(size_t s);

/// Per-point running hash chain over its LSH values; entry j is the RIBLT
/// key for prefix length j + 1.
std::vector<uint64_t> MlshKeyChain(const MlshFamily& family, const Point& p,
                                   uint64_t seed);

/// RIBLT configuration of ladder level `level_index` for a party of size n
/// (n only fixes the serialized sum-field widths via max_entries).
RibltConfig MlshLevelConfig(const Universe& universe, const MlshParams& params,
                            size_t n, size_t level_index, uint64_t seed);

/// The protocol's effective MLSH width (params.width, or Δ/8 when unset).
double MlshEffectiveWidth(const Universe& universe, const MlshParams& params);

class MlshReconciler : public recon::Reconciler {
 public:
  MlshReconciler(const recon::ProtocolContext& context,
                 const MlshParams& params)
      : context_(context), params_(params) {}

  bool RequiresEqualSizes() const override { return true; }

 private:
  std::unique_ptr<recon::PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<recon::PartySession> NewBobSession(
      const PointSet& points,
      const recon::CanonicalSketchProvider* sketches) const override;

  recon::ProtocolContext context_;
  MlshParams params_;
};

}  // namespace lshrecon
}  // namespace rsr

#endif  // RSR_LSHRECON_MLSH_RECON_H_
