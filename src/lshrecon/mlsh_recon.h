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
#include <memory>
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

// Public derivations of the protocol's per-level sketch structure: pure
// functions of public parameters, which MlshLadderSpec composes.

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

/// The MLSH ladder: one RIBLT of (key chain prefix, point) pairs per
/// prefix length 1, 2, 4, …, s. Keyed by the universe, the seed, the MLSH
/// family (kind, width, s) and the cell arithmetic (rounded cells, q,
/// count width); max_entries = 2n + 2 fixes the serialized sum-field
/// widths only, which are the width rule.
class MlshLadderSpec final : public recon::LinearSketch<std::vector<Riblt>> {
 public:
  MlshLadderSpec(const recon::ProtocolContext& context,
                 const MlshParams& params);

  uint64_t seed() const { return context_.seed; }
  const std::vector<size_t>& prefixes() const { return prefixes_; }
  /// Ladder level `level_index`'s table config for sets of size n.
  RibltConfig Config(size_t n, size_t level_index) const;
  /// A point's key chain (MlshKeyChain); its level-`level_index` key is
  /// chain[prefixes()[level_index] - 1].
  std::vector<uint64_t> Chain(const Point& p) const;

  Built Build(const PointSet& points) const override;
  bool Carries(size_t from, size_t to) const override;
  Sketch Advance(const Sketch& tables, recon::NoUpkeep* upkeep,
                 const recon::SketchBatch& batch) const override;

 private:
  /// Adds (direction +1) or removes (-1) p's pair at every level.
  void Apply(const Point& p, int direction, Sketch* tables) const;

  recon::ProtocolContext context_;
  MlshParams params_;
  std::vector<size_t> prefixes_;
  std::unique_ptr<MlshFamily> family_;
};

class MlshReconciler : public recon::Reconciler {
 public:
  MlshReconciler(const recon::ProtocolContext& context,
                 const MlshParams& params)
      : params_(params),
        spec_(std::make_shared<MlshLadderSpec>(context, params)) {}

  bool RequiresEqualSizes() const override { return true; }
  recon::SketchSpecList SketchSpecs() const override { return {spec_}; }

 private:
  std::unique_ptr<recon::PartySession> NewAliceSession(
      const PointSet& points) const override;
  std::unique_ptr<recon::PartySession> NewBobSession(
      const PointSet& points,
      const recon::CanonicalSketchProvider* sketches) const override;

  MlshParams params_;
  std::shared_ptr<const MlshLadderSpec> spec_;
};

}  // namespace lshrecon
}  // namespace rsr

#endif  // RSR_LSHRECON_MLSH_RECON_H_
