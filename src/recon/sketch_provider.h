// Seam between the Bob-side protocol sessions and a canonical sketch
// cache.
//
// Every serving sketch of the canonical party — the quadtree per-level
// histogram IBLTs, the adaptive variant's per-level strata probes, the
// exact baseline's strata estimator, the MLSH per-level RIBLTs and the
// one-shot exact-key RIBLT — is a *linear* function of the point multiset:
// Insert and Erase commute, so a sketch computed once can be kept current
// under churn and handed to any number of sessions. A provider is that
// hand-off: Reconciler::MakeBobSession (recon/protocol.h), the one Bob
// factory, takes an optional CanonicalSketchProvider; a session asks for
// the sketch it would otherwise build from its point set and, when the
// provider declines (nullptr provider, config mismatch, or nothing
// cached), builds it from the set exactly as before. The in-process
// driver never passes a provider.
//
// Contract:
//  * Every method takes the configuration the session derived from public
//    parameters and must return a sketch built with a matching
//    configuration over the canonical set the session was created with —
//    or nullopt. Returning a mismatched sketch is a correctness bug, which
//    is why implementations compare configs and decline on any difference
//    (server/sketch_store.h is the reference implementation).
//  * Returned sketches are private copies: the session may subtract into
//    them or hand them to Iblt/Riblt::Subtract freely. Cloning is a plain
//    copy of O(cells) words — set-size-independent, which is the whole
//    point (DESIGN.md §9).
//  * Providers must be safe for concurrent use from multiple sessions;
//    the server side satisfies this with immutable generation-stamped
//    snapshots.

#ifndef RSR_RECON_SKETCH_PROVIDER_H_
#define RSR_RECON_SKETCH_PROVIDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "iblt/iblt.h"
#include "iblt/strata.h"
#include "riblt/riblt.h"

namespace rsr {
namespace recon {

/// Occurrence-indexed (key, point) list of the exact baseline, sorted the
/// way recon::ExactKeyedPoints produces it.
using KeyedPointList = std::vector<std::pair<uint64_t, Point>>;

class CanonicalSketchProvider {
 public:
  virtual ~CanonicalSketchProvider() = default;

  /// Canonical level-`level` quadtree histogram IBLT, asked for by the
  /// one-shot quadtree at each level of its ladder — single-grid's one
  /// forced level included (recon::BuildLevelIblt is the from-scratch
  /// equivalent).
  virtual std::optional<Iblt> QuadtreeLevelIblt(const IbltConfig& config,
                                                int level) const {
    (void)config;
    (void)level;
    return std::nullopt;
  }

  /// Canonical level-`level` strata probe of the adaptive quadtree
  /// (recon::AdaptiveLevelProbeConfig fixes `config`).
  virtual std::optional<StrataEstimator> QuadtreeLevelProbe(
      const StrataConfig& config, int level) const {
    (void)config;
    (void)level;
    return std::nullopt;
  }

  /// Canonical strata estimator of the exact baseline's occurrence-indexed
  /// point keys.
  virtual std::optional<StrataEstimator> ExactStrata(
      const StrataConfig& config) const {
    (void)config;
    return std::nullopt;
  }

  /// Shared canonical keyed-point list of the exact baseline. Not a sketch
  /// — the exact protocol's difference-sized IBLT depends on the client and
  /// cannot be cached (DESIGN.md §9) — but caching the sorted keyed list
  /// saves the per-connection O(n log n) canonicalisation. `seed` is the
  /// public seed the keys were derived from.
  virtual std::shared_ptr<const KeyedPointList> ExactKeyedPoints(
      uint64_t seed) const {
    (void)seed;
    return nullptr;
  }

  /// Canonical RIBLT of MLSH ladder level `level_index` (lshrecon's
  /// prefix-doubling ladder). `config` is compared ignoring max_entries,
  /// which only fixes serialized field widths, never cell arithmetic.
  virtual std::optional<Riblt> MlshLevelRiblt(const RibltConfig& config,
                                              size_t level_index) const {
    (void)config;
    (void)level_index;
    return std::nullopt;
  }

  /// Canonical exact-key one-shot RIBLT (riblt-oneshot). `config` is the
  /// one the session derived from the *initiator's* set size; it is
  /// compared ignoring max_entries for the same reason as MlshLevelRiblt.
  virtual std::optional<Riblt> OneShotRiblt(const RibltConfig& config) const {
    (void)config;
    return std::nullopt;
  }
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_SKETCH_PROVIDER_H_
