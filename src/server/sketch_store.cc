#include "server/sketch_store.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "geometry/grid.h"
#include "lshrecon/lsh.h"
#include "lshrecon/mlsh_recon.h"
#include "recon/exact_recon.h"
#include "recon/params.h"
#include "recon/quadtree_recon.h"
#include "riblt/riblt_recon.h"
#include "util/check.h"

namespace rsr {
namespace server {

namespace {

bool SameIbltConfig(const IbltConfig& a, const IbltConfig& b) {
  return a.cells == b.cells && a.q == b.q && a.value_bits == b.value_bits &&
         a.checksum_bits == b.checksum_bits && a.count_bits == b.count_bits &&
         a.seed == b.seed;
}

bool SameStrataConfig(const StrataConfig& a, const StrataConfig& b) {
  return a.num_strata == b.num_strata &&
         a.cells_per_stratum == b.cells_per_stratum && a.q == b.q &&
         a.checksum_bits == b.checksum_bits && a.count_bits == b.count_bits &&
         a.seed == b.seed;
}

// max_entries deliberately ignored: it fixes serialized sum-field widths
// only, never cell arithmetic, and the session-side value legitimately
// tracks the *initiator's* set size (riblt-oneshot) while the store's
// tracks the canonical one. Subtract requires exactly the fields compared
// here.
bool CompatibleRibltConfig(const RibltConfig& a, const RibltConfig& b) {
  return a.RoundedCells() == b.RoundedCells() && a.q == b.q &&
         a.count_bits == b.count_bits && a.seed == b.seed &&
         a.universe.d == b.universe.d && a.universe.delta == b.universe.delta;
}

// The serialized sum-field widths the two configs would put on the wire.
// RIBLT configs derive max_entries from |S| (2n + 2 in riblt-oneshot and
// the MLSH ladder), so a batch can change KeySumBits/CoordSumBits without
// touching the histogram width — those boundaries sit one point below each
// HistogramCountBits power of two. A carried table serialized under the
// old widths would no longer be bit-identical to a fresh build.
bool SameRibltWidths(const RibltConfig& a, const RibltConfig& b) {
  return a.KeySumBits() == b.KeySumBits() &&
         a.CoordSumBits() == b.CoordSumBits();
}

/// Observes elapsed wall time into a histogram at scope exit; inert when
/// the histogram is null (probe disabled).
class ScopedTimer {
 public:
  explicit ScopedTimer(obs::Histogram* histogram)
      : histogram_(histogram),
        start_(histogram != nullptr
                   ? std::chrono::steady_clock::now()
                   : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    histogram_->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
  }

 private:
  obs::Histogram* const histogram_;
  const std::chrono::steady_clock::time_point start_;
};

/// Multiset view of the canonical set (sorted by PointLess, which is the
/// map's default order, with per-point multiplicity): drives the
/// occurrence-indexed exact keys and the keyed-list re-derivation.
using PointCounts = std::map<Point, int64_t>;

/// The multiset view of a keyed list (which is sorted by point).
PointCounts CountKeyedPoints(const recon::KeyedPointList& keyed) {
  PointCounts counts;
  for (const auto& [key, point] : keyed) {
    (void)key;
    if (!counts.empty() && std::prev(counts.end())->first == point) {
      ++std::prev(counts.end())->second;
    } else {
      counts.emplace_hint(counts.end(), point, 1);
    }
  }
  return counts;
}

/// Moves p's multiplicity by `direction` and returns the occurrence index
/// of the copy that moved: its multiplicity before an insert, after an
/// erase.
size_t StepPointCount(PointCounts* counts, const Point& p, int direction) {
  const auto it = counts->find(p);
  const int64_t copies = it == counts->end() ? 0 : it->second;
  if (direction > 0) {
    if (it == counts->end()) {
      counts->emplace(p, 1);
    } else {
      ++it->second;
    }
    return static_cast<size_t>(copies);
  }
  RSR_CHECK(copies > 0);
  if (copies == 1) {
    counts->erase(it);
  } else {
    --it->second;
  }
  return static_cast<size_t>(copies - 1);
}

// ------------------------------------------------------------------- Shape

// The cached quadtree levels: the one-shot ladder plus single-grid's
// forced level (single-grid is the one-shot quadtree held to that level,
// so one table serves both).
std::vector<int> CachedLevels(const ShiftedGrid& grid,
                              const recon::ProtocolParams& params) {
  std::vector<int> levels = recon::ProtocolLevels(grid, params.quadtree);
  if (params.single_grid_level >= 0 &&
      params.single_grid_level <= grid.max_level() &&
      std::find(levels.begin(), levels.end(), params.single_grid_level) ==
          levels.end()) {
    levels.push_back(params.single_grid_level);
    std::sort(levels.begin(), levels.end());
  }
  return levels;
}

}  // namespace

struct SketchShape {
  explicit SketchShape(const SketchStoreOptions& options)
      : context(options.context),
        params(options.params.Resolved()),
        metrics(options.metrics),
        grid(context.universe, context.seed),
        levels(CachedLevels(grid, params)),
        mlsh_prefixes(lshrecon::MlshPrefixLadder(params.mlsh.NumFunctions())),
        mlsh_family(lshrecon::MakeMlshFamily(
            params.mlsh.family, context.universe,
            lshrecon::MlshEffectiveWidth(context.universe, params.mlsh),
            params.mlsh.NumFunctions(), context.seed)) {}

  /// Index of `level` in `levels`, or levels.size() when not cached.
  size_t LevelIndex(int level) const {
    return static_cast<size_t>(
        std::find(levels.begin(), levels.end(), level) - levels.begin());
  }

  /// Makes `snap` the published generation and sets the gauges from it;
  /// `live[f]` says whether family f was carried into it.
  void Publish(const SketchSnapshot* snap,
               const std::array<bool, kSketchFamilyCount>& live) const
      RSR_EXCLUDES(live_mu) {
    MutexLock lock(live_mu);
    published = snap;
    for (size_t f = 0; f < kSketchFamilyCount; ++f) {
      if (metrics.family_live[f] != nullptr) {
        metrics.family_live[f]->Set(live[f] ? 1 : 0);
      }
    }
    if (metrics.generation != nullptr) {
      metrics.generation->Set(static_cast<int64_t>(snap->generation()));
    }
    if (metrics.points != nullptr) {
      metrics.points->Set(static_cast<int64_t>(snap->size()));
    }
  }

  /// Counts a lazy build of `family` in `snap`, and marks the family live
  /// when `snap` is the published generation. After Retire() (the store,
  /// and with it the instruments' owner, may be gone) this does nothing.
  void OnMaterialized(const SketchSnapshot* snap, SketchFamily family) const
      RSR_EXCLUDES(live_mu) {
    const size_t f = static_cast<size_t>(family);
    MutexLock lock(live_mu);
    if (retired) return;
    if (metrics.materializations[f] != nullptr) {
      metrics.materializations[f]->Inc();
    }
    if (published == snap && metrics.family_live[f] != nullptr) {
      metrics.family_live[f]->Set(1);
    }
  }

  void Retire() const RSR_EXCLUDES(live_mu) {
    MutexLock lock(live_mu);
    retired = true;
    published = nullptr;
  }

  const recon::ProtocolContext context;
  const recon::ProtocolParams params;  // Resolved()
  const SketchStoreMetrics metrics;
  const ShiftedGrid grid;
  const std::vector<int> levels;
  const std::vector<size_t> mlsh_prefixes;
  const std::unique_ptr<lshrecon::MlshFamily> mlsh_family;

  /// Leaf lock: orders Publish against OnMaterialized so the live gauges
  /// always describe the published generation. Nests inside the store's
  /// snapshot mutex; never held while taking another rsr mutex.
  mutable Mutex live_mu;
  /// Compared, never dereferenced.
  mutable const SketchSnapshot* published RSR_GUARDED_BY(live_mu) = nullptr;
  mutable bool retired RSR_GUARDED_BY(live_mu) = false;
};

// ---------------------------------------------------------------- families
//
// Each family is a Sketch (what sessions are served, immutable once
// published), an Upkeep (what the writer needs to advance it), and three
// operations: Build both from a point set, whether a batch from n to n'
// points Carries the family (its widths unchanged), and Advance it across
// a batch.

/// One ApplyUpdate batch as the families see it: the erases that found a
/// point, the inserts, and the new set size.
struct SketchBatch {
  const PointSet& erases;
  const PointSet& inserts;
  size_t n;
};

namespace {

using Shape = SketchShape;
using Batch = SketchBatch;

/// Applies `fn(point, direction)` to every mutation of `batch`, erases
/// first.
template <typename Fn>
void ForEachMutation(const Batch& batch, Fn&& fn) {
  for (const Point& p : batch.erases) fn(p, -1);
  for (const Point& p : batch.inserts) fn(p, +1);
}

/// Advances `ladder` across the batch, first calling fn(level_index, cell,
/// before, after) once per cell whose point count the batch changes, at
/// every cached level: `before` is its count in the ladder before the
/// batch, `after` that plus the batch's net change. Updating a histogram
/// sketch is then erase (cell, before), insert (cell, after). The batch is
/// sorted once, in the ladder's Z-order, so every level's changed cells
/// are runs of it; the order cells are visited in does not matter, as
/// sketch updates commute.
template <typename Fn>
void AdvanceLadder(const Shape& shape, const Batch& batch, CellLadder* ladder,
                   Fn&& fn) {
  CellMoves moves(shape.grid, *ladder, batch.erases, batch.inserts);
  for (size_t li = 0; li < shape.levels.size(); ++li) {
    moves.ForEachCell(shape.levels[li], [&](const Cell& cell, int64_t before,
                                            int64_t net) {
      if (net != 0) fn(li, cell, before, before + net);
    });
  }
  *ladder = ladder->Updated(moves);
}

/// One histogram entry codec per cached level, for sets of size n.
std::vector<recon::HistogramEntryCodec> LevelCodecs(const Shape& shape,
                                                    size_t n) {
  std::vector<recon::HistogramEntryCodec> codecs;
  codecs.reserve(shape.levels.size());
  for (const int level : shape.levels) {
    codecs.emplace_back(shape.grid, level, n);
  }
  return codecs;
}

/// Quadtree level histogram IBLTs, one per cached level. The upkeep is the
/// set's CellLadder, which gives any cell's count.
struct QuadtreeIbltFamily {
  static constexpr SketchFamily kId = SketchFamily::kQuadtreeIblt;
  using Sketch = std::vector<Iblt>;
  using Upkeep = CellLadder;

  static Sketch Build(const Shape& shape, const PointSet& points,
                      std::shared_ptr<Upkeep>* upkeep) {
    const size_t n = points.size();
    auto ladder = std::make_shared<CellLadder>(shape.grid, points);
    Sketch tables;
    tables.reserve(shape.levels.size());
    for (const int level : shape.levels) {
      Iblt& table = tables.emplace_back(recon::LevelIbltConfig(
          shape.grid, level, n, shape.params.quadtree, shape.context.seed));
      recon::SketchLevelHistogram(shape.grid, *ladder, level, n, &table);
    }
    *upkeep = std::move(ladder);
    return tables;
  }

  static bool Carries(const Shape&, size_t from, size_t to) {
    return recon::HistogramCountBits(from) == recon::HistogramCountBits(to);
  }

  static Sketch Advance(const Shape& shape, const Sketch& old,
                        const Batch& batch, Upkeep* ladder) {
    Sketch tables = old;
    std::vector<recon::HistogramEntryCodec> codecs =
        LevelCodecs(shape, batch.n);
    AdvanceLadder(shape, batch, ladder,
                  [&](size_t li, const Cell& cell, int64_t old_count,
                      int64_t new_count) {
                    if (old_count > 0) {
                      codecs[li].Erase(&tables[li], cell, old_count);
                    }
                    if (new_count > 0) {
                      codecs[li].Insert(&tables[li], cell, new_count);
                    }
                  });
    return tables;
  }
};

/// The adaptive quadtree's per-level strata probes (histogram entry keys).
struct QuadtreeProbeFamily {
  static constexpr SketchFamily kId = SketchFamily::kQuadtreeProbe;
  using Sketch = std::vector<StrataEstimator>;
  using Upkeep = CellLadder;

  static Sketch Build(const Shape& shape, const PointSet& points,
                      std::shared_ptr<Upkeep>* upkeep) {
    auto ladder = std::make_shared<CellLadder>(shape.grid, points);
    Sketch probes;
    probes.reserve(shape.levels.size());
    for (const int level : shape.levels) {
      StrataEstimator& probe = probes.emplace_back(
          recon::AdaptiveLevelProbeConfig(level, shape.context.seed));
      recon::SketchLevelHistogram(shape.grid, *ladder, level, points.size(),
                                  nullptr, &probe);
    }
    *upkeep = std::move(ladder);
    return probes;
  }

  /// Probe keys carry no value field, so no width depends on |S|.
  static bool Carries(const Shape&, size_t, size_t) { return true; }

  static Sketch Advance(const Shape& shape, const Sketch& old,
                        const Batch& batch, Upkeep* ladder) {
    Sketch probes = old;
    const std::vector<recon::HistogramEntryCodec> codecs =
        LevelCodecs(shape, batch.n);
    AdvanceLadder(
        shape, batch, ladder,
        [&](size_t li, const Cell& cell, int64_t old_count,
            int64_t new_count) {
          if (old_count > 0) probes[li].Erase(codecs[li].Key(cell, old_count));
          if (new_count > 0) probes[li].Insert(codecs[li].Key(cell, new_count));
        });
    return probes;
  }
};

/// The exact baseline's strata estimator over occurrence-indexed keys.
struct ExactStrataFamily {
  static constexpr SketchFamily kId = SketchFamily::kExactStrata;
  using Sketch = StrataEstimator;
  using Upkeep = PointCounts;

  static Sketch Build(const Shape& shape, const PointSet& points,
                      std::shared_ptr<Upkeep>* counts) {
    const recon::KeyedPointList keyed =
        recon::ExactKeyedPoints(points, shape.context.seed);
    Sketch estimator(recon::ExactReconStrataConfig(shape.context.seed));
    for (const auto& [key, point] : keyed) {
      (void)point;
      estimator.Insert(key);
    }
    *counts = std::make_shared<Upkeep>(CountKeyedPoints(keyed));
    return estimator;
  }

  static bool Carries(const Shape&, size_t, size_t) { return true; }

  // The occurrence index of a mutated copy is its multiplicity before
  // (insert) / after (erase) the update.
  static Sketch Advance(const Shape& shape, const Sketch& old,
                        const Batch& batch, Upkeep* counts) {
    Sketch estimator = old;
    ForEachMutation(batch, [&](const Point& p, int direction) {
      const uint64_t key = recon::ExactOccurrenceKey(
          p, StepPointCount(counts, p, direction), shape.context.seed);
      if (direction > 0) {
        estimator.Insert(key);
      } else {
        estimator.Erase(key);
      }
    });
    return estimator;
  }
};

/// The exact baseline's sorted, occurrence-indexed keyed point list.
struct ExactKeyedFamily {
  static constexpr SketchFamily kId = SketchFamily::kExactKeyed;
  using Sketch = recon::KeyedPointList;
  using Upkeep = PointCounts;

  static Sketch Build(const Shape& shape, const PointSet& points,
                      std::shared_ptr<Upkeep>* counts) {
    Sketch keyed = recon::ExactKeyedPoints(points, shape.context.seed);
    *counts = std::make_shared<Upkeep>(CountKeyedPoints(keyed));
    return keyed;
  }

  static bool Carries(const Shape&, size_t, size_t) { return true; }

  // The list is positional, so it is re-derived from the multiset view
  // rather than patched: no sorting, but O(n) — every point is copied and
  // re-hashed (ExactOccurrenceKey calls PointKey).
  static Sketch Advance(const Shape& shape, const Sketch&, const Batch& batch,
                        Upkeep* counts) {
    ForEachMutation(batch, [&](const Point& p, int direction) {
      StepPointCount(counts, p, direction);
    });
    Sketch keyed;
    keyed.reserve(batch.n);
    for (const auto& [point, copies] : *counts) {
      for (int64_t occ = 0; occ < copies; ++occ) {
        keyed.emplace_back(recon::ExactOccurrenceKey(
                               point, static_cast<size_t>(occ),
                               shape.context.seed),
                           point);
      }
    }
    return keyed;
  }
};

/// The RIBLT families need no upkeep; theirs stays null.
struct NoUpkeep {};

/// The MLSH ladder's per-level RIBLTs.
struct MlshLadderFamily {
  static constexpr SketchFamily kId = SketchFamily::kMlsh;
  using Sketch = std::vector<Riblt>;
  using Upkeep = NoUpkeep;

  static RibltConfig Config(const Shape& shape, size_t n, size_t li) {
    return lshrecon::MlshLevelConfig(shape.context.universe,
                                     shape.params.mlsh, n, li,
                                     shape.context.seed);
  }

  static void Apply(const Shape& shape, const Point& p, int direction,
                    Sketch* tables) {
    const std::vector<uint64_t> chain =
        lshrecon::MlshKeyChain(*shape.mlsh_family, p, shape.context.seed);
    for (size_t li = 0; li < shape.mlsh_prefixes.size(); ++li) {
      const uint64_t key = chain[shape.mlsh_prefixes[li] - 1];
      if (direction > 0) {
        (*tables)[li].Insert(key, p);
      } else {
        (*tables)[li].Erase(key, p);
      }
    }
  }

  static Sketch Build(const Shape& shape, const PointSet& points,
                      std::shared_ptr<Upkeep>*) {
    Sketch tables;
    tables.reserve(shape.mlsh_prefixes.size());
    for (size_t li = 0; li < shape.mlsh_prefixes.size(); ++li) {
      tables.emplace_back(Config(shape, points.size(), li));
    }
    for (const Point& p : points) Apply(shape, p, +1, &tables);
    return tables;
  }

  static bool Carries(const Shape& shape, size_t from, size_t to) {
    return SameRibltWidths(Config(shape, from, 0), Config(shape, to, 0));
  }

  static Sketch Advance(const Shape& shape, const Sketch& old,
                        const Batch& batch, Upkeep*) {
    Sketch tables = old;
    ForEachMutation(batch, [&](const Point& p, int direction) {
      Apply(shape, p, direction, &tables);
    });
    return tables;
  }
};

/// The one-shot exact-key RIBLT.
struct OneShotFamily {
  static constexpr SketchFamily kId = SketchFamily::kOneShotRiblt;
  using Sketch = Riblt;
  using Upkeep = NoUpkeep;

  static RibltConfig Config(const Shape& shape, size_t n) {
    return RibltOneShotConfig(shape.context.universe, shape.params.riblt, n,
                              shape.context.seed);
  }

  static Sketch Build(const Shape& shape, const PointSet& points,
                      std::shared_ptr<Upkeep>*) {
    Sketch table(Config(shape, points.size()));
    for (const Point& p : points) {
      table.Insert(PointKey(p, shape.context.seed), p);
    }
    return table;
  }

  static bool Carries(const Shape& shape, size_t from, size_t to) {
    return SameRibltWidths(Config(shape, from), Config(shape, to));
  }

  static Sketch Advance(const Shape& shape, const Sketch& old,
                        const Batch& batch, Upkeep*) {
    Sketch table = old;
    ForEachMutation(batch, [&](const Point& p, int direction) {
      const uint64_t key = PointKey(p, shape.context.seed);
      if (direction > 0) {
        table.Insert(key, p);
      } else {
        table.Erase(key, p);
      }
    });
    return table;
  }
};

}  // namespace

const char* SketchFamilyName(SketchFamily family) {
  switch (family) {
    case SketchFamily::kQuadtreeIblt:
      return "quadtree-iblt";
    case SketchFamily::kQuadtreeProbe:
      return "quadtree-probe";
    case SketchFamily::kExactStrata:
      return "exact-strata";
    case SketchFamily::kExactKeyed:
      return "exact-keyed";
    case SketchFamily::kMlsh:
      return "mlsh-riblt";
    case SketchFamily::kOneShotRiblt:
      return "oneshot-riblt";
  }
  return "unknown";
}

SketchStoreMetrics MakeStoreMetrics(obs::MetricsRegistry* registry,
                                    bool latency_probes) {
  SketchStoreMetrics metrics;
  for (size_t f = 0; f < kSketchFamilyCount; ++f) {
    const obs::LabelSet labels = {
        {"family", SketchFamilyName(static_cast<SketchFamily>(f))}};
    if (latency_probes) {
      metrics.apply_seconds[f] = registry->GetHistogram(
          "rsr_store_apply_seconds",
          "Wall time of carrying a live sketch family across one batch",
          obs::DefaultLatencyBounds(), labels);
    }
    metrics.materializations[f] = registry->GetCounter(
        "rsr_store_materializations_total",
        "From-scratch builds of a sketch family, in any generation", labels);
    metrics.family_live[f] = registry->GetGauge(
        "rsr_store_family_live",
        "1 while the published generation holds the sketch family", labels);
  }
  metrics.generation = registry->GetGauge(
      "rsr_store_generation", "Published canonical snapshot generation");
  metrics.points =
      registry->GetGauge("rsr_store_points", "Canonical set size");
  return metrics;
}

// ----------------------------------------------------------- SketchSnapshot

SketchSnapshot::SketchSnapshot(std::shared_ptr<const SketchShape> shape,
                               uint64_t generation, PointSet points)
    : shape_(std::move(shape)),
      generation_(generation),
      points_(std::move(points)) {}

bool SketchSnapshot::Materialized(SketchFamily family) const {
  FamilySlot& family_slot = slot(family);
  MutexLock lock(family_slot.mu);
  return family_slot.sketch != nullptr;
}

template <typename Family>
std::shared_ptr<const typename Family::Sketch> SketchSnapshot::Materialize()
    const {
  FamilySlot& family_slot = slot(Family::kId);
  std::shared_ptr<const void> sketch;
  bool built = false;
  {
    MutexLock lock(family_slot.mu);
    if (family_slot.sketch == nullptr) {
      std::shared_ptr<typename Family::Upkeep> upkeep;
      family_slot.sketch = std::make_shared<const typename Family::Sketch>(
          Family::Build(*shape_, points_, &upkeep));
      family_slot.upkeep = std::move(upkeep);
      built = true;
    }
    sketch = family_slot.sketch;
  }
  if (built) shape_->OnMaterialized(this, Family::kId);
  return std::static_pointer_cast<const typename Family::Sketch>(
      std::move(sketch));
}

std::optional<Iblt> SketchSnapshot::QuadtreeLevelIblt(const IbltConfig& config,
                                                      int level) const {
  const size_t li = shape_->LevelIndex(level);
  if (li == shape_->levels.size() ||
      !SameIbltConfig(recon::LevelIbltConfig(shape_->grid, level, size(),
                                             shape_->params.quadtree,
                                             shape_->context.seed),
                      config)) {
    return std::nullopt;
  }
  return (*Materialize<QuadtreeIbltFamily>())[li];  // the session's copy
}

std::optional<StrataEstimator> SketchSnapshot::QuadtreeLevelProbe(
    const StrataConfig& config, int level) const {
  const size_t li = shape_->LevelIndex(level);
  if (li == shape_->levels.size() ||
      !SameStrataConfig(
          recon::AdaptiveLevelProbeConfig(level, shape_->context.seed),
          config)) {
    return std::nullopt;
  }
  return (*Materialize<QuadtreeProbeFamily>())[li];
}

std::optional<StrataEstimator> SketchSnapshot::ExactStrata(
    const StrataConfig& config) const {
  if (!SameStrataConfig(recon::ExactReconStrataConfig(shape_->context.seed),
                        config)) {
    return std::nullopt;
  }
  return *Materialize<ExactStrataFamily>();
}

std::shared_ptr<const recon::KeyedPointList> SketchSnapshot::ExactKeyedPoints(
    uint64_t seed) const {
  if (seed != shape_->context.seed) return nullptr;
  return Materialize<ExactKeyedFamily>();
}

std::optional<Riblt> SketchSnapshot::MlshLevelRiblt(const RibltConfig& config,
                                                    size_t level_index) const {
  if (level_index >= shape_->mlsh_prefixes.size() ||
      !CompatibleRibltConfig(
          MlshLadderFamily::Config(*shape_, size(), level_index), config)) {
    return std::nullopt;
  }
  return (*Materialize<MlshLadderFamily>())[level_index];
}

std::optional<Riblt> SketchSnapshot::OneShotRiblt(
    const RibltConfig& config) const {
  if (!CompatibleRibltConfig(OneShotFamily::Config(*shape_, size()), config)) {
    return std::nullopt;
  }
  return *Materialize<OneShotFamily>();
}

// --------------------------------------------------------------- SketchStore

SketchStore::SketchStore(PointSet canonical, SketchStoreOptions options)
    : shape_(std::make_shared<const SketchShape>(options)) {
  const std::shared_ptr<const SketchSnapshot> first(
      new SketchSnapshot(shape_, /*generation=*/0, std::move(canonical)));
  MutexLock lock(mu_);
  snapshot_ = first;
  shape_->Publish(first.get(), {});
}

SketchStore::~SketchStore() { shape_->Retire(); }

std::shared_ptr<const SketchSnapshot> SketchStore::Snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

template <typename Family>
void SketchStore::CarryForward(const SketchSnapshot& head,
                               SketchSnapshot* next,
                               const SketchBatch& batch) const {
  if (!Family::Carries(*shape_, head.size(), batch.n)) return;
  std::shared_ptr<const void> sketch;
  std::shared_ptr<void> upkeep;
  {
    // Waits out a lazy build in progress, so a family asked for just
    // before the batch is carried rather than rebuilt.
    SketchSnapshot::FamilySlot& from = head.slot(Family::kId);
    MutexLock lock(from.mu);
    if (from.sketch == nullptr) return;
    sketch = from.sketch;
    upkeep = std::move(from.upkeep);  // head is no longer the writer's
  }
  std::shared_ptr<const typename Family::Sketch> advanced;
  {
    ScopedTimer timer(
        shape_->metrics.apply_seconds[static_cast<size_t>(Family::kId)]);
    advanced = std::make_shared<const typename Family::Sketch>(
        Family::Advance(*shape_,
                        *static_cast<const typename Family::Sketch*>(
                            sketch.get()),
                        batch,
                        static_cast<typename Family::Upkeep*>(upkeep.get())));
  }
  SketchSnapshot::FamilySlot& to = next->slot(Family::kId);
  MutexLock lock(to.mu);
  to.sketch = std::move(advanced);
  to.upkeep = std::move(upkeep);
}

std::shared_ptr<const SketchSnapshot> SketchStore::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  MutexLock write_lock(write_mu_);
  std::shared_ptr<const SketchSnapshot> head;
  {
    MutexLock lock(mu_);
    head = snapshot_;
  }

  // The new point set, copied once: per erased value, the first
  // (remaining) equal points are removed — absent copies are skipped, and
  // must also be skipped in the sketch updates — then the inserts are
  // appended. One sweep instead of a find-per-erase keeps a batch
  // O(|S| + batch), not O(|S| · batch).
  PointCounts pending;
  for (const Point& e : erases) ++pending[e];
  PointSet points;
  points.reserve(head->size() + inserts.size());
  PointSet applied_erases;
  applied_erases.reserve(erases.size());
  for (const Point& p : head->points()) {
    if (!pending.empty()) {
      const auto it = pending.find(p);
      if (it != pending.end()) {
        applied_erases.push_back(p);
        if (--it->second == 0) pending.erase(it);
        continue;
      }
    }
    points.push_back(p);
  }
  points.insert(points.end(), inserts.begin(), inserts.end());

  const std::shared_ptr<SketchSnapshot> next(new SketchSnapshot(
      shape_, head->generation() + 1, std::move(points)));
  const SketchBatch batch{applied_erases, inserts, next->size()};
  CarryForward<QuadtreeIbltFamily>(*head, next.get(), batch);
  CarryForward<QuadtreeProbeFamily>(*head, next.get(), batch);
  CarryForward<ExactStrataFamily>(*head, next.get(), batch);
  CarryForward<ExactKeyedFamily>(*head, next.get(), batch);
  CarryForward<MlshLadderFamily>(*head, next.get(), batch);
  CarryForward<OneShotFamily>(*head, next.get(), batch);
  std::array<bool, kSketchFamilyCount> live;
  for (size_t f = 0; f < kSketchFamilyCount; ++f) {
    live[f] = next->Materialized(static_cast<SketchFamily>(f));
  }

  MutexLock lock(mu_);
  snapshot_ = next;
  shape_->Publish(next.get(), live);
  return next;
}

}  // namespace server
}  // namespace rsr
