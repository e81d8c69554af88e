#include "server/sketch_store.h"

#include <chrono>
#include <map>
#include <utility>

namespace rsr {
namespace server {

namespace {

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

}  // namespace

struct SketchShape {
  /// One spec's instruments; any may be null (disabled).
  struct Instruments {
    obs::Histogram* apply_seconds = nullptr;
    obs::Counter* materializations = nullptr;
    obs::Gauge* live = nullptr;
  };

  explicit SketchShape(const SketchStoreOptions& options)
      : specs(recon::ProtocolRegistry::Global().SketchSpecs(options.context,
                                                            options.params)),
        instruments(specs.size()) {
    obs::MetricsRegistry* registry = options.metrics.registry;
    if (registry == nullptr) return;
    for (size_t i = 0; i < specs.size(); ++i) {
      const obs::LabelSet labels = {{"family", specs[i]->name()}};
      if (options.metrics.latency_probes) {
        instruments[i].apply_seconds = registry->GetHistogram(
            "rsr_store_apply_seconds",
            "Wall time of carrying a live sketch family across one batch",
            obs::DefaultLatencyBounds(), labels);
      }
      instruments[i].materializations = registry->GetCounter(
          "rsr_store_materializations_total",
          "From-scratch builds of a sketch family, in any generation",
          labels);
      instruments[i].live = registry->GetGauge(
          "rsr_store_family_live",
          "1 while the published generation holds the sketch family", labels);
    }
    generation = registry->GetGauge("rsr_store_generation",
                                    "Published canonical snapshot generation");
    points = registry->GetGauge("rsr_store_points", "Canonical set size");
  }

  /// Makes `snap` the published generation and sets the gauges from it;
  /// `live[i]` says whether spec i was carried into it.
  void Publish(const SketchSnapshot* snap, const std::vector<bool>& live) const
      RSR_EXCLUDES(live_mu) {
    MutexLock lock(live_mu);
    published = snap;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (instruments[i].live != nullptr) {
        instruments[i].live->Set(live[i] ? 1 : 0);
      }
    }
    if (generation != nullptr) {
      generation->Set(static_cast<int64_t>(snap->generation()));
    }
    if (points != nullptr) points->Set(static_cast<int64_t>(snap->size()));
  }

  /// Counts a lazy build of spec `index` in `snap`, and marks it live when
  /// `snap` is the published generation. After Retire() (the store, and
  /// with it the instruments' owner, may be gone) this does nothing.
  void OnMaterialized(const SketchSnapshot* snap, size_t index) const
      RSR_EXCLUDES(live_mu) {
    MutexLock lock(live_mu);
    if (retired) return;
    const Instruments& probes = instruments[index];
    if (probes.materializations != nullptr) probes.materializations->Inc();
    if (published == snap && probes.live != nullptr) probes.live->Set(1);
  }

  void Retire() const RSR_EXCLUDES(live_mu) {
    MutexLock lock(live_mu);
    retired = true;
    published = nullptr;
  }

  const recon::SketchSpecList specs;
  std::vector<Instruments> instruments;
  obs::Gauge* generation = nullptr;
  obs::Gauge* points = nullptr;

  /// Leaf lock: orders Publish against OnMaterialized so the live gauges
  /// always describe the published generation. Nests inside the store's
  /// snapshot mutex; never held while taking another rsr mutex.
  mutable Mutex live_mu;
  /// Compared, never dereferenced.
  mutable const SketchSnapshot* published RSR_GUARDED_BY(live_mu) = nullptr;
  mutable bool retired RSR_GUARDED_BY(live_mu) = false;
};

// ----------------------------------------------------------- SketchSnapshot

SketchSnapshot::SketchSnapshot(std::shared_ptr<const SketchShape> shape,
                               uint64_t generation, PointSet points)
    : shape_(std::move(shape)),
      generation_(generation),
      points_(std::move(points)),
      slots_(shape_->specs.size()) {}

bool SketchSnapshot::Materialized(std::string_view name) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (shape_->specs[i]->name() != name) continue;
    MutexLock lock(slots_[i].mu);
    return slots_[i].sketch != nullptr;
  }
  return false;
}

std::shared_ptr<const void> SketchSnapshot::Find(
    const recon::LinearSketchSpec& spec) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (shape_->specs[i]->key() == spec.key()) return Materialize(i);
  }
  return nullptr;
}

std::shared_ptr<const void> SketchSnapshot::Materialize(size_t index) const {
  Slot& slot = slots_[index];
  std::shared_ptr<const void> sketch;
  bool built = false;
  {
    MutexLock lock(slot.mu);
    if (slot.sketch == nullptr) {
      recon::LinearSketchSpec::ErasedBuild fresh =
          shape_->specs[index]->BuildErased(points_);
      slot.sketch = std::move(fresh.sketch);
      slot.upkeep = std::move(fresh.upkeep);
      built = true;
    }
    sketch = slot.sketch;
  }
  if (built) shape_->OnMaterialized(this, index);
  return sketch;
}

// --------------------------------------------------------------- SketchStore

SketchStore::SketchStore(PointSet canonical, SketchStoreOptions options)
    : shape_(std::make_shared<const SketchShape>(options)) {
  const std::shared_ptr<const SketchSnapshot> first(
      new SketchSnapshot(shape_, /*generation=*/0, std::move(canonical)));
  MutexLock lock(mu_);
  snapshot_ = first;
  shape_->Publish(first.get(), std::vector<bool>(shape_->specs.size()));
}

SketchStore::~SketchStore() { shape_->Retire(); }

std::shared_ptr<const SketchSnapshot> SketchStore::Snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

bool SketchStore::CarryForward(size_t index, const SketchSnapshot& head,
                               SketchSnapshot* next,
                               const recon::SketchBatch& batch) const {
  const recon::LinearSketchSpec& spec = *shape_->specs[index];
  if (!spec.Carries(head.size(), batch.n)) return false;
  std::shared_ptr<const void> sketch;
  std::shared_ptr<void> upkeep;
  {
    // Waits out a lazy build in progress, so a slot asked for just before
    // the batch is carried rather than rebuilt.
    SketchSnapshot::Slot& from = head.slots_[index];
    MutexLock lock(from.mu);
    if (from.sketch == nullptr) return false;
    sketch = from.sketch;
    upkeep = std::move(from.upkeep);  // head is no longer the writer's
  }
  std::shared_ptr<const void> advanced;
  {
    ScopedTimer timer(shape_->instruments[index].apply_seconds);
    advanced = spec.AdvanceErased(sketch.get(), upkeep.get(), batch);
  }
  SketchSnapshot::Slot& to = next->slots_[index];
  MutexLock lock(to.mu);
  to.sketch = std::move(advanced);
  to.upkeep = std::move(upkeep);
  return true;
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
  std::map<Point, int64_t> pending;
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
  const recon::SketchBatch batch{applied_erases, inserts, next->size()};
  std::vector<bool> live(shape_->specs.size());
  for (size_t i = 0; i < live.size(); ++i) {
    live[i] = CarryForward(i, *head, next.get(), batch);
  }

  MutexLock lock(mu_);
  snapshot_ = next;
  shape_->Publish(next.get(), live);
  return next;
}

}  // namespace server
}  // namespace rsr
