// Linear-sketch specs, and the provider seam between Bob sessions and a
// cache of canonical sketches.
//
// Every sketch a Bob session can take from the canonical side is linear
// in the point multiset: Insert and Erase commute, so a sketch built once
// can be kept current under churn and shared by any number of sessions
// (DESIGN.md §9.1). A protocol defines each such sketch once, beside its
// sessions, as a LinearSketch spec: a name (the `family` label of the
// rsr_store_* metrics); a key, the name plus every public config field
// the cell arithmetic depends on; Build, the sketch of a point set plus
// the upkeep that advances it; Advance, across one batch; and the width
// rule Carries(n, n'), whether a batch from n to n' points keeps every
// width the sketch serializes with. Reconciler::SketchSpecs lists a
// protocol's specs; its sessions build with the same spec code, and a
// cache (server/sketch_store.h) holds specs without knowing their
// protocol.
//
// MakeBobSession (recon/protocol.h) takes an optional provider. A Bob
// session asks it for each spec's sketch and, when it declines, builds
// what it needs from its own set. Contract:
//  * Find returns the sketch a spec with a key equal to `spec.key()`
//    built over the set the session was created with, or null: any config
//    difference declines. No two spec classes share a name, so an equal
//    key means an equal sketch type.
//  * Sketches are shared and immutable; sessions read them (Subtract and
//    EstimateDifference take const references) and never copy one.
//  * Providers are safe for concurrent use (the server's snapshots are
//    immutable and generation-stamped).

#ifndef RSR_RECON_SKETCH_PROVIDER_H_
#define RSR_RECON_SKETCH_PROVIDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geometry/point.h"

namespace rsr {
namespace recon {

/// What a sketch's cell arithmetic depends on: its spec's name, then the
/// config fields, in a spec-defined order.
struct SketchKey {
  std::string name;
  std::vector<uint64_t> fields;

  bool operator==(const SketchKey&) const = default;
};

/// One batch of mutations as a spec advances across it: the erases that
/// found a point, the inserts, and the set size after the batch.
struct SketchBatch {
  const PointSet& erases;
  const PointSet& inserts;
  size_t n;
};

/// The upkeep of a sketch that needs none to advance.
struct NoUpkeep {};

class LinearSketchSpec;

class CanonicalSketchProvider {
 public:
  virtual ~CanonicalSketchProvider() = default;

  /// The canonical sketch of a spec whose key equals `spec.key()`, or null
  /// (LinearSketch::Find gives it its type).
  virtual std::shared_ptr<const void> Find(
      const LinearSketchSpec& spec) const = 0;
};

/// A spec as a cache holds it: its key, its width rule, and Build and
/// Advance with the sketch and upkeep types erased (LinearSketch below
/// implements them).
class LinearSketchSpec {
 public:
  virtual ~LinearSketchSpec() = default;

  const SketchKey& key() const { return key_; }
  const std::string& name() const { return key_.name; }

  /// The width rule. The default suits a sketch with no width that
  /// depends on |S|.
  virtual bool Carries(size_t from, size_t to) const {
    (void)from;
    (void)to;
    return true;
  }

  struct ErasedBuild {
    std::shared_ptr<const void> sketch;
    std::shared_ptr<void> upkeep;
  };
  virtual ErasedBuild BuildErased(const PointSet& points) const = 0;
  virtual std::shared_ptr<const void> AdvanceErased(
      const void* sketch, void* upkeep, const SketchBatch& batch) const = 0;

 protected:
  explicit LinearSketchSpec(SketchKey key) : key_(std::move(key)) {}

 private:
  SketchKey key_;
};

/// A spec whose sketch is a `SketchT`, advanced with an `UpkeepT`.
template <typename SketchT, typename UpkeepT = NoUpkeep>
class LinearSketch : public LinearSketchSpec {
 public:
  using Sketch = SketchT;
  using Upkeep = UpkeepT;

  struct Built {
    Sketch sketch;
    Upkeep upkeep;
  };

  /// The sketch of `points`, plus the upkeep that advances it.
  virtual Built Build(const PointSet& points) const = 0;

  /// The sketch of the set after `batch`, from `sketch` (the set's sketch
  /// before it); moves `upkeep` across the batch too.
  virtual Sketch Advance(const Sketch& sketch, Upkeep* upkeep,
                         const SketchBatch& batch) const = 0;

  /// This spec's canonical sketch from `provider`; null when there is no
  /// provider or it declines.
  std::shared_ptr<const Sketch> Find(
      const CanonicalSketchProvider* provider) const {
    if (provider == nullptr) return nullptr;
    return std::static_pointer_cast<const Sketch>(provider->Find(*this));
  }

  ErasedBuild BuildErased(const PointSet& points) const final {
    Built built = Build(points);
    return {std::make_shared<const Sketch>(std::move(built.sketch)),
            std::make_shared<Upkeep>(std::move(built.upkeep))};
  }

  std::shared_ptr<const void> AdvanceErased(
      const void* sketch, void* upkeep,
      const SketchBatch& batch) const final {
    return std::make_shared<const Sketch>(
        Advance(*static_cast<const Sketch*>(sketch),
                static_cast<Upkeep*>(upkeep), batch));
  }

 protected:
  using LinearSketchSpec::LinearSketchSpec;
};

/// The specs a set of protocols' sessions may ask a provider for.
using SketchSpecList = std::vector<std::shared_ptr<const LinearSketchSpec>>;

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_SKETCH_PROVIDER_H_
