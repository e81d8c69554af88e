// SketchStore invariants.
//
// 1. Incremental equivalence (the linearity property the whole design
//    rests on): building each serving sketch from scratch over the final
//    set S and mutating a store from S0 through a random insert/erase
//    trace to S must produce bit-identical serializations, for every
//    cached sketch kind — quadtree level IBLTs, adaptive probes, the
//    exact strata estimator and keyed list, MLSH ladder RIBLTs, the
//    one-shot RIBLT.
//    Every such test asks for all families on the starting snapshot, so
//    the trace exercises the incremental path, and checks through
//    rsr_store_materializations_total that no family was rebuilt on it.
// 2. Width-boundary drop: an unbalanced trace that crosses a histogram
//    count-width or RIBLT sum-width boundary must drop exactly the
//    affected families, which then rebuild bit-identical on demand.
// 3. Laziness: a family is absent (and unmaintained) until asked for, and
//    a stale generation asked late serves its own set's bytes.
// 4. Concurrency (run under TSan in CI): sessions pinned to an old
//    generation finish bit-identical to the driver on that generation's
//    set while ApplyUpdate churns the store, and lazy builds racing
//    ApplyUpdate serve correct bytes.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lshrecon/mlsh_recon.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "recon/exact_recon.h"
#include "recon/params.h"
#include "recon/quadtree_recon.h"
#include "recon/registry.h"
#include "riblt/riblt_recon.h"
#include "server/sketch_store.h"
#include "server/sync_client.h"
#include "server/sync_server.h"
#include "util/bitio.h"
#include "workload/churn.h"
#include "workload/generator.h"
#include "sketch_families.h"

namespace rsr {
namespace server {
namespace {

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 12, 2);
  ctx.seed = 99;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.k = 8;
  return params;
}

PointSet Cloud(size_t n, uint64_t seed) {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = n;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(seed);
  return workload::GenerateCloud(spec, &rng);
}

constexpr SketchFamily kAllFamilies[] = {
    SketchFamily::kQuadtreeIblt, SketchFamily::kQuadtreeProbe,
    SketchFamily::kExactStrata,  SketchFamily::kExactKeyed,
    SketchFamily::kMlsh,         SketchFamily::kOneShotRiblt};

/// A store wired to its own registry, so tests can read the per-family
/// materialization counters and live gauges.
struct InstrumentedStore {
  explicit InstrumentedStore(PointSet points)
      : store(std::move(points),
              SketchStoreOptions{Ctx(), Params(),
                                 MakeStoreMetrics(&registry, false)}) {}

  uint64_t Materializations(SketchFamily family) const {
    return registry.CounterValue("rsr_store_materializations_total",
                                 {{"family", SketchFamilyName(family)}});
  }
  int64_t Live(SketchFamily family) const {
    return registry.GaugeValue("rsr_store_family_live",
                               {{"family", SketchFamilyName(family)}});
  }

  obs::MetricsRegistry registry;  // declared first: outlives the store
  SketchStore store;
};

/// Asserts that `snapshot` holds every family without being asked, and
/// that each family was built exactly `builds` times so far — i.e. the
/// batches since the first request all took the incremental path.
void ExpectAllCarried(const InstrumentedStore& s,
                      const SketchSnapshot& snapshot, uint64_t builds = 1) {
  for (SketchFamily family : kAllFamilies) {
    EXPECT_TRUE(snapshot.Materialized(family)) << SketchFamilyName(family);
    EXPECT_EQ(s.Materializations(family), builds) << SketchFamilyName(family);
    EXPECT_EQ(s.Live(family), 1) << SketchFamilyName(family);
  }
}

/// Per family: whether a batch taking the set from `from` to `to` points
/// keeps the widths its sketches serialize with (so the store carries it).
std::array<bool, kSketchFamilyCount> KeptWidths(size_t from, size_t to) {
  const recon::ProtocolContext ctx = Ctx();
  const recon::ProtocolParams params = Params().Resolved();
  const auto same = [](const RibltConfig& a, const RibltConfig& b) {
    return a.KeySumBits() == b.KeySumBits() &&
           a.CoordSumBits() == b.CoordSumBits();
  };
  std::array<bool, kSketchFamilyCount> kept;
  kept.fill(true);
  kept[static_cast<size_t>(SketchFamily::kQuadtreeIblt)] =
      recon::HistogramCountBits(from) == recon::HistogramCountBits(to);
  kept[static_cast<size_t>(SketchFamily::kMlsh)] =
      same(lshrecon::MlshLevelConfig(ctx.universe, params.mlsh, from, 0,
                                     ctx.seed),
           lshrecon::MlshLevelConfig(ctx.universe, params.mlsh, to, 0,
                                     ctx.seed));
  kept[static_cast<size_t>(SketchFamily::kOneShotRiblt)] =
      same(RibltOneShotConfig(ctx.universe, params.riblt, from, ctx.seed),
           RibltOneShotConfig(ctx.universe, params.riblt, to, ctx.seed));
  return kept;
}

/// After a batch from `from` to `to` points: exactly the families whose
/// widths it keeps were carried into `snapshot`, and nothing was rebuilt
/// (`builds` holds each family's build count so far). The dropped ones
/// are counted as rebuilt, since the scratch comparison that follows asks
/// for them again.
void ExpectCarriedAcross(const InstrumentedStore& s,
                         const SketchSnapshot& snapshot, size_t from,
                         size_t to,
                         std::array<uint64_t, kSketchFamilyCount>* builds) {
  const std::array<bool, kSketchFamilyCount> kept = KeptWidths(from, to);
  for (SketchFamily family : kAllFamilies) {
    const size_t f = static_cast<size_t>(family);
    EXPECT_EQ(snapshot.Materialized(family), kept[f])
        << SketchFamilyName(family);
    EXPECT_EQ(s.Materializations(family), (*builds)[f])
        << SketchFamilyName(family);
    EXPECT_EQ(s.Live(family), kept[f] ? 1 : 0) << SketchFamilyName(family);
    if (!kept[f]) ++(*builds)[f];
  }
}

/// Every family the snapshot serves, bit-identical to a from-scratch
/// build over `expected` (tests/sketch_families.h).
void ExpectSnapshotMatchesScratch(const SketchSnapshot& snapshot,
                                  const PointSet& expected) {
  ExpectFamiliesMatchScratch(snapshot, expected, Ctx(), Params());
}

TEST(SketchStoreTest, IncrementalTraceMatchesFromScratchBitForBit) {
  PointSet mirror = Cloud(96, 31337);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);

  workload::ChurnSpec spec;
  spec.fraction = 0.08;
  spec.fresh_fraction = 0.3;
  Rng rng(555);
  for (int step = 0; step < 12; ++step) {
    const workload::ChurnBatch batch =
        workload::MakeChurnBatch(mirror, Ctx().universe, spec, &rng);
    workload::ApplyChurnBatch(batch, &mirror);
    const auto snapshot = store.ApplyUpdate(batch.inserts, batch.erases);
    EXPECT_EQ(snapshot->generation(), static_cast<uint64_t>(step + 1));
    ExpectAllCarried(s, *snapshot);
    ExpectSnapshotMatchesScratch(*snapshot, mirror);
  }
}

TEST(SketchStoreTest, DuplicatePointsKeepOccurrenceKeysConsistent) {
  // Duplicates exercise the occurrence-indexed exact keys: insert the same
  // point several times, erase some copies, and the keyed list / strata
  // must match a from-scratch canonicalisation throughout.
  PointSet mirror = Cloud(16, 42);
  const Point dup = mirror.front();
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  const PointSet three_copies = {dup, dup, dup};
  store.ApplyUpdate(three_copies, {});
  mirror.insert(mirror.end(), three_copies.begin(), three_copies.end());
  ExpectAllCarried(s, *store.Snapshot());
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);

  store.ApplyUpdate({}, {dup, dup});
  workload::ChurnBatch erase_two;
  erase_two.erases = {dup, dup};
  workload::ApplyChurnBatch(erase_two, &mirror);
  ExpectAllCarried(s, *store.Snapshot());
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
}

TEST(SketchStoreTest, WidthBoundaryCrossingRebuilds) {
  // 120 -> 140 inserts crosses the HistogramCountBits boundary at 127
  // (bits of n + 1), dropping the level IBLTs, which then rebuild on
  // demand; then an unbalanced erase-only batch shrinks back across it.
  ASSERT_FALSE(KeptWidths(120, 140)[static_cast<size_t>(
      SketchFamily::kQuadtreeIblt)]);
  PointSet mirror = Cloud(120, 77);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  std::array<uint64_t, kSketchFamilyCount> builds;
  builds.fill(1);
  const PointSet grow = Cloud(20, 78);
  store.ApplyUpdate(grow, {});
  mirror.insert(mirror.end(), grow.begin(), grow.end());
  ExpectCarriedAcross(s, *store.Snapshot(), 120, 140, &builds);
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);

  workload::ChurnBatch shrink;
  shrink.erases = PointSet(mirror.begin(), mirror.begin() + 20);
  store.ApplyUpdate({}, shrink.erases);
  workload::ApplyChurnBatch(shrink, &mirror);
  ExpectCarriedAcross(s, *store.Snapshot(), 140, 120, &builds);
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
}

TEST(SketchStoreTest, EraseAndReinsertSameKeyInOneBatchBitIdentical) {
  // The exact shape changelog replay produces (src/replica/changelog.h): a
  // batch that erases a point and re-inserts the very same point, next to
  // an ordinary churn replacement. The incremental path must leave every
  // sketch bit-identical to a fresh rebuild — the -1/+1 pair must cancel
  // exactly in the strata, the histograms and both RIBLT families.
  PointSet mirror = Cloud(64, 4242);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  Rng rng(7);
  workload::ChurnBatch batch;
  batch.erases = {mirror[3], mirror[10]};
  batch.inserts = {mirror[3],
                   workload::PerturbPoint(mirror[10], Ctx().universe,
                                          workload::NoiseKind::kGaussian, 4.0,
                                          &rng)};
  workload::ApplyChurnBatch(batch, &mirror);
  const auto snapshot = store.ApplyUpdate(batch.inserts, batch.erases);
  ExpectAllCarried(s, *snapshot);
  ExpectSnapshotMatchesScratch(*snapshot, mirror);

  // Same-key erase+reinsert alone (a replayed no-op batch) as well. Note
  // the multiset is unchanged but the sequence is not: the erased copy is
  // removed in place and the re-insert lands at the end.
  workload::ChurnBatch noop;
  noop.erases = {mirror[5]};
  noop.inserts = {mirror[5]};
  store.ApplyUpdate(noop.inserts, noop.erases);
  workload::ApplyChurnBatch(noop, &mirror);
  ExpectAllCarried(s, *store.Snapshot());
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
}

TEST(SketchStoreTest, MovesCancellingWithinACellAreBitIdentical) {
  // Each point moves to a neighbour: at level 0 its cell loses one point
  // and the neighbour's gains one, while from the first level where the
  // two share a cell, that cell's moves cancel (net 0) and it must be left
  // exactly as it was.
  PointSet mirror = Cloud(64, 5151);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  const ShiftedGrid grid(Ctx().universe, Ctx().seed);
  workload::ChurnBatch batch;
  for (size_t i : {size_t{2}, size_t{9}, size_t{30}}) {
    Point moved = mirror[i];
    moved[0] += moved[0] + 1 < Ctx().universe.delta ? 1 : -1;
    ASSERT_NE(grid.CellOf(moved, 0), grid.CellOf(mirror[i], 0));
    ASSERT_EQ(grid.CellOf(moved, grid.max_level()),
              grid.CellOf(mirror[i], grid.max_level()));
    batch.erases.push_back(mirror[i]);
    batch.inserts.push_back(moved);
  }
  workload::ApplyChurnBatch(batch, &mirror);
  const auto snapshot = store.ApplyUpdate(batch.inserts, batch.erases);
  ExpectAllCarried(s, *snapshot);
  ExpectSnapshotMatchesScratch(*snapshot, mirror);
}

TEST(SketchStoreTest, RibltWidthBoundaryWithoutHistogramBoundaryRebuilds) {
  // 62 -> 63 keeps HistogramCountBits unchanged (both under 64) but moves
  // the RIBLT max_entries = 2n + 2 from 126 to 128, widening the
  // serialized sum fields. The cached one-shot and MLSH tables must be
  // rebuilt, or their serialization would keep the stale widths.
  const std::array<bool, kSketchFamilyCount> kept = KeptWidths(62, 63);
  ASSERT_TRUE(kept[static_cast<size_t>(SketchFamily::kQuadtreeIblt)]);
  ASSERT_FALSE(kept[static_cast<size_t>(SketchFamily::kOneShotRiblt)]);
  ASSERT_FALSE(kept[static_cast<size_t>(SketchFamily::kMlsh)]);
  PointSet mirror = Cloud(62, 2026);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  std::array<uint64_t, kSketchFamilyCount> builds;
  builds.fill(1);
  const PointSet grow = Cloud(1, 2027);
  store.ApplyUpdate(grow, {});
  mirror.insert(mirror.end(), grow.begin(), grow.end());
  ExpectCarriedAcross(s, *store.Snapshot(), 62, 63, &builds);
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);

  // And back down across the same boundary with an erase-only batch.
  workload::ChurnBatch shrink;
  shrink.erases = {mirror.back()};
  store.ApplyUpdate({}, shrink.erases);
  workload::ApplyChurnBatch(shrink, &mirror);
  ExpectCarriedAcross(s, *store.Snapshot(), 63, 62, &builds);
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
}

TEST(SketchStoreTest, ErasingAbsentPointsIsIgnoredConsistently) {
  // 40 -> 39 points crosses no width boundary, so the absent erase is
  // exercised on the incremental path.
  const std::array<bool, kSketchFamilyCount> kept = KeptWidths(40, 39);
  ASSERT_TRUE(std::all_of(kept.begin(), kept.end(), [](bool k) { return k; }));
  PointSet mirror = Cloud(40, 9);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  // A corner point, verified absent from the generated cloud.
  Point absent(static_cast<size_t>(Ctx().universe.d),
               Ctx().universe.delta - 1);
  ASSERT_EQ(std::find(mirror.begin(), mirror.end(), absent), mirror.end());
  const PointSet erases = {absent, mirror.front()};
  store.ApplyUpdate({}, erases);
  workload::ChurnBatch batch;
  batch.erases = erases;
  workload::ApplyChurnBatch(batch, &mirror);
  ExpectAllCarried(s, *store.Snapshot());
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
}

TEST(SketchStoreTest, FamilyIsAbsentAndUnmaintainedUntilAskedFor) {
  PointSet mirror = Cloud(48, 12);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  workload::ChurnSpec spec;
  spec.fraction = 0.1;
  Rng rng(13);
  const auto churn = [&] {
    const workload::ChurnBatch batch =
        workload::MakeChurnBatch(mirror, Ctx().universe, spec, &rng);
    workload::ApplyChurnBatch(batch, &mirror);
    return store.ApplyUpdate(batch.inserts, batch.erases);
  };
  churn();
  churn();
  for (SketchFamily family : kAllFamilies) {
    EXPECT_FALSE(store.Snapshot()->Materialized(family))
        << SketchFamilyName(family);
    EXPECT_EQ(s.Materializations(family), 0u) << SketchFamilyName(family);
    EXPECT_EQ(s.Live(family), 0) << SketchFamilyName(family);
  }

  // Asking for one family builds that family alone...
  const RibltConfig config = RibltOneShotConfig(
      Ctx().universe, Params().Resolved().riblt, mirror.size(), Ctx().seed);
  ASSERT_TRUE(store.Snapshot()->OneShotRiblt(config).has_value());
  const auto asked = SketchFamily::kOneShotRiblt;
  EXPECT_EQ(s.Materializations(asked), 1u);
  EXPECT_EQ(s.Live(asked), 1);

  // ...and from then on the store maintains that family alone.
  for (int step = 0; step < 3; ++step) {
    const auto snapshot = churn();
    for (SketchFamily family : kAllFamilies) {
      const bool live = family == asked;
      EXPECT_EQ(snapshot->Materialized(family), live)
          << SketchFamilyName(family);
      EXPECT_EQ(s.Materializations(family), live ? 1u : 0u)
          << SketchFamilyName(family);
      EXPECT_EQ(s.Live(family), live ? 1 : 0) << SketchFamilyName(family);
    }
  }
  Riblt scratch(config);
  for (const Point& p : mirror) scratch.Insert(PointKey(p, Ctx().seed), p);
  EXPECT_EQ(Bits(*store.Snapshot()->OneShotRiblt(config)), Bits(scratch));
}

TEST(SketchStoreTest, StaleGenerationServesItsOwnBytes) {
  PointSet mirror = Cloud(40, 21);
  InstrumentedStore s(mirror);
  SketchStore& store = s.store;
  // The generation pinned here is asked only after two more batches have
  // been published.
  const auto pinned = store.Snapshot();
  const PointSet pinned_points = mirror;
  workload::ChurnSpec spec;
  spec.fraction = 0.1;
  Rng rng(22);
  for (int step = 0; step < 2; ++step) {
    const workload::ChurnBatch batch =
        workload::MakeChurnBatch(mirror, Ctx().universe, spec, &rng);
    workload::ApplyChurnBatch(batch, &mirror);
    store.ApplyUpdate(batch.inserts, batch.erases);
  }
  ExpectSnapshotMatchesScratch(*pinned, pinned_points);
  for (SketchFamily family : kAllFamilies) {
    // The late builds are of a stale generation: the published one still
    // holds no family, and its gauges say so.
    EXPECT_EQ(s.Materializations(family), 1u) << SketchFamilyName(family);
    EXPECT_EQ(s.Live(family), 0) << SketchFamilyName(family);
    EXPECT_FALSE(store.Snapshot()->Materialized(family))
        << SketchFamilyName(family);
  }
  ExpectSnapshotMatchesScratch(*store.Snapshot(), mirror);
  for (SketchFamily family : kAllFamilies) {
    EXPECT_EQ(s.Materializations(family), 2u) << SketchFamilyName(family);
    EXPECT_EQ(s.Live(family), 1) << SketchFamilyName(family);
  }
}

TEST(SketchStoreTest, ConfigMismatchDeclines) {
  const PointSet points = Cloud(32, 5);
  SketchStore store(points, SketchStoreOptions{Ctx(), Params(), {}});
  const auto snapshot = store.Snapshot();
  const ShiftedGrid grid(Ctx().universe, Ctx().seed);
  IbltConfig config = recon::LevelIbltConfig(
      grid, 3, points.size(), Params().Resolved().quadtree, Ctx().seed);
  IbltConfig other = config;
  other.seed ^= 1;  // different public coins -> must decline, not serve
  EXPECT_FALSE(snapshot->QuadtreeLevelIblt(other, 3).has_value());
  // A declined request builds nothing.
  EXPECT_FALSE(snapshot->Materialized(SketchFamily::kQuadtreeIblt));
  EXPECT_TRUE(snapshot->QuadtreeLevelIblt(config, 3).has_value());
  EXPECT_TRUE(snapshot->Materialized(SketchFamily::kQuadtreeIblt));
  EXPECT_FALSE(snapshot->QuadtreeLevelIblt(other, 3).has_value());
}

/// Replicas of `canonical` drifted by Gaussian noise, one per seed.
std::vector<PointSet> DriftedReplicas(const PointSet& canonical,
                                      size_t count, uint64_t seed) {
  std::vector<PointSet> replicas(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(seed + i);
    replicas[i].reserve(canonical.size());
    for (const Point& p : canonical) {
      replicas[i].push_back(workload::PerturbPoint(
          p, Ctx().universe, workload::NoiseKind::kGaussian, 0.5, &rng));
    }
  }
  return replicas;
}

/// Asserts a served outcome equals the in-process driver run against the
/// set of the generation it was pinned to.
void ExpectMatchesDriver(const SyncOutcome& outcome, const char* protocol,
                         const PointSet& replica, const PointSet& canonical) {
  ASSERT_TRUE(outcome.handshake_ok) << protocol;
  const auto reconciler = recon::MakeReconciler(protocol, Ctx(), Params());
  transport::Channel channel;
  const recon::ReconResult expected =
      reconciler->Run(replica, canonical, &channel);
  EXPECT_EQ(outcome.result.success, expected.success) << protocol;
  EXPECT_EQ(outcome.result.error, expected.error) << protocol;
  EXPECT_EQ(outcome.result.chosen_level, expected.chosen_level) << protocol;
  EXPECT_EQ(outcome.result.decoded_entries, expected.decoded_entries)
      << protocol;
  if (expected.success) {
    EXPECT_EQ(outcome.result.bob_final, expected.bob_final) << protocol;
  }
}

constexpr const char* kCachedProtocols[] = {
    "quadtree",   "single-grid",   "quadtree-adaptive",
    "exact-iblt", "mlsh-riblt",    "riblt-oneshot"};

TEST(SketchStoreTest, HostNotServingFromCacheMatchesDriverAndBuildsNothing) {
  const PointSet canonical = Cloud(96, 31);
  SyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.worker_threads = 2;
  options.serve_from_cache = false;
  SyncServer server(canonical, options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));
  const std::vector<PointSet> replicas =
      DriftedReplicas(canonical, std::size(kCachedProtocols), 300);

  SyncClientOptions client_options;
  client_options.context = Ctx();
  client_options.params = Params();
  const SyncClient client(client_options);
  workload::ChurnSpec spec;
  spec.fraction = 0.05;
  Rng rng(301);
  for (int round = 0; round < 2; ++round) {
    const auto snapshot = server.snapshot();
    for (size_t i = 0; i < replicas.size(); ++i) {
      auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
      ASSERT_NE(stream, nullptr);
      const SyncOutcome outcome =
          client.Sync(stream.get(), kCachedProtocols[i], replicas[i]);
      EXPECT_EQ(outcome.server_generation, snapshot->generation());
      ExpectMatchesDriver(outcome, kCachedProtocols[i], replicas[i],
                          snapshot->points());
    }
    const workload::ChurnBatch batch = workload::MakeChurnBatch(
        snapshot->points(), Ctx().universe, spec, &rng);
    server.ApplyUpdate(batch.inserts, batch.erases);
  }
  server.Stop();
  EXPECT_EQ(server.metrics_registry().SumCounters(
                "rsr_store_materializations_total"),
            0u);
  for (SketchFamily family : kAllFamilies) {
    EXPECT_FALSE(server.snapshot()->Materialized(family))
        << SketchFamilyName(family);
  }
}

// --- Concurrency: sessions pinned to old snapshots vs ApplyUpdate. ---

TEST(SketchStoreConcurrencyTest, PinnedSessionsFinishCorrectlyUnderChurn) {
  const PointSet canonical = Cloud(128, 2024);
  SyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.worker_threads = 4;
  SyncServer server(canonical, options);
  ASSERT_TRUE(server.Start(net::TcpListener::Listen("127.0.0.1", 0)));

  // Record every generation's point set so each outcome can be verified
  // against the exact canonical set its session was pinned to.
  std::mutex gens_mu;
  std::map<uint64_t, std::shared_ptr<const SketchSnapshot>> gens;
  {
    std::lock_guard<std::mutex> lock(gens_mu);
    const auto snapshot = server.snapshot();
    gens[snapshot->generation()] = snapshot;
  }

  constexpr size_t kClients = 6;
  constexpr size_t kRounds = 4;
  const char* kProtocols[kClients] = {"quadtree",      "exact-iblt",
                                      "mlsh-riblt",    "riblt-oneshot",
                                      "quadtree-adaptive", "quadtree"};
  const std::vector<PointSet> replicas =
      DriftedReplicas(canonical, kClients, 600);

  std::vector<std::vector<SyncOutcome>> outcomes(
      kClients, std::vector<SyncOutcome>(kRounds));
  std::vector<std::thread> threads;
  // One mutator thread churns the canonical set the whole time.
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    workload::ChurnSpec spec;
    spec.fraction = 0.05;
    Rng rng(888);
    while (!stop.load()) {
      {
        std::lock_guard<std::mutex> lock(gens_mu);
        const auto latest = gens.rbegin()->second;
        const workload::ChurnBatch batch = workload::MakeChurnBatch(
            latest->points(), Ctx().universe, spec, &rng);
        const auto snapshot =
            server.ApplyUpdate(batch.inserts, batch.erases);
        gens[snapshot->generation()] = snapshot;
      }
      // Yield so the worker threads make progress on small machines.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      SyncClientOptions client_options;
      client_options.context = Ctx();
      client_options.params = Params();
      const SyncClient client(client_options);
      for (size_t round = 0; round < kRounds; ++round) {
        auto stream = net::TcpStream::Connect("127.0.0.1", server.port());
        ASSERT_NE(stream, nullptr);
        outcomes[i][round] =
            client.Sync(stream.get(), kProtocols[i], replicas[i]);
      }
    });
  }
  for (size_t i = 1; i < threads.size(); ++i) threads[i].join();
  stop.store(true);
  threads[0].join();
  server.Stop();

  for (size_t i = 0; i < kClients; ++i) {
    for (size_t round = 0; round < kRounds; ++round) {
      const SyncOutcome& outcome = outcomes[i][round];
      const auto it = gens.find(outcome.server_generation);
      ASSERT_NE(it, gens.end()) << kProtocols[i];
      ExpectMatchesDriver(outcome, kProtocols[i], replicas[i],
                          it->second->points());
    }
  }
}

TEST(SketchStoreConcurrencyTest, LazyBuildsRacingApplyUpdateServeTheirSet) {
  // Readers ask random families of whatever generation is current while a
  // writer churns: a build may race the writer carrying (or dropping) the
  // same family. Every snapshot any reader touched must then serve exactly
  // its own generation's set.
  PointSet mirror = Cloud(60, 77);
  SketchStore store(mirror, SketchStoreOptions{Ctx(), Params(), {}});
  std::map<uint64_t, PointSet> sets = {{0, mirror}};
  std::mutex seen_mu;
  std::vector<std::shared_ptr<const SketchSnapshot>> seen;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(900 + r);
      const recon::ProtocolParams params = Params().Resolved();
      const ShiftedGrid grid(Ctx().universe, Ctx().seed);
      while (!stop.load()) {
        const auto snapshot = store.Snapshot();
        const size_t n = snapshot->size();
        switch (rng.Next64() % 4) {
          case 0: {
            const int level = recon::ProtocolLevels(grid, params.quadtree)[0];
            snapshot->QuadtreeLevelIblt(
                recon::LevelIbltConfig(grid, level, n, params.quadtree,
                                       Ctx().seed),
                level);
            break;
          }
          case 1:
            snapshot->ExactStrata(recon::ExactReconStrataConfig(Ctx().seed));
            break;
          case 2:
            snapshot->MlshLevelRiblt(
                lshrecon::MlshLevelConfig(Ctx().universe, params.mlsh, n, 0,
                                          Ctx().seed),
                0);
            break;
          default:
            snapshot->OneShotRiblt(RibltOneShotConfig(
                Ctx().universe, params.riblt, n, Ctx().seed));
            break;
        }
        std::lock_guard<std::mutex> lock(seen_mu);
        if (seen.empty() || seen.back() != snapshot) seen.push_back(snapshot);
      }
    });
  }
  // Unbalanced batches, so some cross a width boundary (62/63 points).
  Rng rng(901);
  for (int step = 0; step < 24; ++step) {
    workload::ChurnBatch batch;
    if (rng.Next64() % 2 == 0) {
      batch.inserts = Cloud(1 + rng.Next64() % 3, 1000 + step);
    } else {
      batch.erases = {mirror[rng.Next64() % mirror.size()]};
    }
    workload::ApplyChurnBatch(batch, &mirror);
    const auto snapshot = store.ApplyUpdate(batch.inserts, batch.erases);
    sets[snapshot->generation()] = mirror;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  std::map<uint64_t, std::shared_ptr<const SketchSnapshot>> distinct;
  for (const auto& snapshot : seen) distinct[snapshot->generation()] = snapshot;
  distinct[store.generation()] = store.Snapshot();
  for (const auto& [generation, snapshot] : distinct) {
    SCOPED_TRACE(generation);
    ExpectSnapshotMatchesScratch(*snapshot, sets.at(generation));
  }
}

}  // namespace
}  // namespace server
}  // namespace rsr
