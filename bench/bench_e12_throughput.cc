// E12 — Microbenchmark suite (google-benchmark): throughput of the
// building blocks and the end-to-end protocols.
//
// Expected shape: IBLT insert O(q) per key, decode O(m); the quadtree
// ladder one O(n log n) sort plus O(d) hashing per (cell, level); exact EMD
// O(n^3) vs greedy O(n^2 log n); quadtree encode O(n log Δ).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "geometry/emd.h"
#include "geometry/grid.h"
#include "iblt/iblt.h"
#include "iblt/sizing.h"
#include "recon/params.h"
#include "recon/quadtree_recon.h"
#include "recon/registry.h"
#include "riblt/riblt.h"
#include "util/random.h"
#include "workload/scenario.h"

namespace rsr {
namespace {

void BM_IbltInsert(benchmark::State& state) {
  IbltConfig config;
  config.cells = 1024;
  config.q = static_cast<int>(state.range(0));
  config.seed = 1;
  Iblt table(config);
  Rng rng(2);
  for (auto _ : state) {
    table.Insert(rng.Next64(), {});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IbltInsert)->Arg(3)->Arg(4)->Arg(5);

void BM_IbltDecode(benchmark::State& state) {
  const size_t entries = static_cast<size_t>(state.range(0));
  IbltConfig config;
  config.cells = RecommendedCells(entries, 4);
  config.q = 4;
  config.seed = 3;
  Iblt table(config);
  Rng rng(4);
  for (size_t i = 0; i < entries; ++i) table.Insert(rng.Next64(), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Decode());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * entries));
}
BENCHMARK(BM_IbltDecode)->Arg(64)->Arg(512)->Arg(4096);

void BM_RibltDecode(benchmark::State& state) {
  const size_t entries = static_cast<size_t>(state.range(0));
  RibltConfig config;
  config.cells = entries * 8;
  config.q = 3;
  config.universe = MakeUniverse(1 << 16, 2);
  config.max_entries = entries * 2;
  config.seed = 5;
  Riblt table(config);
  Rng rng(6);
  for (size_t i = 0; i < entries; ++i) {
    table.Insert(rng.Next64(), {rng.Uniform(0, (1 << 16) - 1),
                                rng.Uniform(0, (1 << 16) - 1)});
  }
  Rng round_rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Decode(&round_rng));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * entries));
}
BENCHMARK(BM_RibltDecode)->Arg(64)->Arg(512);

// Alice's one-shot sketch at Δ = 2^20: one Z-order sort, then every
// ladder level's histogram into its IBLT (21 levels). Items are points, so
// the rate reads as ns per point for the whole ladder.
void BM_LadderBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Universe u = MakeUniverse(1 << 20, 2);
  const ShiftedGrid grid(u, 8);
  const recon::QuadtreeParams params;
  Rng rng(9);
  PointSet points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0, (1 << 20) - 1),
                      rng.Uniform(0, (1 << 20) - 1)});
  }
  for (auto _ : state) {
    const CellLadder ladder(grid, points);
    for (int level : recon::ProtocolLevels(grid, params)) {
      Iblt table(recon::LevelIbltConfig(grid, level, n, params, 8));
      recon::SketchLevelHistogram(grid, ladder, level, n, &table);
      benchmark::DoNotOptimize(table);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_LadderBuild)->Arg(1024)->Arg(16384);

// The histogram -> IBLT kernel alone: the ladder is sorted once outside
// the loop, and every ladder level's entries go through the entry codec
// into its table. Items are histogram entries, so the rate reads as ns per
// IBLT insert (key, value pack and q cell updates).
void BM_LevelSketch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Universe u = MakeUniverse(1 << 20, 2);
  const ShiftedGrid grid(u, 8);
  const recon::QuadtreeParams params;
  Rng rng(9);
  PointSet points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0, (1 << 20) - 1),
                      rng.Uniform(0, (1 << 20) - 1)});
  }
  const CellLadder ladder(grid, points);
  const std::vector<int> levels = recon::ProtocolLevels(grid, params);
  size_t entries = 0;
  for (int level : levels) {
    ladder.ForEachCell(level, [&](const Cell&, int64_t) { ++entries; });
  }
  for (auto _ : state) {
    for (int level : levels) {
      Iblt table(recon::LevelIbltConfig(grid, level, n, params, 8));
      recon::SketchLevelHistogram(grid, ladder, level, n, &table);
      benchmark::DoNotOptimize(table);
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * entries));
}
BENCHMARK(BM_LevelSketch)->Arg(16384);

void BM_ExactEmd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(10);
  PointSet x, y;
  for (size_t i = 0; i < n; ++i) {
    x.push_back({rng.Uniform(0, 1 << 16), rng.Uniform(0, 1 << 16)});
    y.push_back({rng.Uniform(0, 1 << 16), rng.Uniform(0, 1 << 16)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactEmd(x, y, Metric::kL2));
  }
}
BENCHMARK(BM_ExactEmd)->Arg(32)->Arg(128)->Arg(256);

void BM_GreedyEmd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  PointSet x, y;
  for (size_t i = 0; i < n; ++i) {
    x.push_back({rng.Uniform(0, 1 << 16), rng.Uniform(0, 1 << 16)});
    y.push_back({rng.Uniform(0, 1 << 16), rng.Uniform(0, 1 << 16)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyEmdUpperBound(x, y, Metric::kL2));
  }
}
BENCHMARK(BM_GreedyEmd)->Arg(128)->Arg(512);

void BM_QuadtreeProtocol(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const workload::Scenario scenario =
      workload::StandardScenario(n, 2, int64_t{1} << 20, 16, 2.0, 12);
  const workload::ReplicaPair pair = scenario.Materialize();
  recon::ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 13;
  recon::ProtocolParams pp;
  pp.k = 16;
  const std::unique_ptr<recon::Reconciler> protocol =
      recon::MakeReconciler("quadtree", ctx, pp);
  for (auto _ : state) {
    transport::Channel channel;
    benchmark::DoNotOptimize(protocol->Run(pair.alice, pair.bob, &channel));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_QuadtreeProtocol)->Arg(1024)->Arg(8192);

/// End-to-end sync throughput summary, emitted as BENCH_E12.json with the
/// standard "wall_ms" / "syncs_per_sec" fields so E12 rows are
/// machine-comparable with the serving-layer load benches (E16/E17)
/// across PRs. The google-benchmark microbenches below keep their own
/// reporter.
void EmitSyncThroughputSummary() {
  bench::Banner("E12", "end-to-end sync throughput (in-process driver)",
                "syncs/sec per protocol on the standard n=1024 scenario");
  bench::Row({"protocol", "syncs", "syncs_per_sec", "wall_ms"});

  const workload::Scenario scenario =
      workload::StandardScenario(1024, 2, int64_t{1} << 20, 16, 2.0, 12);
  const workload::ReplicaPair pair = scenario.Materialize();
  recon::ProtocolContext ctx;
  ctx.universe = scenario.universe;
  ctx.seed = 13;
  recon::ProtocolParams params;
  params.k = 16;

  constexpr size_t kSyncs = 24;
  for (const char* name :
       {"quadtree", "exact-iblt", "full-transfer", "riblt-oneshot"}) {
    const std::unique_ptr<recon::Reconciler> protocol =
        recon::MakeReconciler(name, ctx, params);
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kSyncs; ++i) {
      transport::Channel channel;
      protocol->Run(pair.alice, pair.bob, &channel);
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    // "syncs_per_sec" / "wall_ms" are table columns here, so the JSON
    // rows already carry the standard field names — no RowExtras needed.
    bench::Row({name, std::to_string(kSyncs),
                bench::Num(static_cast<double>(kSyncs) / wall_seconds),
                bench::Num(1e3 * wall_seconds)});
  }
}

}  // namespace
}  // namespace rsr

int main(int argc, char** argv) {
  // Parse flags first: --help or a bad flag should exit before the
  // summary does real protocol work and rewrites BENCH_E12.json.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  rsr::EmitSyncThroughputSummary();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
