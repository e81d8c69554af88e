#include "bench/paper_sweeps.h"

#include <algorithm>
#include <string_view>

#include "util/stats.h"

namespace rsr {
namespace bench {
namespace {

// What an axis value sets. Workload fields first:
void SetN(Config& c, double v) { c.workload.n = static_cast<size_t>(v); }
void SetD(Config& c, double v) { c.workload.d = static_cast<int>(v); }
void SetLogDelta(Config& c, double v) {
  c.workload.log_delta = static_cast<int>(v);
}
void SetK(Config& c, double v) { c.workload.k = static_cast<size_t>(v); }
void SetNoise(Config& c, double v) { c.workload.noise = v; }
// QuadtreeParams fields:
void SetHeadroom(Config& c, double v) { c.params.quadtree.headroom = v; }
void SetBudgetX(Config& c, double v) {  // in multiples of k
  c.params.quadtree.decode_budget = static_cast<size_t>(v) * c.workload.k;
}
void SetStride(Config& c, double v) {
  c.params.quadtree.level_stride = static_cast<int>(v);
}
void SetChecksumBits(Config& c, double v) {
  c.params.quadtree.checksum_bits = static_cast<int>(v);
}
// single-grid's forced level:
void SetForcedLevel(Config& c, double v) {
  c.auto_level = v < 0;
  c.params.single_grid_level = static_cast<int>(v);
}

}  // namespace

const std::vector<Sweep>& PaperSweeps() {
  using enum Stat;
  const Column quadtree{"quadtree_B", kBytes};
  const Column adaptive{"adaptive_B", kBytes, "quadtree-adaptive"};
  const Column exact{"exact_B", kBytes, "exact-iblt"};
  const Column full{"full_B", kBytes, "full-transfer"};
  // Each sweep: id, title, shape, base workload, axes, trials, scenario
  // and context seeds, columns, and whether wire_golden pins it.
  static const std::vector<Sweep> sweeps = {
      // Robust cost grows linearly in k and stays far below full transfer;
      // exact reconciliation pays for the ~2n noisy difference.
      {"E1", "communication vs k (n=4096, d=2, delta=2^20, eps=2)",
       "robust ~ O(k log Delta) << exact ~ O(n log Delta) <= full transfer",
       {.n = 4096, .noise = 2},
       {{"k", SetK, {1, 2, 4, 8, 16, 32, 64, 128, 256}}}, 1, 1, 42,
       {quadtree, adaptive, exact, full, {"qt_level", kChosenLevel}}, true},
      // The IBLT sizing headroom and decode budget trade bytes for decode
      // success and a finer level.
      {"E2", "EMD quality vs communication (n=256, d=2, k=8)",
       "EMD/EMD_k drops toward O(1) as budget grows, then saturates",
       {.n = 256, .log_delta = 16, .k = 8, .noise = 2},
       {{"headroom", SetHeadroom, {0.7, 0.9, 1.1, 1.35, 1.8, 2.5}},
        {"budgetx", SetBudgetX, {2, 4, 8}}}, 10, 100, 7,
       {{"bytes", kBytes}, {"emd_ratio", kRatioMean},
        {"succ_rate", kSuccessRate}, {"level_med", kLevelMedian}}, false},
      // The headline robustness experiment: at any ε > 0 every point
      // differs bit for bit, while the quadtree's cost does not depend on ε;
      // only its decoded level moves.
      {"E3", "noise sweep (n=2048, d=2, delta=2^20, k=8)",
       "exact cost explodes at any eps>0; robust cost flat in eps; chosen "
       "level tracks eps",
       {.n = 2048, .k = 8},
       {{"eps", SetNoise, {0, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}}}, 1, 3, 11,
       {quadtree, adaptive, exact, full, {"qt_level", kChosenLevel},
        {"ad_level", kChosenLevel, "quadtree-adaptive"}}, true},
      // Robust bytes are flat in n (only the count field widens); full
      // transfer and exact reconciliation are linear. wire_golden gates
      // both shapes on the pinned rows (DESIGN §3.4).
      {"E4", "scaling in n (d=2, delta=2^20, k=16, eps=2)",
       "robust bytes ~flat in n; exact and full transfer linear; robust "
       "time linear",
       {.k = 16, .noise = 2},
       {{"n", SetN, {256, 512, 1024, 2048, 4096, 8192, 16384, 32768}}}, 1, 5,
       17, {quadtree, adaptive, exact, full, {"qt_secs", kSeconds}}, true},
      // The O(d) approximation: bytes grow with the packed cell payload,
      // and EMD / EMD_k at most ~linearly in d.
      {"E5", "dimension sweep (n=256, delta=2^10, k=8, eps=1)",
       "bytes ~ linear in d; EMD/EMD_k grows at most ~ d",
       {.n = 256, .log_delta = 10, .k = 8, .noise = 1},
       {{"d", SetD, {1, 2, 4, 8, 16}}}, 10, 200, 23,
       {{"bytes", kBytes}, {"emd_ratio_mean", kRatioMean},
        {"emd_ratio_p90", kRatioP90}, {"succ_rate", kSuccessRate},
        {"level_med", kLevelMedian}}, false},
      // Noise relative to Δ keeps the geometry self-similar: the one-shot
      // ships log Δ levels of ~d·log Δ-bit cells, the adaptive variant one.
      {"E6", "universe sweep (n=1024, d=2, k=8, eps=delta/2^14)",
       "one-shot ~ (log Delta)^2; adaptive ~ log Delta; both << full "
       "transfer growth",
       {.n = 1024, .k = 8, .noise_per_delta = 1.0 / (1 << 14)},
       {{"log2_delta", SetLogDelta, {8, 12, 16, 20, 24, 28}}}, 1, 7, 29,
       {quadtree, adaptive, {"full_B(n*d*L/8)", kPackedBytes},
        {"qt_level", kChosenLevel}}, true},
      // Levels finer than the noise never decode, coarser ones inflate the
      // repair error, and the automatic choice sits at the knee. CI asserts
      // these rows.
      {"E7", "forced level vs auto (n=256, d=2, delta=2^16, k=8, eps=4)",
       "fine levels fail to decode; coarse levels inflate EMD; auto picks "
       "the knee",
       {.n = 256, .log_delta = 16, .k = 8, .noise = 4},
       {{"level",
         SetForcedLevel,
         {0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, -1}}}, 8, 300, 31,
       {{"succ_rate", kSuccessRate, "single-grid"},
        {"bytes", kBytes, "single-grid"},
        {"emd_after_mean", kEmdAfterMean, "single-grid"}}, false},
      // The adaptive variant replaces the log Δ-fold IBLT shipment with
      // strata probes plus one IBLT, for 2 extra rounds.
      {"E10", "one-shot vs adaptive rounds ablation (n=1024, d=2, eps=2)",
       "adaptive trades 2 extra rounds for ~log Delta fewer IBLT bytes; wins "
       "for large k and Delta",
       {.n = 1024, .noise = 2},
       {{"k", SetK, {4, 16, 64}}, {"log2Delta", SetLogDelta, {12, 20, 28}}}, 1,
       9, 37,
       {{"oneshot_B", kBytes}, {"os_rounds", kRounds},
        {"adaptive_B", kBytes, "quadtree-adaptive"},
        {"ad_rounds", kRounds, "quadtree-adaptive"},
        {"probe_B", kPhaseBytes, "quadtree-adaptive", "qt-strata"},
        {"iblt_B", kPhaseBytes, "quadtree-adaptive", "qt-level-iblt"}},
       false},
      // The LSH variant's level count does not grow with d·log Δ, so it
      // closes on the quadtree as d grows.
      {"E11",
       "quadtree vs LSH extension across d (n=192, delta=2^8, k=6, eps=1)",
       "LSH variant closes the gap / wins as d grows; both cut EMD vs no "
       "reconciliation",
       {.n = 192, .log_delta = 8, .k = 6, .noise = 1},
       {{"d", SetD, {2, 4, 8, 16, 32}}}, 6, 400, 41,
       {{"qt_B", kBytes}, {"lsh_B", kBytes, "mlsh-riblt"},
        {"qt_emd/before", kEmdGainMean},
        {"lsh_emd/before", kEmdGainMean, "mlsh-riblt"},
        {"qt_succ", kSuccessRate}, {"lsh_succ", kSuccessRate, "mlsh-riblt"}},
       false},
      // Shipping every s-th level cuts bytes ~1/s and coarsens the decoded
      // level by at most s - 1.
      {"E14a", "level stride ablation (n=512, d=2, delta=2^20, k=8, eps=2)",
       "bytes ~ 1/stride with bounded quality loss",
       {.n = 512, .k = 8, .noise = 2},
       {{"stride", SetStride, {1, 2, 3, 4, 6}}}, 8, 600, 51,
       {{"bytes", kBytes}, {"succ", kSuccessRate},
        {"level_med", kLevelMedian}, {"emd_mean", kEmdAfterMean}}, false},
      // Narrower checksums shrink every table; the value/key cross-check
      // catches the corrupt cells they let through.
      {"E14b", "checksum width ablation (same workload)",
       "bytes fall with width; no quality loss down to ~16 bits",
       {.n = 512, .k = 8, .noise = 2},
       {{"check_bits", SetChecksumBits, {8, 16, 24, 32, 48, 64}}}, 8, 700, 61,
       {{"bytes", kBytes}, {"succ", kSuccessRate},
        {"emd_mean", kEmdAfterMean}}, false},
  };
  return sweeps;
}

std::vector<Config> Configs(const Sweep& sweep) {
  std::vector<Config> configs(1);
  configs[0].workload = sweep.base;
  for (const Axis& axis : sweep.axes) {
    std::vector<Config> product;
    for (const Config& config : configs) {
      for (double value : axis.values) {
        product.push_back(config);
        product.back().values.push_back(value);
        axis.set(product.back(), value);
      }
    }
    configs = std::move(product);
  }
  for (Config& config : configs) config.params.k = config.workload.k;
  return configs;
}

Trial MakeTrial(const Sweep& sweep, const Config& config, int trial) {
  const Workload& w = config.workload;
  const int64_t delta = int64_t{1} << w.log_delta;
  const workload::Scenario scenario = workload::StandardScenario(
      w.n, w.d, delta, w.k,
      w.noise + w.noise_per_delta * static_cast<double>(delta),
      sweep.scenario_seed + static_cast<uint64_t>(trial));
  Trial out{scenario.Materialize(), {}, {}};
  out.context.universe = scenario.universe;
  out.context.seed = sweep.context_seed + static_cast<uint64_t>(trial);
  out.options.metric = scenario.metric;
  out.options.measure_quality = false;
  for (const Column& column : sweep.columns) {
    const Stat s = column.stat;
    const bool ratio = s == Stat::kRatioMean || s == Stat::kRatioP90;
    if (ratio) out.options.k = w.k;  // EMD_k, the costly part
    if (ratio || s == Stat::kEmdAfterMean || s == Stat::kEmdGainMean) {
      out.options.measure_quality = true;
    }
  }
  return out;
}

std::string ProtocolOf(const Column& column, const Config& config) {
  const std::string_view protocol = column.protocol;
  if (config.auto_level && protocol == "single-grid") return "quadtree";
  return std::string(protocol);
}

std::vector<std::string> Protocols(const Sweep& sweep, const Config& config) {
  std::vector<std::string> protocols;
  for (const Column& column : sweep.columns) {
    const std::string protocol = ProtocolOf(column, config);
    if (column.stat != Stat::kPackedBytes &&
        std::find(protocols.begin(), protocols.end(), protocol) ==
            protocols.end()) {
      protocols.push_back(protocol);
    }
  }
  return protocols;
}

std::string KeyCell(double value) { return FormatCompact(value, 10); }

std::string CellId(const Sweep& sweep, const Config& config) {
  std::string id = sweep.id;
  for (size_t i = 0; i < sweep.axes.size(); ++i) {
    id += i == 0 ? '/' : ',';
    id += sweep.axes[i].column;
    id += '=';
    id += KeyCell(config.values[i]);
  }
  return id;
}

}  // namespace bench
}  // namespace rsr
