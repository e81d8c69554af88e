// The paper sweeps E1–E7, E10, E11 and E14 as one table.
//
// Each Sweep is one BENCH_<id>.json table: a base workload, the axes that
// vary it, the seeds of each trial, and the columns, each a statistic of
// one protocol's trials. bench_paper_sweep runs every row of the table
// and writes its JSON; wire_golden reads the same table and pins the bits
// of every configuration of a `pinned` sweep at the sweep's own n, so a
// change to a sweep moves its golden rows with it.

#ifndef RSR_BENCH_PAPER_SWEEPS_H_
#define RSR_BENCH_PAPER_SWEEPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "recon/evaluate.h"
#include "recon/registry.h"
#include "workload/scenario.h"

namespace rsr {
namespace bench {

/// A StandardScenario and the k every protocol is sized for. Noise may
/// also scale with Δ, which keeps E6's geometry self-similar.
struct Workload {
  size_t n = 0;
  int d = 2;
  int log_delta = 20;
  size_t k = 0;
  double noise = 0.0;
  double noise_per_delta = 0.0;
};

/// One row of a sweep: its axis values and what they resolve to.
struct Config {
  std::vector<double> values;
  Workload workload;
  recon::ProtocolParams params;
  /// A negative forced level runs the quadtree's own choice in place of
  /// single-grid; its key cell reads auto(<mean chosen level>).
  bool auto_level = false;
};

/// One axis of a sweep: its key column, and what each value sets on a
/// configuration (after the sweep's base workload and any outer axis).
struct Axis {
  const char* column;
  void (*set)(Config& config, double value);
  std::vector<double> values;
};

/// What a column reports of one protocol's trials at one configuration.
/// kBytes to kPhaseBytes (bytes sent under Column::label) read the last
/// trial. kPackedBytes is n·d·log2 Δ / 8, the points packed with no
/// header, and reads no protocol. From kLevelMedian on, a stat is over the
/// successful trials and reads "n/a" when there are none; kRatio* read
/// Evaluation::ratio_vs_emdk and kEmdGainMean emd_after / emd_before.
enum class Stat {
  kBytes,
  kRounds,
  kChosenLevel,
  kSeconds,
  kPhaseBytes,
  kPackedBytes,
  kSuccessRate,
  kLevelMedian,
  kRatioMean,
  kRatioP90,
  kEmdAfterMean,
  kEmdGainMean,
};

struct Column {
  const char* name;
  Stat stat;
  const char* protocol = "quadtree";
  const char* label = "";
};

/// One paper experiment: a BENCH_<id>.json table whose rows run over the
/// product of its axes, outer first. Trial t uses scenario_seed + t and
/// context_seed + t. The columns follow one key column per axis.
struct Sweep {
  const char* id;
  const char* title;
  const char* shape;
  Workload base;
  std::vector<Axis> axes;
  int trials;
  uint64_t scenario_seed;
  uint64_t context_seed;
  std::vector<Column> columns;
  bool pinned;  ///< wire_golden pins every configuration.
};

/// Everything one trial of one configuration runs on.
struct Trial {
  workload::ReplicaPair pair;
  recon::ProtocolContext context;
  recon::EvaluateOptions options;
};

/// Every sweep, in the order bench_paper_sweep runs them.
const std::vector<Sweep>& PaperSweeps();

/// The sweep's rows, one per point of the product of its axes.
std::vector<Config> Configs(const Sweep& sweep);

/// The instance, context and evaluation options of trial `trial`. Quality
/// is measured only where a column reads it.
Trial MakeTrial(const Sweep& sweep, const Config& config, int trial);

/// The registry name that runs `column` in `config`.
std::string ProtocolOf(const Column& column, const Config& config);

/// The distinct protocols a row measures, in column order.
std::vector<std::string> Protocols(const Sweep& sweep, const Config& config);

/// An axis value as its key cell prints it.
std::string KeyCell(double value);

/// "E1/k=2": the sweep id and each axis at its value.
std::string CellId(const Sweep& sweep, const Config& config);

}  // namespace bench
}  // namespace rsr

#endif  // RSR_BENCH_PAPER_SWEEPS_H_
