// The paper sweeps: runs every row of bench/paper_sweeps.h, prints each
// table and writes its BENCH_<id>.json (E1–E7, E10, E11, E14a, E14b).
// Takes no flags.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/paper_sweeps.h"
#include "transport/channel.h"

namespace rsr {
namespace bench {
namespace {

/// One column's cell, from its protocol's evaluations of every trial.
/// `last` is the last trial, which kPhaseBytes runs again to read its
/// transcript.
std::string Cell(const Column& column, const Config& config,
                 const Trial& last,
                 const std::vector<recon::Evaluation>& runs) {
  SampleSet ok;  // the column's quantity over the successful trials
  for (const recon::Evaluation& e : runs) {
    if (!e.success) continue;
    switch (column.stat) {
      case Stat::kRatioMean:
      case Stat::kRatioP90:
        ok.Add(e.ratio_vs_emdk);
        break;
      case Stat::kEmdAfterMean:
        ok.Add(e.emd_after);
        break;
      case Stat::kEmdGainMean:
        ok.Add(e.emd_after / (e.emd_before + 1e-9));
        break;
      default:
        ok.Add(e.chosen_level);
        break;
    }
  }
  if (column.stat >= Stat::kLevelMedian && ok.count() == 0) return "n/a";
  const Workload& w = config.workload;
  switch (column.stat) {
    case Stat::kBytes:
      return Bits(runs.back().comm_bits);
    case Stat::kRounds:
      return std::to_string(runs.back().rounds);
    case Stat::kChosenLevel:
      return std::to_string(runs.back().chosen_level);
    case Stat::kSeconds:
      return Num(runs.back().wall_seconds, 3);
    case Stat::kPhaseBytes: {
      const auto reconciler = recon::MakeReconciler(
          ProtocolOf(column, config), last.context, config.params);
      transport::Channel channel;
      (void)reconciler->Run(last.pair.alice, last.pair.bob, &channel);
      size_t bits = 0;
      for (const auto& entry : channel.transcript()) {
        if (entry.label == column.label) bits += entry.bits;
      }
      return Bits(bits);
    }
    case Stat::kPackedBytes:
      return Bits(w.n * static_cast<size_t>(w.d * w.log_delta));
    case Stat::kSuccessRate:
      return Num(static_cast<double>(ok.count()) / runs.size());
    case Stat::kLevelMedian:
      return Num(ok.Median());
    case Stat::kRatioP90:
      return Num(ok.Percentile(90));
    case Stat::kRatioMean:
    case Stat::kEmdAfterMean:
    case Stat::kEmdGainMean:
      return Num(ok.Mean());
  }
  return "";
}

void RunSweep(const Sweep& sweep) {
  Banner(sweep.id, sweep.title, sweep.shape);
  std::vector<std::string> header;
  for (const Axis& axis : sweep.axes) header.push_back(axis.column);
  for (const Column& column : sweep.columns) header.push_back(column.name);
  Row(header);

  for (const Config& config : Configs(sweep)) {
    std::map<std::string, std::vector<recon::Evaluation>> runs;
    Trial trial;
    for (int t = 0; t < sweep.trials; ++t) {
      trial = MakeTrial(sweep, config, t);
      for (const std::string& protocol : Protocols(sweep, config)) {
        runs[protocol].push_back(recon::EvaluateProtocol(
            protocol, trial.context, config.params, trial.pair.alice,
            trial.pair.bob, trial.options));
      }
    }
    std::vector<std::string> cells;
    for (size_t i = 0; i < sweep.axes.size(); ++i) {
      if (!config.auto_level || config.values[i] >= 0) {
        cells.push_back(KeyCell(config.values[i]));
        continue;
      }
      double level_sum = 0;  // over every trial, failed ones included
      for (const auto& e : runs["quadtree"]) level_sum += e.chosen_level;
      cells.push_back("auto(" + Num(level_sum / sweep.trials, 3) + ")");
    }
    for (const Column& column : sweep.columns) {
      cells.push_back(
          Cell(column, config, trial, runs[ProtocolOf(column, config)]));
    }
    Row(cells);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace rsr

int main() {
  for (const rsr::bench::Sweep& sweep : rsr::bench::PaperSweeps()) {
    rsr::bench::RunSweep(sweep);
  }
  return 0;
}
