// perfbench: the sync server's benchmark (see ../README.md).
//
//   perfbench --workload <serve-replay|churn-rw|mesh-repl> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--trace-out <path>]
//
// Prints a header line with the run's settings, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (spans, probes, counts and the tracing overhead).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_INFO
#define PERFBENCH_BUILD_INFO "unknown"
#endif

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// False for a metric the traced run reports as a layer metric instead:
  /// sync p90 is the interference tail, too unsteady between runs on a
  /// shared machine to bound end to end.
  bool end_to_end = true;
};

// Metrics a window measures (every end-to-end metric but setup_s).
constexpr MetricDef kWindowMetrics[] = {
    {"syncs_per_s", "1/s"},
    {"sync_p50_ms", "ms"},
    {"sync_p90_ms", "ms", false},
    {"repair_p50_ms", "ms"},
    {"host_cpu_ms_per_sync", "ms"},
    {"client_cpu_ms_per_sync", "ms"},
    {"cpu_ms_per_sync", "ms"},
    {"up_bytes_per_sync", "B"},
    {"down_bytes_per_sync", "B"},
    {"write_p50_ms", "ms"},
    {"rss_mb", "MB"},
};

constexpr const char* kLayerMetrics[] = {
    "net.connect_ms",
    "server.accept_wait_ms",
    "server.session_ms",
    "server.session_self_ms",
    "net.frame_us",
    "recon.bob_cached_ms",
    "recon.bob_make_ms",
    "recon.bob_rebuild_ms",
    "recon.cached_over_rebuild",
    "recon.alice_start_ms",
    "store.build_s",
    "store.apply_ms",
    "writer.late_ms",
    "writer.p90_ms",
    "client.sync_p90_ms",
    "replica.apply_ms",
    "replica.apply_replicated_ms",
    "recon.riblt_repair_ms",
    "recon.chosen_level",
    "recon.decoded_entries",
    "replica.tail_rounds",
    "replica.repair_rounds",
    "replica.repair_exact_share",
    "server.generations_served",
};

/// The metric as one slice measured it; nullopt when the slice has no
/// sample for it (e.g. serve-replay's read slices carry no writes).
std::optional<double> WindowValue(const Window& w, const std::string& name) {
  const bool syncs = w.syncs > 0;
  const double n = static_cast<double>(w.syncs);
  auto when = [](bool defined, double value) -> std::optional<double> {
    if (!defined) return std::nullopt;
    return value;
  };
  if (name == "syncs_per_s") return when(syncs, n / w.wall_s);
  if (name == "sync_p50_ms") return when(syncs, 1e3 * w.sync_s.Quantile(0.5));
  if (name == "sync_p90_ms") return when(syncs, 1e3 * w.sync_s.Quantile(0.9));
  if (name == "repair_p50_ms") {
    return when(!w.repair_s.empty(), 1e3 * w.repair_s.Quantile(0.5));
  }
  if (name == "host_cpu_ms_per_sync") return when(syncs, 1e3 * w.host_cpu_s / n);
  if (name == "client_cpu_ms_per_sync") {
    return when(syncs, 1e3 * w.client_cpu_s / n);
  }
  if (name == "cpu_ms_per_sync") return when(syncs, 1e3 * w.cpu_s / n);
  if (name == "up_bytes_per_sync") return when(syncs, w.up_bytes);
  if (name == "down_bytes_per_sync") return when(syncs, w.down_bytes);
  if (name == "write_p50_ms") {
    return when(!w.write_s.empty(), 1e3 * w.write_s.Quantile(0.5));
  }
  if (name == "rss_mb") return when(w.rss_mb > 0, w.rss_mb);
  return std::nullopt;
}

/// Median over the slices that measured `name`; rss_mb is a peak, so it
/// takes the largest.
double Summarize(const Windows& windows, const std::string& name) {
  Samples values;
  for (const Window& w : windows) {
    if (const std::optional<double> v = WindowValue(w, name)) values.Add(*v);
  }
  return name == "rss_mb" ? values.Max() : values.Median();
}

}  // namespace

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = {"setup_s"};
    for (const MetricDef& def : kWindowMetrics) {
      if (def.end_to_end) out.push_back(def.name);
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out(std::begin(kLayerMetrics),
                                 std::end(kLayerMetrics));
    for (const MetricDef& def : kWindowMetrics) {
      out.push_back(std::string("overhead.") + def.name);
    }
    return out;
  }();
  return names;
}

void Window::TakeCpu(const Phase& phase, double load_cpu) {
  host_cpu_s = phase.process_cpu() - phase.worker_cpu() - phase.main_cpu();
  client_cpu_s = load_cpu;
  cpu_s = phase.process_cpu() - phase.main_cpu() - phase.excluded_cpu();
}

void SyncCounts::Add(const rsr::server::SyncOutcome& outcome) {
  levels.Add(outcome.result.chosen_level);
  entries.Add(static_cast<double>(outcome.result.decoded_entries));
  generations.insert(outcome.server_generation);
  if (outcome.result.success) ++decoded;
}

void SyncCounts::Merge(const SyncCounts& other) {
  levels.Append(other.levels);
  entries.Append(other.entries);
  generations.insert(other.generations.begin(), other.generations.end());
  decoded += other.decoded;
}

size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds + 0.5));
}

void SetEndToEnd(const Windows& windows, const Samples& setups,
                 Report* report) {
  report->Set("setup_s", setups.Median(), "s");
  std::printf("# set-up ms, %zu per slice:", kSetupsPerSlice);
  for (double v : setups.values()) std::printf(" %.1f", 1e3 * v);
  std::printf("\n");
  for (const MetricDef& def : kWindowMetrics) {
    if (def.end_to_end) {
      report->Set(def.name, Summarize(windows, def.name), def.unit);
    }
  }
  // Per-slice figures: they show when a run straddled a shift in the
  // machine's speed.
  for (const char* name : {"syncs_per_s", "sync_p50_ms", "sync_p90_ms"}) {
    std::printf("# %s per slice:", name);
    for (const Window& w : windows) {
      if (const std::optional<double> v = WindowValue(w, name)) {
        std::printf(" %.4g", *v);
      }
    }
    std::printf("\n");
  }
}

void SetOverhead(const Windows& untraced, const Windows& traced,
                 Report* report) {
  for (const MetricDef& def : kWindowMetrics) {
    report->Set(std::string("overhead.") + def.name,
                Summarize(traced, def.name) - Summarize(untraced, def.name),
                def.unit);
  }
  report->Set("client.sync_p90_ms", Summarize(untraced, "sync_p90_ms"), "ms");
}

Samples WriteLateness(const Windows& windows) {
  Samples all;
  for (const Window& w : windows) all.Append(w.write_late_s);
  return all;
}

void SetWriterLayer(const Windows& traced, Report* report) {
  Samples writes;
  for (const Window& w : traced) writes.Append(w.write_s);
  report->Set("writer.late_ms", 1e3 * WriteLateness(traced).Median(), "ms");
  report->Set("writer.p90_ms", 1e3 * writes.Quantile(0.9), "ms");
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-replay|churn-rw|mesh-repl> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0.0) return Usage();

  int (*run)(const Args&, Report*, Tracer*) = nullptr;
  if (args.workload == "serve-replay") run = RunServeReplay;
  if (args.workload == "churn-rw") run = RunChurnRw;
  if (args.workload == "mesh-repl") run = RunMeshRepl;
  if (run == nullptr) return Usage();

  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
      "commit=%s build=\"%s\"\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, OnlineCpus(), args.commit.c_str(),
      PERFBENCH_BUILD_INFO);
  std::fflush(stdout);

  Report report;
  Tracer tracer;
  const int status = run(args, &report, &tracer);
  if (status != 0) return status;

  const std::vector<std::string>& names =
      args.trace ? PerLayerNames() : EndToEndNames();
  for (const std::string& name : names) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 3;
    }
  }
  for (const std::string& why : report.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }
  if (args.trace && !args.trace_out.empty() && !tracer.Dump(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return 3;
  }
  // Human-readable copy of every metric, then the result line.
  for (const std::string& name : report.names()) {
    std::printf("# %-32s %.6g %s\n", name.c_str(), report.Get(name),
                report.Unit(name).c_str());
  }
  std::printf("%s\n", report.ToJson(names).c_str());
  return 0;
}
