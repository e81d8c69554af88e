// The three workloads, the window summary every workload fills, and the
// per-layer probes shared by all of them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "server/sketch_store.h"

namespace perfbench {

/// End-to-end metric names, in report order (BENCHMARK.json lists the same).
const std::vector<std::string>& EndToEndNames();
/// Per-layer metric names, in report order.
const std::vector<std::string>& PerLayerNames();

/// What one measurement window produced. A "sync" is one served
/// reconciliation (serve-replay, churn-rw) or one replication round
/// (mesh-repl); a "repair" is a sync that ran a reconciliation protocol.
struct Window {
  double wall_s = 0.0;
  uint64_t syncs = 0;
  Samples sync_s;  ///< Per-sync latency (mesh-repl: tail rounds only).
  Samples repair_s;
  Samples write_s;
  Samples write_late_s;
  double host_cpu_s = 0.0;    ///< Threads the benchmark did not create.
  double client_cpu_s = 0.0;  ///< Load threads, own checks excluded.
  double cpu_s = 0.0;         ///< Whole process, own checks excluded.
  double up_bytes = 0.0;      ///< Framed bytes per sync, client → server.
  double down_bytes = 0.0;    ///< Framed bytes per sync, server → client.
  double rss_mb = 0.0;        ///< ProgramPeakMb() at the end of the window.

  /// Fills the CPU split from a finished phase.
  void TakeCpu(const Phase& phase, double load_cpu);
};

/// Protocol counts of served syncs, reported by the traced run.
struct SyncCounts {
  Samples levels;   ///< Chosen quadtree level per sync.
  Samples entries;  ///< Decoded entries per sync.
  std::set<uint64_t> generations;
  uint64_t decoded = 0;  ///< Syncs whose decode succeeded.

  void Add(const rsr::server::SyncOutcome& outcome);
  void Merge(const SyncCounts& other);
};

/// A run measures in slices of about kSliceSeconds and reports each metric
/// as the median over the slices that measured it, so a few seconds of
/// CPU steal on a shared machine move one slice, not the run's figure.
constexpr double kSliceSeconds = 2.0;
size_t SliceCount(double seconds);
using Windows = std::vector<Window>;

/// Sets every end-to-end metric from the slices; setup_s is the median of
/// the set-up samples, one per slice.
void SetEndToEnd(const Windows& windows, const Samples& setups,
                 Report* report);

/// Trace mode: overhead.<metric> = traced − untraced for every metric the
/// slices measure, and client.sync_p90_ms from the untraced slices.
void SetOverhead(const Windows& untraced, const Windows& traced,
                 Report* report);

/// All writer lateness samples of `windows`, merged.
Samples WriteLateness(const Windows& windows);

/// Trace mode: writer.late_ms (median lateness) and writer.p90_ms (p90 of
/// every traced write; too unsteady under churn to bound end to end).
void SetWriterLayer(const Windows& traced, Report* report);

/// Inputs of the isolated per-layer probes, all from the workload's data.
struct ProbeInputs {
  rsr::recon::ProtocolContext ctx;
  rsr::recon::ProtocolParams params;
  /// Bob side: the host's canonical set.
  const PointSet* canonical = nullptr;
  /// Session probes: `protocol`, Alice's set and her frame.
  std::string protocol;
  const PointSet* alice = nullptr;
  rsr::transport::Message alice_frame;
  /// Writes: the workload's batches, applied in order to `canonical`.
  std::vector<rsr::workload::ChurnBatch> batches;
  /// The riblt-oneshot repair pair (Alice, Bob) at the workload's delta.
  const PointSet* repair_alice = nullptr;
  const PointSet* repair_bob = nullptr;
  /// Replayed handshakes against the live host (0 = skip).
  uint16_t replay_port = 0;
  std::string replay_protocol;
  rsr::transport::Message replay_frame;
  size_t replay_set_size = 0;
};

/// Runs every probe and sets its per-layer metric. Replayed-handshake
/// probes set net.connect_ms / server.* only where `report` lacks them.
void RunProbes(const ProbeInputs& in, Report* report);

int RunServeReplay(const Args& args, Report* report, Tracer* tracer);
int RunChurnRw(const Args& args, Report* report, Tracer* tracer);
int RunMeshRepl(const Args& args, Report* report, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
