// Executes one fuzz script against real ReplicaNodes and the real serving
// stack, then checks the convergence oracle.
//
// RunScript builds config.num_peers ReplicaNodes (each a full serving host
// with its own changelog), applies the scripted steps in order, and at the
// end drives the mesh to QUIESCENCE: repeated sweeps in which every
// follower pulls from the designated writer, until no pull changes
// anything or the sweep budget runs out. The oracle then demands, for
// every pair of peers, exact multiset equality (SetDivergence == 0) AND
// earth mover's distance zero — computed by geometry/emd.h, a measure the
// replication stack never consults, so a bug shared by the sync driver and
// the serving layer cannot also hide the check.
//
// Step execution mirrors production topology:
//   * writer mutations journal through ReplicaNode::Apply; follower
//     mutations are off-log InstallRepair writes that mark the node dirty
//     (fuzz/script.h explains the single-writer model);
//   * sync steps run ReplicaNode::SyncWithPeer over in-process pipes or
//     loopback TCP against the source's threaded host — or, for
//     async_host steps, tail-fetch from a transient AsyncSyncServer while
//     the "@pull" repair leg stays on the source node, whose position the
//     transient host does not carry (the split the two-factory
//     SyncWithPeer seam exists for);
//   * wire faults (net/fault_stream.h) wrap the puller's dialed streams:
//     mid-verb disconnects and byte-dribbled I/O;
//   * client-sync steps are a second oracle: one SyncClient run over the
//     wire must match recon::DrivePair on the same inputs bit for bit.
//
// Determinism: a report is a pure function of the script. All randomness
// is seeded from script fields, serving threads exchange bytes with one
// puller sequentially, and quiescence pulls use clean pipes.

#ifndef RSR_FUZZ_RUNNER_H_
#define RSR_FUZZ_RUNNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "fuzz/script.h"

namespace rsr {
namespace fuzz {

enum class FuzzFailure : int {
  kNone = 0,
  kDiverged,        ///< Quiescence never reached set equality.
  kEmdNonzero,      ///< Sets "equal" but EMD > 0 (oracle cross-check).
  kOracleMismatch,  ///< Wire sync != in-process driver on same inputs.
};

const char* FuzzFailureName(FuzzFailure failure);

struct FuzzRunnerOptions {
  /// Quiescence sweeps before declaring divergence. Two sweeps suffice for
  /// a clean mesh (one to converge, one to confirm); the margin covers
  /// escalation chains (failed sized repair -> forced full transfer).
  size_t max_quiescence_sweeps = 8;
  /// EmdAuto exact/greedy crossover. Converged (identical) sets cost O(n^2)
  /// either way, so this only bounds the diagnostic cost of a failure.
  size_t emd_exact_limit = 64;
};

struct RunReport {
  bool ok = false;
  FuzzFailure failure = FuzzFailure::kNone;
  std::string detail;  ///< Human-readable failure description ("" if ok).
  size_t failed_step = ~size_t{0};  ///< Step index, or ~0 for quiescence.
  size_t ops_applied = 0;
  size_t syncs_run = 0;
  size_t sync_errors = 0;  ///< Rounds ending in kError (expected under
                           ///< fault injection; not themselves failures).
  size_t client_syncs = 0;
  size_t mesh_pulls = 0;
  size_t quiescence_sweeps = 0;
  /// One final metrics-registry excerpt per peer (counter and gauge
  /// samples in Prometheus sample syntax; histogram series are elided).
  /// Counterexample artifacts embed these as '#' header lines so a shrunk
  /// script shows which catch-up path (tail / repair / escalation) the
  /// failing run actually took. See DESIGN.md §12.
  std::vector<std::string> peer_metrics;
};

/// Runs `script` to quiescence and reports. Deterministic per script.
RunReport RunScript(const FuzzScript& script,
                    const FuzzRunnerOptions& options = {});

}  // namespace fuzz
}  // namespace rsr

#endif  // RSR_FUZZ_RUNNER_H_
