// Fuzz script model: a deterministic, replayable description of one
// multi-peer convergence run.
//
// A FuzzScript is the COMPLETE input of one fuzzer run: the mesh shape
// (peer count, designated writer, universe, protocol params), the shared
// initial point cloud, and an ordered list of steps — point mutations on
// individual peers, pairwise anti-entropy syncs through the real serving
// stack (a node's blocking pump over pipes, its reactor over loopback TCP,
// or a transient async host, with optional wire faults), client-oracle
// syncs, and randomized mesh rounds. Every point in
// the script is CONCRETE (not re-derived from an RNG at run time), so
// removing a step never shifts the meaning of the steps after it — the
// property greedy shrinking (fuzz/shrink.h) depends on.
//
// Scripts serialize to a line-oriented text format ("rsr-fuzz-script v1")
// such that Serialize(Parse(Serialize(s))) == Serialize(s) byte for byte;
// a dumped counterexample file replays exactly (fuzz/fuzz_replay_main.cc).
//
// The single-writer model: one peer (config.writer) journals its mutations
// through the replication changelog; every other peer's scripted mutations
// are OFF-LOG writes (applied + marked dirty, never journaled), because
// two independently journaled histories have incomparable sequence
// numbers. Convergence semantics are pull-replace: at quiescence every
// follower pulls from the writer until the whole mesh holds the writer's
// exact set. Sync steps therefore never make the writer the puller — a
// writer that installed a follower's off-log set would serve a tail that
// silently omits the installed delta.

#ifndef RSR_FUZZ_SCRIPT_H_
#define RSR_FUZZ_SCRIPT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point.h"

namespace rsr {
namespace fuzz {

enum class StepKind : int {
  kInsert = 0,  ///< Insert `point` at `peer`.
  kUpdate,      ///< Replace `old_point` with `point` at `peer` (one batch).
  kDelete,      ///< Erase `point` at `peer` (no-op if absent).
  kSync,        ///< `peer` runs one anti-entropy pull from `source`.
  kClientSync,  ///< Oracle: wire-sync `peer`'s set against `source`'s host
                ///< and demand the result match the in-process driver.
  kMeshRound,   ///< `mesh_pulls` random follower pulls seeded by aux_seed.
};

const char* StepKindName(StepKind kind);

struct FuzzStep {
  StepKind kind = StepKind::kInsert;
  size_t peer = 0;    ///< Acting peer: mutation target / puller / client.
  size_t source = 0;  ///< Peer pulled from / serving peer.
  Point point;        ///< Mutation payload (update: the inserted point).
  Point old_point;    ///< Update only: the erased point.
  bool tcp = false;   ///< Dial loopback TCP instead of in-process pipes.
  bool async_host = false;  ///< Sync only: tail leg served by a transient
                            ///< AsyncSyncServer (repair leg stays on the
                            ///< source node; see fuzz/runner.cc).
  std::string protocol;     ///< Client sync: registry protocol to request.
  uint64_t aux_seed = 0;    ///< Mesh round: pair-choice RNG seed.
  size_t mesh_pulls = 0;    ///< Mesh round: number of pulls.
  /// Wire faults on the puller's dialed connections (net/fault_stream.h):
  /// kill the stream after this many bytes (0 = never)...
  size_t fault_after_bytes = 0;
  /// ...and/or fragment I/O into 1-byte reads / tiny writes.
  bool dribble = false;

  bool operator==(const FuzzStep&) const = default;
};

struct FuzzConfig {
  uint64_t seed = 0;  ///< Generator seed (provenance; replay uses the body).
  size_t num_peers = 2;
  size_t writer = 0;
  int64_t universe_delta = 1 << 12;
  int universe_d = 2;
  uint64_t context_seed = 9;
  size_t params_k = 32;       ///< Shared outlier/IBLT budget (params.k).
  size_t ring_capacity = 64;  ///< Changelog ring; small values force the
                              ///< fallen-off-the-log repair path.
  size_t exact_budget = 0;    ///< ReplicaNodeOptions::exact_budget.
  size_t approx_budget = 0;   ///< ReplicaNodeOptions::approx_budget.
  int geometry = 0;           ///< workload::AdversarialGeometry.
  /// Injected-bug seam for the harness self-test (fuzz/runner.h): 0 = off,
  /// 1 = drop the first erase of every changelog entry `tamper_peer`
  /// tail-replays. Part of the script so a dumped counterexample replays
  /// the bug from the file alone.
  int tamper_kind = 0;
  size_t tamper_peer = 0;

  bool operator==(const FuzzConfig&) const = default;
};

struct FuzzScript {
  FuzzConfig config;
  PointSet initial;  ///< Every peer's starting set.
  std::vector<FuzzStep> steps;

  bool operator==(const FuzzScript&) const = default;
};

/// Renders `script` in the "rsr-fuzz-script v1" text format.
std::string SerializeScript(const FuzzScript& script);

/// Parses the text format back. Blank lines and lines starting with '#'
/// are skipped (counterexample files carry a commented header). Returns
/// false on any malformed line; `out` is unspecified then.
bool ParseScript(const std::string& text, FuzzScript* out);

/// Knobs for GenerateScript. The allow_* flags select the serving mixes a
/// campaign wants covered; force_tcp pins every sync/client step to TCP.
struct GenOptions {
  size_t min_peers = 2, max_peers = 5;
  size_t min_initial = 8, max_initial = 32;
  size_t min_steps = 12, max_steps = 48;
  bool allow_tcp = false;
  bool force_tcp = false;
  bool allow_async = false;
  bool allow_mesh = false;
  double fault_prob = 0.15;    ///< Per-sync-step wire-fault probability.
  double dribble_prob = 0.25;  ///< Per-sync-step dribble probability.
  int geometry = -1;           ///< -1 = pick per script.
};

/// Builds one script, every choice drawn from Rng(seed): mesh shape,
/// adversarial geometry (workload/adversarial.h), weighted op mix
/// (insert/update/delete biased toward points the acting peer holds),
/// random pairwise syncs with random transport/host/faults, occasional
/// client-oracle syncs and mesh rounds.
FuzzScript GenerateScript(uint64_t seed, const GenOptions& options = {});

}  // namespace fuzz
}  // namespace rsr

#endif  // RSR_FUZZ_SCRIPT_H_
