// ReplicaMesh: N replicas of one canonical set wired into a full mesh.
//
// A test/bench harness: it constructs N ReplicaNodes from the same seed
// set, gives every node a dialer to every other node, and (optionally) an
// AntiEntropyScheduler per node. Two transports:
//
//   - pipe (default): each dial is an in-process net::PipeStream pair,
//     with a short-lived thread running the peer host's ServeConnection on
//     the far end — the same serving code path TCP exercises, with no
//     sockets, so unit tests stay hermetic and fast.
//   - TCP: every node's SyncServer is Start()ed on a loopback listener and
//     dials go through real connects (bench_e19_replication --transport=tcp).
//
// Convergence measure: Divergence(i, j) is the multiset symmetric
// difference |S_i Δ S_j| — exactly 0 iff the two replicas hold identical
// sets, which is the quiescence criterion the CI asserts on BENCH_E19.

#ifndef RSR_REPLICA_MESH_H_
#define RSR_REPLICA_MESH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "replica/anti_entropy.h"
#include "replica/replica_node.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace replica {

struct ReplicaMeshOptions {
  size_t nodes = 3;
  /// Per-node template: every node is built from these options.
  ReplicaNodeOptions node;
  AntiEntropyOptions anti_entropy;
  bool use_tcp = false;
};

class ReplicaMesh {
 public:
  ReplicaMesh(PointSet initial, ReplicaMeshOptions options);
  ~ReplicaMesh();

  ReplicaMesh(const ReplicaMesh&) = delete;
  ReplicaMesh& operator=(const ReplicaMesh&) = delete;

  size_t size() const { return nodes_.size(); }
  ReplicaNode& node(size_t i) { return *nodes_[i]; }
  const ReplicaNode& node(size_t i) const { return *nodes_[i]; }
  AntiEntropyScheduler& scheduler(size_t i) { return *schedulers_[i]; }

  /// A dialer for node `i` (usable from any thread; each call opens one
  /// fresh connection served by node i's host).
  StreamFactory PeerFactory(size_t i);

  /// One deterministic anti-entropy round: node `i` pulls from node `peer`.
  RoundRecord RunRound(size_t i, size_t peer);

  /// Starts node i's scheduler (periodic randomized rounds).
  bool StartScheduler(size_t i) { return schedulers_[i]->Start(); }
  /// Stops every scheduler and joins all pipe serving threads.
  void StopSchedulers();

  /// Multiset symmetric difference |S_i Δ S_j|.
  size_t Divergence(size_t i, size_t j) const;
  /// Max over all pairs — 0 iff the whole mesh is converged.
  size_t MaxDivergence() const;

 private:
  std::unique_ptr<net::ByteStream> Dial(size_t peer);
  void JoinServeThreads();

  const ReplicaMeshOptions options_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  std::vector<std::unique_ptr<AntiEntropyScheduler>> schedulers_;

  /// Pipe mode: one short-lived thread per dialed connection, running the
  /// peer host's ServeConnection; joined at StopSchedulers/destruction.
  /// Leaf lock: held only to push/swap the thread vector, never while
  /// joining or dialing.
  Mutex serve_mu_;
  std::vector<std::thread> serve_threads_ RSR_GUARDED_BY(serve_mu_);
};

}  // namespace replica
}  // namespace rsr

#endif  // RSR_REPLICA_MESH_H_
