// Quickstart: the smallest end-to-end use of the rsr public API, driving
// the two endpoint sessions explicitly — the shape a real deployment has,
// where Alice and Bob live on different machines and you own the transport.
//
// Two replicas of a 2-D point set differ by per-point measurement noise
// plus a few genuinely different points. Exact synchronisation would ship
// almost everything; robust reconciliation ships O(k) quadtree sketches and
// leaves Bob with a set whose earth mover's distance to Alice's is close to
// the best achievable after discounting the k outliers.
//
// Build & run:   ./examples/quickstart

#include <cstdio>
#include <memory>

#include "geometry/emd.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "workload/generator.h"

int main() {
  using namespace rsr;

  // 1. A universe: 2-D points with 16-bit coordinates.
  const Universe universe = MakeUniverse(int64_t{1} << 16, 2);

  // 2. Two noisy replicas of the same 256-point cloud, with 8 outliers.
  workload::CloudSpec cloud;
  cloud.universe = universe;
  cloud.n = 256;
  cloud.shape = workload::CloudShape::kClusters;
  workload::PerturbationSpec perturbation;
  perturbation.noise = workload::NoiseKind::kGaussian;
  perturbation.noise_scale = 2.0;
  perturbation.outliers = 8;
  const workload::ReplicaPair pair =
      workload::MakeReplicaPair(cloud, perturbation, /*seed=*/2024);

  // 3. Look the protocol up by name. The context seed plays the role of
  //    public coins: both parties derive identical hash functions from it.
  recon::ProtocolContext context;
  context.universe = universe;
  context.seed = 7;
  recon::ProtocolParams params;
  params.k = 8;  // outlier budget
  const std::unique_ptr<recon::Reconciler> protocol =
      recon::MakeReconciler("quadtree", context, params);

  // 4. Each party is an independently driveable endpoint. In production
  //    the two sessions live in different processes and the loop below is
  //    your network; here an accounting channel plays that role.
  std::unique_ptr<recon::PartySession> alice =
      protocol->MakeAliceSession(pair.alice);
  std::unique_ptr<recon::PartySession> bob =
      protocol->MakeBobSession(pair.bob);

  transport::Channel channel;
  for (auto& m : alice->Start()) {
    channel.Send(transport::Direction::kAliceToBob, std::move(m));
  }
  for (auto& m : bob->Start()) {
    channel.Send(transport::Direction::kBobToAlice, std::move(m));
  }
  while (!bob->IsDone()) {
    bool progress = false;
    while (!bob->IsDone() &&
           channel.HasPending(transport::Direction::kAliceToBob)) {
      auto msg = channel.Receive(transport::Direction::kAliceToBob);
      for (auto& m : bob->OnMessage(std::move(*msg))) {
        channel.Send(transport::Direction::kBobToAlice, std::move(m));
      }
      progress = true;
    }
    while (!alice->IsDone() &&
           channel.HasPending(transport::Direction::kBobToAlice)) {
      auto msg = channel.Receive(transport::Direction::kBobToAlice);
      for (auto& m : alice->OnMessage(std::move(*msg))) {
        channel.Send(transport::Direction::kAliceToBob, std::move(m));
      }
      progress = true;
    }
    if (!progress) break;  // half-open failure; result carries the error
  }
  const recon::ReconResult result = bob->TakeResult();

  // 5. Report.
  std::printf("protocol succeeded:   %s\n", result.success ? "yes" : "no");
  if (result.error != recon::SessionError::kNone) {
    std::printf("session error:        %s\n",
                recon::SessionErrorName(result.error));
  }
  std::printf("decoded at level:     %d (cell side %lld)\n",
              result.chosen_level,
              static_cast<long long>(int64_t{1} << result.chosen_level));
  std::printf("differing cell pairs: %zu\n", result.decoded_entries);
  std::printf("communication:        %.1f bytes (%zu messages, %zu rounds)\n",
              channel.stats().total_bytes(), channel.stats().message_count,
              channel.stats().rounds);
  std::printf("full transfer would be %.1f bytes\n",
              256.0 * universe.BitsPerPoint() / 8.0);
  std::printf("(robust cost scales with k, not n: at this toy n shipping\n");
  std::printf(" everything is cheaper; the crossover is near n ~ 10^4 — \n");
  std::printf(" see E4 in bench_paper_sweep)\n");

  const double before = ExactEmd(pair.alice, pair.bob, Metric::kL2);
  const double after = ExactEmd(pair.alice, result.bob_final, Metric::kL2);
  const double best =
      ExactEmdK(pair.alice, pair.bob, params.k, Metric::kL2);
  std::printf("EMD before:  %.1f\n", before);
  std::printf("EMD after:   %.1f\n", after);
  std::printf("EMD_k bound: %.1f  (k=%zu outliers discounted)\n", best,
              params.k);
  return result.success ? 0 : 1;
}
