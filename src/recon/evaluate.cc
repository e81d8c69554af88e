#include "recon/evaluate.h"

#include <chrono>
#include <memory>

#include "geometry/emd.h"

namespace rsr {
namespace recon {

Evaluation EvaluateProtocol(const std::string& protocol_name,
                            const ProtocolContext& context,
                            const ProtocolParams& params,
                            const PointSet& alice, const PointSet& bob,
                            const EvaluateOptions& options) {
  Evaluation eval;
  eval.protocol = protocol_name;
  const std::unique_ptr<Reconciler> protocol =
      MakeReconciler(protocol_name, context, params);
  if (protocol == nullptr) return eval;

  transport::Channel channel;
  const auto start = std::chrono::steady_clock::now();
  const ReconResult result = protocol->Run(alice, bob, &channel);
  const auto end = std::chrono::steady_clock::now();

  eval.success = result.success;
  eval.comm_bits = channel.stats().total_bits;
  eval.rounds = channel.stats().rounds;
  eval.messages = channel.stats().message_count;
  eval.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  eval.chosen_level = result.chosen_level;
  eval.decoded_entries = result.decoded_entries;
  eval.attempts = result.attempts;

  if (options.measure_quality && alice.size() == bob.size()) {
    eval.emd_before =
        EmdAuto(alice, bob, options.metric, options.exact_emd_limit);
    // EMD is defined between equal-size sets: an S'_B that differs from
    // S_A in size (gap-lattice's grows by T_A) has no emd_after, and so no
    // ratio.
    if (result.bob_final.size() == alice.size()) {
      eval.emd_after = EmdAuto(alice, result.bob_final, options.metric,
                               options.exact_emd_limit);
      if (options.k > 0 && alice.size() <= options.exact_emd_limit) {
        eval.emd_k = ExactEmdK(alice, bob, options.k, options.metric);
        const double denom = eval.emd_k > 1.0 ? eval.emd_k : 1.0;
        eval.ratio_vs_emdk = eval.emd_after / denom;
      }
    }
  }
  return eval;
}

}  // namespace recon
}  // namespace rsr
