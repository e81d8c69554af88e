// Quality evaluation of a protocol run: communication, rounds, wall-clock
// time, and EMD-based quality relative to the trimmed optimum EMD_k.
// All benchmark tables are produced through this harness so every protocol
// is measured identically.

#ifndef RSR_RECON_EVALUATE_H_
#define RSR_RECON_EVALUATE_H_

#include <string>

#include "geometry/metric.h"
#include "recon/protocol.h"
#include "recon/registry.h"

namespace rsr {
namespace recon {

/// What EvaluateProtocol measures for one run.
struct Evaluation {
  std::string protocol;  ///< The registry name the run was asked for.
  bool success = false;
  size_t comm_bits = 0;
  size_t rounds = 0;
  size_t messages = 0;
  double wall_seconds = 0.0;

  double emd_before = 0.0;  ///< EMD(alice, bob) before the protocol.
  double emd_after = 0.0;   ///< EMD(alice, bob_final), when their sizes
                            ///< match.
  double emd_k = 0.0;       ///< Reference EMD_k(alice, bob) (if computed).
  /// emd_after / max(emd_k, 1): the approximation ratio the paper bounds
  /// by O(d). Meaningful only when emd_k was computed.
  double ratio_vs_emdk = 0.0;

  int chosen_level = -1;
  size_t decoded_entries = 0;
  size_t attempts = 1;
};

/// Options controlling how expensive the quality measurement is.
struct EvaluateOptions {
  Metric metric = Metric::kL2;
  /// Sets of size <= exact_emd_limit use the exact O(n^3) EMD; larger sets
  /// use the greedy upper bound.
  size_t exact_emd_limit = 512;
  /// If k > 0 and n <= exact_emd_limit, also compute EMD_k and the ratio.
  size_t k = 0;
  /// Skip EMD computation entirely (for communication-only sweeps).
  bool measure_quality = true;
};

/// Instantiates `protocol_name` from the global ProtocolRegistry, runs it
/// on (alice, bob) over a fresh channel through the session driver
/// (Reconciler::Run), and measures it. A name the registry cannot build
/// yields a failed Evaluation; either way `protocol` is the name.
Evaluation EvaluateProtocol(const std::string& protocol_name,
                            const ProtocolContext& context,
                            const ProtocolParams& params,
                            const PointSet& alice, const PointSet& bob,
                            const EvaluateOptions& options);

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_EVALUATE_H_
