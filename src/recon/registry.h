// String-keyed protocol registry.
//
// Benches, examples, tests and (later) server frontends construct
// reconcilers from a name plus a ProtocolContext and a ProtocolParams bag,
// instead of hard-coding constructors. This is what lets one binary sweep
// every protocol uniformly, and what a sync server will use to negotiate a
// protocol by name with a client.
//
// A protocol's registry key is its only name: a Reconciler carries none,
// and EvaluateProtocol and the serving hosts report the key. The built-in
// names (registered on first use of Global()):
//   "full-transfer"      whole-set baseline
//   "exact-iblt"         strata + IBLT exact baseline
//   "quadtree"           one-shot robust quadtree (the paper's core)
//   "quadtree-adaptive"  3-message strata-probe quadtree
//   "single-grid"        "quadtree" held to one forced level,
//                        params.single_grid_level (min = max level)
//   "mlsh-riblt"         LSH + Robust-IBLT extension
//   "riblt-oneshot"      exact-key one-shot RIBLT baseline
//   "gap-lattice"        gap-guarantee lattice protocol

#ifndef RSR_RECON_REGISTRY_H_
#define RSR_RECON_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gaprecon/gap_recon.h"
#include "lshrecon/mlsh_recon.h"
#include "recon/exact_recon.h"
#include "recon/params.h"
#include "recon/protocol.h"
#include "riblt/riblt_recon.h"

namespace rsr {
namespace recon {

/// Union of every protocol family's tunables. A consumer fills the
/// sub-struct(s) of the protocols it runs; the convenience field `k`
/// (when non-zero) overrides each family's own outlier budget so sweeps
/// can set one knob.
struct ProtocolParams {
  QuadtreeParams quadtree;
  ExactReconParams exact;
  lshrecon::MlshParams mlsh;
  gaprecon::GapParams gap;
  RibltReconParams riblt;
  int single_grid_level = 6;  ///< Forced level of "single-grid".
  size_t k = 0;  ///< If > 0, overrides quadtree.k, mlsh.k and riblt.k.

  /// Returns a copy with the shared `k` pushed into the sub-params.
  ProtocolParams Resolved() const;
};

class ProtocolRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Reconciler>(
      const ProtocolContext&, const ProtocolParams&)>;

  /// The process-wide registry, with the built-in protocols registered.
  static ProtocolRegistry& Global();

  /// Registers a protocol. Returns false (and keeps the existing entry) if
  /// the name is taken.
  bool Register(const std::string& name, const std::string& description,
                Factory factory);

  bool Contains(const std::string& name) const;

  /// Instantiates `name`; nullptr if unknown, or if `params` do not fit
  /// `context`'s universe (a quadtree level range beyond its grid).
  std::unique_ptr<Reconciler> Create(const std::string& name,
                                     const ProtocolContext& context,
                                     const ProtocolParams& params) const;

  /// Registered names, sorted. The sync-server handshake sends this list
  /// back to a client whose requested protocol is unknown, so rejection
  /// errors are self-describing.
  std::vector<std::string> ListProtocols() const;

  /// One-line description of `name` ("" if unknown).
  std::string Describe(const std::string& name) const;

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

/// Convenience: ProtocolRegistry::Global().Create(...).
std::unique_ptr<Reconciler> MakeReconciler(const std::string& name,
                                           const ProtocolContext& context,
                                           const ProtocolParams& params);

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_REGISTRY_H_
