#include "recon/registry.h"

#include <utility>

#include "recon/full_transfer.h"
#include "recon/quadtree_recon.h"

namespace rsr {
namespace recon {

ProtocolParams ProtocolParams::Resolved() const {
  ProtocolParams resolved = *this;
  if (k > 0) {
    resolved.quadtree.k = k;
    resolved.mlsh.k = k;
    resolved.riblt.k = k;
  }
  return resolved;
}

bool ProtocolRegistry::Register(const std::string& name,
                                const std::string& description,
                                Factory factory) {
  // Dedupe: emplace leaves an existing entry untouched, so a late plugin
  // cannot silently shadow a built-in protocol.
  return entries_
      .emplace(name, Entry{description, std::move(factory)})
      .second;
}

bool ProtocolRegistry::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

std::unique_ptr<Reconciler> ProtocolRegistry::Create(
    const std::string& name, const ProtocolContext& context,
    const ProtocolParams& params) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  return it->second.factory(context, params.Resolved());
}

std::vector<std::string> ProtocolRegistry::ListProtocols() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    (void)entry;
    names.push_back(name);  // std::map iterates in sorted order
  }
  return names;
}

std::string ProtocolRegistry::Describe(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? "" : it->second.description;
}

namespace {

// A quadtree reconciler whose level range the universe's grid cannot hold
// is refused here (a host answers "@reject"), not at its first session.
template <typename Quadtree>
std::unique_ptr<Reconciler> MakeQuadtree(const ProtocolContext& ctx,
                                         const QuadtreeParams& params) {
  if (!LevelRangeFits(ctx.universe, params)) return nullptr;
  return std::make_unique<Quadtree>(ctx, params);
}

void RegisterBuiltins(ProtocolRegistry* registry) {
  registry->Register(
      "full-transfer", "whole-set transfer baseline",
      [](const ProtocolContext& ctx, const ProtocolParams&) {
        return std::make_unique<FullTransferReconciler>(ctx);
      });
  registry->Register(
      "exact-iblt", "strata + IBLT exact reconciliation baseline",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        return std::make_unique<ExactReconciler>(ctx, p.exact);
      });
  registry->Register(
      "quadtree", "one-shot robust quadtree reconciliation (SIGMOD'14)",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        return MakeQuadtree<QuadtreeReconciler>(ctx, p.quadtree);
      });
  registry->Register(
      "quadtree-adaptive",
      "3-message strata-probe quadtree with doubling retries",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        return MakeQuadtree<AdaptiveQuadtreeReconciler>(ctx, p.quadtree);
      });
  registry->Register(
      "single-grid", "one-shot quadtree at one forced level (ablation)",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        QuadtreeParams forced = p.quadtree;
        forced.min_level = forced.max_level = p.single_grid_level;
        return MakeQuadtree<QuadtreeReconciler>(ctx, forced);
      });
  registry->Register(
      "mlsh-riblt", "multi-level LSH + Robust IBLT extension",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        return std::make_unique<lshrecon::MlshReconciler>(ctx, p.mlsh);
      });
  registry->Register(
      "riblt-oneshot", "exact-key one-shot Robust IBLT baseline",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        return std::make_unique<RibltReconciler>(ctx, p.riblt);
      });
  registry->Register(
      "gap-lattice", "gap-guarantee lattice reconciliation",
      [](const ProtocolContext& ctx, const ProtocolParams& p) {
        return std::make_unique<gaprecon::GapReconciler>(ctx, p.gap);
      });
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::Global() {
  static ProtocolRegistry* registry = [] {
    auto* r = new ProtocolRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<Reconciler> MakeReconciler(const std::string& name,
                                           const ProtocolContext& context,
                                           const ProtocolParams& params) {
  return ProtocolRegistry::Global().Create(name, context, params);
}

}  // namespace recon
}  // namespace rsr
