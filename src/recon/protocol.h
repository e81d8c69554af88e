// Common interface implemented by every reconciliation protocol.
//
// A protocol is a two-party message-passing computation. Each party is an
// independently driveable endpoint state machine (recon/session.h); a
// Reconciler is a factory for the two endpoints plus the public parameters
// they share, named only by its registry key (recon/registry.h). All
// traffic is carried as transport::Message payloads, so the reported bits
// are real encoded payloads. The deliverable is Bob's final point set
// S'_B; quality (EMD against Alice's set) is computed separately by
// recon/evaluate.h so that the protocol code never sees the objective it
// is judged on.
//
// The legacy convenience entry point `Run(alice, bob, channel)` still
// exists: it is a thin in-process driver (recon/driver.h) that pumps the
// two sessions through the channel until Bob finishes.

#ifndef RSR_RECON_PROTOCOL_H_
#define RSR_RECON_PROTOCOL_H_

#include <memory>
#include <vector>

#include "geometry/metric.h"
#include "geometry/point.h"
#include "transport/channel.h"

namespace rsr {
namespace recon {

/// Transport / framing errors surfaced by a session instead of aborting the
/// process (the seed library crashed on any of these).
enum class SessionError {
  kNone = 0,
  kEmptyChannel,       ///< Receive attempted with nothing pending.
  kUnexpectedMessage,  ///< Message arrived in a state that expects none.
  kMalformedMessage,   ///< Payload failed to parse / deserialize.
  kStalled,            ///< Neither endpoint can make progress (half-open
                       ///< failure, e.g. the peer gave up silently).
  kTransportClosed,    ///< The byte stream closed / failed mid-protocol
                       ///< (serving layer; see net/frame.h).
  kProtocolRejected,   ///< The server rejected the requested protocol
                       ///< during the sync handshake (server/sync_client.h).
};

/// Human-readable name of a SessionError (for logs and test output).
const char* SessionErrorName(SessionError error);

/// Outcome of one protocol run (one party's view; the canonical result is
/// Bob's, since he holds the deliverable S'_B).
struct ReconResult {
  bool success = false;   ///< Protocol-level success (decode etc.).
  PointSet bob_final;     ///< S'_B (equals the input S_B on failure).
  int chosen_level = -1;  ///< Quadtree level used, if applicable.
  size_t decoded_entries = 0;  ///< Differing pairs recovered, if applicable.
  size_t attempts = 1;    ///< Retries (for protocols that resize and retry).
  size_t transmitted = 0; ///< Gap model: |T_A|, points shipped verbatim.
  SessionError error = SessionError::kNone;  ///< Transport-level failure.
};

/// S'_B as a repair of Bob's input: `*base` minus the points flagged in
/// `removed`, in order, then `additions` — the -1 and +1 sides of a
/// decoded difference. Every Bob session records its result this way, so
/// a host ships it and a replica installs it straight from the set it was
/// computed against, without a copy or a diff.
struct RepairedSet {
  /// The empty repair of `base_set`: S'_B = S_B.
  explicit RepairedSet(const PointSet& base_set) : base(&base_set) {}

  const PointSet* base;
  /// One flag per point of *base, or empty when nothing is removed.
  std::vector<char> removed;
  PointSet additions;

  bool IsRemoved(size_t i) const { return !removed.empty() && removed[i]; }

  /// Calls fn(const Point&) on every point of S'_B, in order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < base->size(); ++i) {
      if (!IsRemoved(i)) fn((*base)[i]);
    }
    for (const Point& p : additions) fn(p);
  }

  size_t size() const {
    size_t dropped = 0;
    for (char r : removed) dropped += r ? 1 : 0;
    return base->size() - dropped + additions.size();
  }

  /// S'_B as a set of its own.
  PointSet Materialize() const {
    PointSet out;
    out.reserve(size());
    ForEach([&](const Point& p) { out.push_back(p); });
    return out;
  }
};

/// Context shared by both parties (public coins: the seed is common
/// knowledge and derives every hash function and shift).
struct ProtocolContext {
  Universe universe;
  uint64_t seed = 0;
};

class PartySession;            // recon/session.h
class CanonicalSketchProvider; // recon/sketch_provider.h

/// Abstract reconciliation protocol: a factory for the two endpoint state
/// machines. Its name is its registry key (recon/registry.h). Both
/// endpoints borrow their set: it must outlive the session, and a factory
/// handed a temporary does not compile. Each protocol overrides exactly
/// one hook per endpoint.
class Reconciler {
 public:
  virtual ~Reconciler() = default;

  /// Creates Alice's endpoint over S_A, the set Bob reconciles towards.
  std::unique_ptr<PartySession> MakeAliceSession(
      const PointSet& points) const;  // recon/driver.cc
  std::unique_ptr<PartySession> MakeAliceSession(PointSet&&) const = delete;

  /// Creates Bob's endpoint over S_B; Bob's session owns the deliverable
  /// result. `sketches`, when given, is a canonical sketch cache
  /// (recon/sketch_provider.h) that must describe exactly `points`: a
  /// session consults it instead of rebuilding the canonical-side
  /// sketches, and falls back to build-from-set whenever the provider
  /// declines. Protocols without cacheable state ignore it.
  std::unique_ptr<PartySession> MakeBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches = nullptr) const;
  std::unique_ptr<PartySession> MakeBobSession(
      PointSet&&, const CanonicalSketchProvider* = nullptr) const = delete;

  /// True for the EMD-model protocols, whose analysis (and sketch sizing)
  /// assumes |S_A| == |S_B|. The in-process driver enforces it with a
  /// clear diagnostic; across a real network no endpoint can verify it —
  /// it is part of the protocol's contract.
  virtual bool RequiresEqualSizes() const { return false; }

  /// Convenience in-process driver: pumps the two sessions through
  /// `channel` (see recon/driver.h) and returns Bob's result. Exactly
  /// equivalent to constructing both sessions and calling DrivePair.
  ReconResult Run(const PointSet& alice, const PointSet& bob,
                  transport::Channel* channel) const;

 private:
  /// The protocol's endpoints, created only through the factories above.
  virtual std::unique_ptr<PartySession> NewAliceSession(
      const PointSet& points) const = 0;
  virtual std::unique_ptr<PartySession> NewBobSession(
      const PointSet& points,
      const CanonicalSketchProvider* sketches) const = 0;
};

}  // namespace recon
}  // namespace rsr

#endif  // RSR_RECON_PROTOCOL_H_
