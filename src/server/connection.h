// One served connection as a sans-IO state machine: frames in, frames out.
//
// Connection is the whole RSF1 verb logic of a serving host, with no
// socket in sight. The host feeds it what its transport observed —
// OnFrame for each decoded frame, OnStreamEnd when the read side ends,
// OnIdleTimeout when the peer went silent — sends whatever TakeOutbox()
// returns, in order, and closes the transport once done() holds (or
// earlier, when a send fails or the host stops). OnClosed then settles
// the connection's metrics and trace span, exactly once.
//
// The first frame picks the verb (server/handshake.h, DESIGN.md §6.2):
//   "@hello"     → "@accept", then the Bob side of the named protocol is
//                  pumped against the pinned canonical snapshot until it
//                  finishes; "@result" ships its ReconResult (and the
//                  reconciled set, straight from the RepairedSet when the
//                  protocol has one). A control label mid-session fails
//                  it with kUnexpectedMessage, more than max_deliveries
//                  frames with kStalled, the stream ending with the
//                  transport's error.
//   "@pull"      → "@pull-accept", then this host runs the Alice side;
//                  Alice has no terminal frame, so the puller's clean
//                  close is the end of the pull (DESIGN.md §10.3).
//   "@log-fetch" → one "@log-batch", built under the replication lock.
//   "@stats"     → one "@stats" reply with the host's exposition text.
// A malformed first frame or an unknown protocol is answered "@reject"
// (reason + the registry's protocol list) and the connection is done.
// After a reply the connection drains until the peer closes (closing
// with unread bytes queued could reset the connection and discard the
// reply in flight), bounded by max_deliveries.
//
// Both hosts (server/sync_server.h, server/async_sync_server.h) drive
// this one class, so they serve the same verbs with the same bytes and
// the same accounting. Not thread-safe: one connection lives on one
// thread at a time.

#ifndef RSR_SERVER_CONNECTION_H_
#define RSR_SERVER_CONNECTION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_context.h"
#include "recon/protocol.h"
#include "recon/session.h"
#include "server/canonical_host.h"
#include "transport/message.h"

namespace rsr {
namespace server {

class Connection {
 public:
  /// A connection accepted by `host` (which must outlive it): counted as
  /// accepted and active, its span opened in the "handshake" phase.
  explicit Connection(CanonicalHost* host);
  /// Settles as OnClosed(0, 0) if the host never called OnClosed.
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One decoded frame from the peer. Ignored once done().
  void OnFrame(transport::Message frame);

  /// The read side ended: `error` is kNone for a clean close between
  /// frames, otherwise the transport's error (kMalformedMessage for a
  /// corrupt or truncated frame). A live Bob session ends with that error
  /// (kTransportClosed for a clean close) and its "@result" is still
  /// produced for a half-closed peer; a live pull ends, ok iff the close
  /// was clean. The connection is done afterwards.
  void OnStreamEnd(recon::SessionError error);

  /// The peer sent nothing for the idle deadline: counted as an idle
  /// timeout; a live Bob session ends with kTransportClosed and a
  /// best-effort "@result". The connection is done afterwards.
  void OnIdleTimeout();

  /// Frames to send, in order; empties the outbox.
  std::vector<transport::Message> TakeOutbox();

  /// True once the host should flush the outbox and close the transport.
  bool done() const { return phase_ == Phase::kDone; }

  /// The transport is closed — after done(), or early because a send
  /// failed or the host is stopping ("close now"). A session still live
  /// ends as failed, with no "@result" (there is no one to ship it to).
  /// Settles the connection into the host's metrics and finishes its
  /// span; `bytes_in`/`bytes_out` are the transport's totals. Call once.
  void OnClosed(size_t bytes_in, size_t bytes_out);

 private:
  enum class Phase {
    kHandshake,  ///< Awaiting the opening frame.
    kSession,    ///< Bob's PartySession pumping protocol frames.
    kPull,       ///< Alice's PartySession pumping until the peer closes.
    kDraining,   ///< Reply shipped; discarding until the peer closes.
    kDone,       ///< Flush and close.
  };

  void Open(transport::Message frame);
  void OpenHello(const transport::Message& frame);
  void OpenPull(const transport::Message& frame);
  void ServeLogFetch(const transport::Message& frame);
  void ServeStats();
  void OnSessionFrame(transport::Message frame);
  void OnPullFrame(transport::Message frame);
  /// Creates `name` from the host's registry, or answers "@reject" naming
  /// it an unknown protocol and returns null.
  std::unique_ptr<recon::Reconciler> CreateOrReject(const std::string& name);
  void Reject(const std::string& reason);
  /// Starts the counted session named `protocol` (its settle label).
  void BeginSession(const std::string& protocol);
  void EndSession(bool success);
  /// Ends the Bob session: applies `pump_error`, ships "@result", drains.
  void FinishBob(recon::SessionError pump_error);
  /// Adopts the inbound trace context (deriving this host's span id with
  /// `salt`) or mints a root trace when tracing is on and none arrived.
  void AdoptTrace(const obs::TraceContext& inbound, uint64_t salt);
  void Emit(transport::Message frame);
  void Emit(std::vector<transport::Message> frames);
  void Drain();

  CanonicalHost* const host_;
  const ServingOptions& options_;
  Phase phase_ = Phase::kHandshake;
  std::vector<transport::Message> outbox_;
  obs::SessionSpan span_;

  /// The generation this session is pinned to, kept alive while the
  /// party borrows its points and sketches.
  std::shared_ptr<const SketchSnapshot> snapshot_;
  std::unique_ptr<recon::PartySession> party_;
  bool want_result_set_ = true;
  /// Protocol frames delivered (session, pull) or discarded (draining).
  size_t frames_ = 0;

  // Outcome, settled once by OnClosed.
  std::string protocol_;
  bool counted_ = false;
  bool success_ = false;
  bool rejected_ = false;
  bool timed_out_ = false;
  bool settled_ = false;
  std::chrono::steady_clock::time_point start_;
  double wall_seconds_ = 0.0;
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_CONNECTION_H_
