// Control-plane frames of the sync serving layer.
//
// A sync session is framed protocol traffic (net/frame.h) bracketed by a
// tiny negotiation: the client opens with "@hello" naming a registry
// protocol, the server answers "@accept" (and both sides start their
// PartySessions) or "@reject" (carrying the reason plus the server's
// ListProtocols() so the error is self-describing), and after Bob's
// endpoint finishes the server closes with "@result" carrying the
// ReconResult — optionally including the reconciled point set so the
// client can verify it bit-for-bit against a local run. Control labels
// start with '@', which no protocol message label uses, so the two planes
// cannot collide. Layout details in DESIGN.md §6.

#ifndef RSR_SERVER_HANDSHAKE_H_
#define RSR_SERVER_HANDSHAKE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "iblt/strata.h"
#include "obs/trace_context.h"
#include "recon/protocol.h"
#include "replica/changelog.h"
#include "transport/message.h"

namespace rsr {
namespace server {

/// Reserved control-plane labels. Protocol messages never start with '@'.
inline constexpr char kHelloLabel[] = "@hello";
inline constexpr char kAcceptLabel[] = "@accept";
inline constexpr char kRejectLabel[] = "@reject";
inline constexpr char kResultLabel[] = "@result";
// Replication verbs (DESIGN.md §10): a replica tails a peer's changelog
// with "@log-fetch"/"@log-batch", and repairs by running Bob locally
// against a peer-hosted Alice session opened with "@pull"/"@pull-accept".
inline constexpr char kLogFetchLabel[] = "@log-fetch";
inline constexpr char kLogBatchLabel[] = "@log-batch";
inline constexpr char kPullLabel[] = "@pull";
inline constexpr char kPullAcceptLabel[] = "@pull-accept";
// Admin verb (DESIGN.md §12): "@stats" claims the whole connection before
// any "@hello" — the host answers with one "@stats" frame whose payload is
// its metrics registry rendered in the Prometheus text exposition format.
inline constexpr char kStatsLabel[] = "@stats";

/// True for control-plane labels (reserved '@' prefix).
bool IsControlLabel(const std::string& label);

/// Client → server: request a protocol by registry name.
struct HelloFrame {
  std::string protocol;
  uint64_t client_set_size = 0;  ///< Diagnostic; server metrics only.
  bool want_result_set = true;   ///< Ship S'_B back in the result frame.
  /// Optional trace context (DESIGN.md §12): when valid, the server
  /// adopts the trace id so its session span joins the client's. Wire
  /// format is a trailing presence bit + ids — old peers ignore it, and
  /// frames from old peers decode as the invalid (all-zero) context
  /// because BitWriter padding is zeros (the same idiom as the trailing
  /// varints on "@accept", which needs the explicit presence bit here
  /// because a padding bit would otherwise read as a present-but-zero
  /// field).
  obs::TraceContext trace;
};

/// Server → client: the handshake failed.
struct RejectFrame {
  std::string reason;
  std::vector<std::string> protocols;  ///< Server's ListProtocols().
};

/// Server → client: Bob's endpoint finished; its ReconResult. The point
/// set travels only when the client asked for it (want_result_set).
struct ResultFrame {
  recon::ReconResult result;
  bool has_set = false;
};

/// Server → client: handshake accepted. Echoes the agreed protocol and
/// confirms whether the result set will be shipped; `server_set_size` is
/// the canonical set's size (diagnostic). `generation` stamps which
/// canonical-set generation (server/sketch_store.h) the session is pinned
/// to — under churn it is what lets a client (or a load harness asserting
/// match_driver) name the exact set it was reconciled against.
struct AcceptFrame {
  std::string protocol;
  uint64_t server_set_size = 0;
  bool will_send_result_set = true;
  uint64_t generation = 0;
  /// Replication position of the serving host (0 when the host does not
  /// replicate). Unlike `generation` — a host-local snapshot counter —
  /// replica_seq is comparable ACROSS replicas: a client served at
  /// replica_seq s saw the canonical set-at-s, so `writer_seq - s` is its
  /// staleness in mutation batches (bench/bench_e19_replication.cc).
  uint64_t replica_seq = 0;
};

/// Replica → peer: ship me changelog entries after `from_seq`.
struct LogFetchFrame {
  uint64_t from_seq = 0;
  uint64_t max_entries = 0;  ///< 0 = the server's cap.
  /// Ask for the peer's exact-keys strata estimator even when the tail is
  /// available (a dirty replica needs the difference estimate, not the
  /// entries; see replica/replica_node.h).
  bool want_strata = false;
  /// Optional trace context; same trailing idiom as HelloFrame::trace.
  obs::TraceContext trace;
};

/// Peer → replica: the changelog tail (or the news that it is gone).
struct LogBatchFrame {
  /// False: `from_seq` has fallen off the peer's ring — catch up by
  /// protocol repair instead. The strata estimator is attached so the
  /// repair can be sized before a protocol is chosen.
  bool ok = false;
  bool complete = false;  ///< Entries reach last_seq (no cap truncation).
  uint64_t last_seq = 0;  ///< Peer's replication position.
  std::vector<replica::ChangeEntry> entries;
  /// Peer's exact-keys strata estimator (recon::ExactReconStrataConfig),
  /// attached when !ok or when the fetch asked for it.
  std::optional<StrataEstimator> strata;
  /// True when the serving peer's set is the product of an approximate
  /// repair not yet squared with its log: its tail entries do NOT replay
  /// onto the canonical set-at-from_seq, so a puller must fall back to
  /// protocol repair instead of applying them (the PR 6 soundness gap).
  /// Trailing on the wire; old peers neither send nor see it, and frames
  /// from old peers decode as false (zero padding) — exactly the old
  /// behaviour.
  bool dirty = false;
};

/// Replica → peer: host the Alice side of `protocol` over your canonical
/// set; I run Bob locally and adopt the reconciled result. This is the
/// direction that converges the caller: a protocol moves BOB's set toward
/// Alice's (S'_B ≈ S_A, exactly equal for the exact-key protocols), so the
/// puller must be Bob — an ordinary "@hello" sync would only tell the peer
/// about the caller's set.
struct PullFrame {
  std::string protocol;
  uint64_t client_set_size = 0;  ///< Diagnostic; server metrics only.
  /// Optional trace context; same trailing idiom as HelloFrame::trace.
  obs::TraceContext trace;
};

/// Peer → replica: pull accepted; Alice frames follow.
struct PullAcceptFrame {
  std::string protocol;
  uint64_t server_set_size = 0;
  uint64_t seq = 0;         ///< Replication position the set corresponds to.
  uint64_t generation = 0;  ///< Peer-local snapshot generation (diagnostic).
  /// True when the peer's own set is the product of an *approximate*
  /// repair not yet squared with the log (replica/replica_node.h): the
  /// pulled set is then not the canonical set-at-`seq`, and the caller
  /// must not mark its own log against it.
  bool dirty = false;
};

transport::Message EncodeHello(const HelloFrame& hello);
bool DecodeHello(const transport::Message& message, HelloFrame* out);

transport::Message EncodeAccept(const AcceptFrame& accept);
bool DecodeAccept(const transport::Message& message, AcceptFrame* out);

transport::Message EncodeReject(const RejectFrame& reject);
bool DecodeReject(const transport::Message& message, RejectFrame* out);

/// `universe` fixes the exact per-coordinate bit width of the shipped set;
/// both sides construct it from the shared ProtocolContext. The set
/// shipped (if frame.has_set) is Bob's repair `set`, packed straight from
/// the set it repairs (recon::PartySession::TakeRepairedSet);
/// frame.result.bob_final is not read. DecodeResult fills bob_final.
transport::Message EncodeResult(const ResultFrame& frame,
                                const Universe& universe,
                                const recon::RepairedSet& set);
bool DecodeResult(const transport::Message& message, const Universe& universe,
                  ResultFrame* out);

transport::Message EncodeLogFetch(const LogFetchFrame& fetch);
bool DecodeLogFetch(const transport::Message& message, LogFetchFrame* out);

/// The strata estimator travels under `strata_config` (both sides derive
/// it as recon::ExactReconStrataConfig(context.seed)).
transport::Message EncodeLogBatch(const LogBatchFrame& batch,
                                  const Universe& universe);
bool DecodeLogBatch(const transport::Message& message,
                    const Universe& universe,
                    const StrataConfig& strata_config, LogBatchFrame* out);

transport::Message EncodePull(const PullFrame& pull);
bool DecodePull(const transport::Message& message, PullFrame* out);

transport::Message EncodePullAccept(const PullAcceptFrame& accept);
bool DecodePullAccept(const transport::Message& message,
                      PullAcceptFrame* out);

/// "@stats" request: an empty-payload frame (room for future options is
/// trailing, like AcceptFrame's optional fields).
transport::Message EncodeStatsRequest();

/// "@stats" reply: the host's Prometheus text exposition, verbatim.
transport::Message EncodeStatsReply(const std::string& text);
bool DecodeStatsReply(const transport::Message& message, std::string* out);

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_HANDSHAKE_H_
