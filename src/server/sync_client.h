// Alice-side client of the sync serving layer.
//
// SyncClient::Sync drives one full sync over any net::ByteStream: it sends
// "@hello" naming a registry protocol, waits for "@accept" (or surfaces the
// server's "@reject" — reason and available protocols — as
// SessionError::kProtocolRejected), runs the protocol's Alice-side
// PartySession over framed messages against its local point set, and
// returns the ReconResult the server shipped back in "@result". With
// want_result_set the result carries S'_B, the server's reconciled set for
// this client, which equals the in-process driver's output bit for bit.

#ifndef RSR_SERVER_SYNC_CLIENT_H_
#define RSR_SERVER_SYNC_CLIENT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/byte_stream.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "recon/registry.h"

namespace rsr {
namespace server {

struct SyncClientOptions {
  /// Must match the server's context (shared public coins).
  recon::ProtocolContext context;
  recon::ProtocolParams params;
  net::FrameLimits limits;
  /// Ask the server to ship the reconciled set back in "@result".
  bool want_result_set = true;
  /// Registry used to build the Alice session; nullptr = the global one.
  const recon::ProtocolRegistry* registry = nullptr;
  /// When set, every Sync emits one "sync-client" span here carrying the
  /// trace id minted for that sync. Null disables client-side tracing.
  /// Not owned; must outlive the client.
  obs::TraceSink* trace_sink = nullptr;
  /// Ship the minted trace context on "@hello" so the serving host's
  /// session span (and any replication it triggers) joins this sync's
  /// trace. Old servers ignore the trailing field. Off by default so the
  /// wire bytes only change when the caller opts into tracing.
  bool propagate_trace = false;
  /// Seed for minted trace ids (0 = real entropy); tests pin it.
  uint64_t trace_seed = 0;
};

/// Backoff schedule for SyncWithRetry. A rejected handshake (an
/// overloaded or restarting server answers "@reject") and a transport
/// failure BEFORE "@accept" are both worth retrying — the server never
/// started a session, so a retry cannot double-apply anything. A failure
/// after "@accept" is not retried: the session's outcome is unknown and
/// the caller must decide.
struct SyncRetryPolicy {
  size_t max_attempts = 3;  ///< Total attempts (1 = no retry).
  std::chrono::milliseconds initial_backoff{10};
  double multiplier = 2.0;  ///< Backoff growth per attempt.
  /// Each sleep is scaled by a uniform factor in [1-jitter, 1+jitter] so a
  /// fleet of clients rejected together does not retry together.
  double jitter = 0.5;
  uint64_t seed = 0;  ///< Jitter RNG seed.
  /// Clock seam: when set, backoff waits call this instead of sleeping the
  /// thread. Tests install a recorder here to pin down the schedule (its
  /// bounds and count) without wall-clock time in the loop.
  std::function<void(std::chrono::milliseconds)> sleep_fn;
};

/// Everything one Sync call produced.
struct SyncOutcome {
  bool handshake_ok = false;
  /// Canonical-set generation the server pinned this session to (from
  /// "@accept"; see server/sketch_store.h). 0 until the handshake
  /// succeeds.
  uint64_t server_generation = 0;
  /// Replication position of the serving host (from "@accept"; 0 for a
  /// non-replicating server). See AcceptFrame::replica_seq.
  uint64_t server_replica_seq = 0;
  /// Attempts consumed (1 for a plain Sync; up to the policy's
  /// max_attempts under SyncWithRetry).
  size_t attempts_used = 1;
  /// Server-computed result (from "@result"); on a local/transport failure
  /// before "@result" arrived, a synthesized failure with the right error.
  recon::ReconResult result;
  /// Populated when the server rejected the handshake.
  std::string reject_reason;
  std::vector<std::string> server_protocols;
  /// Human-readable failure location ("" on success). A server that hangs
  /// up during the handshake is a different operational problem from one
  /// that dies mid-protocol; the stage names which ("handshake: stream
  /// ended awaiting @accept" vs "session: ...").
  std::string error_detail;
  size_t bytes_sent = 0;
  size_t bytes_received = 0;
  double wall_seconds = 0.0;
  /// Root trace id minted for this sync (0/0 when tracing is off): the id
  /// the server's session span — and, with propagate_trace, any
  /// replication rounds the mutation later rides — shares. Callers
  /// applying the reconciled delta pass it to the host's traced
  /// ApplyUpdate overload so the changelog entry carries it too.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
};

class SyncClient {
 public:
  explicit SyncClient(SyncClientOptions options);

  /// Runs one sync of `local_points` against the server behind `stream`,
  /// negotiating `protocol`. Blocking; `stream` is closed on return.
  SyncOutcome Sync(net::ByteStream* stream, const std::string& protocol,
                   const PointSet& local_points) const;

  /// Dials a fresh stream per attempt. Returning null counts as a failed
  /// (retryable) connect.
  using StreamFactory = std::function<std::unique_ptr<net::ByteStream>()>;

  /// Sync with retry-on-reject: runs Sync over a fresh stream from
  /// `connect`, and while the failure is pre-session (see SyncRetryPolicy)
  /// sleeps the jittered backoff and tries again, up to max_attempts. The
  /// returned outcome is the last attempt's, with attempts_used filled in.
  SyncOutcome SyncWithRetry(const StreamFactory& connect,
                            const std::string& protocol,
                            const PointSet& local_points,
                            const SyncRetryPolicy& policy = {}) const;

 private:
  SyncClientOptions options_;
  const recon::ProtocolRegistry* registry_;
  /// Mints one root trace per Sync. Behind a pointer because Sync() is
  /// const while the generator's state advances (it is internally
  /// thread-safe, matching Sync's const-usable contract).
  std::unique_ptr<obs::TraceIdGenerator> trace_gen_;
};

/// Admin client for the "@stats" verb (DESIGN.md §12): sends the request
/// over a fresh connection's `stream`, reads the one reply frame, and
/// stores the host's Prometheus text exposition in *text. Blocking; the
/// stream is closed on return. False on any transport or decode failure.
/// Works against both serving hosts.
bool FetchStats(net::ByteStream* stream, std::string* text,
                net::FrameLimits limits = {});

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SYNC_CLIENT_H_
