#include "server/sync_client.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "recon/session.h"
#include "server/handshake.h"
#include "util/random.h"

namespace rsr {
namespace server {

namespace {

using recon::SessionError;

void FailOutcome(SyncOutcome* outcome, SessionError error) {
  outcome->result.success = false;
  if (outcome->result.error == SessionError::kNone) {
    outcome->result.error = error;
  }
}

/// Instance salt for the client's trace id generator ("clisyncc").
constexpr uint64_t kClientSpanSalt = 0x636c6973796e6363ULL;

}  // namespace

SyncClient::SyncClient(SyncClientOptions options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &recon::ProtocolRegistry::Global()),
      trace_gen_(std::make_unique<obs::TraceIdGenerator>(options_.trace_seed,
                                                         kClientSpanSalt)) {}

SyncOutcome SyncClient::Sync(net::ByteStream* stream,
                             const std::string& protocol,
                             const PointSet& local_points) const {
  const auto start_time = std::chrono::steady_clock::now();
  SyncOutcome outcome;
  net::FramedStream framed(stream, options_.limits);

  // One root trace per sync: the server joins it (propagate_trace ships
  // the context on "@hello") and the caller can stamp the resulting
  // mutation with it, so client span, server span, and downstream
  // replication rounds all share outcome.trace_hi/lo.
  obs::TraceContext trace;
  if (options_.propagate_trace || options_.trace_sink != nullptr) {
    trace = trace_gen_->NewTrace();
    outcome.trace_hi = trace.trace_hi;
    outcome.trace_lo = trace.trace_lo;
  }
  obs::SessionSpan span(options_.trace_sink, "sync-client");
  if (span.active()) {
    span.SetTrace(trace, 0);
    span.set_protocol(protocol);
    span.BeginPhase("handshake");
  }

  const auto finish = [&](SyncOutcome&& done) {
    stream->Close();
    done.bytes_sent = framed.bytes_sent();
    done.bytes_received = framed.bytes_received();
    done.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_time)
                            .count();
    if (span.active()) {
      span.AddFrameOut(done.bytes_sent);
      span.AddFrameIn(done.bytes_received);
      if (done.result.success) {
        span.set_outcome("ok");
      } else if (done.result.error == SessionError::kProtocolRejected) {
        span.set_outcome("rejected");
      } else {
        span.set_outcome("fail");
      }
      span.Finish();
    }
    return std::move(done);
  };

  // The client needs the protocol locally to build Alice's endpoint, so an
  // unknown name fails before any traffic.
  const std::unique_ptr<recon::Reconciler> reconciler =
      registry_->Create(protocol, options_.context, options_.params);
  if (reconciler == nullptr) {
    outcome.reject_reason = "protocol \"" + protocol + "\" not in the local registry";
    FailOutcome(&outcome, SessionError::kProtocolRejected);
    return finish(std::move(outcome));
  }

  // --------------------------------------------------------- handshake
  HelloFrame hello;
  hello.protocol = protocol;
  hello.client_set_size = local_points.size();
  hello.want_result_set = options_.want_result_set;
  if (options_.propagate_trace) hello.trace = trace;
  if (!framed.Send(EncodeHello(hello))) {
    outcome.error_detail = "handshake: transport failed sending " +
                           std::string(kHelloLabel);
    FailOutcome(&outcome, SessionError::kTransportClosed);
    return finish(std::move(outcome));
  }

  transport::Message incoming;
  const auto accept_status = framed.Receive(&incoming);
  if (accept_status != net::FramedStream::RecvStatus::kMessage) {
    // EOF while the handshake is outstanding is its own diagnosis: the
    // server went away before ever answering, as opposed to a protocol
    // failing mid-session. kClosed is the clean between-frames EOF;
    // a truncated @accept (EOF mid-frame) surfaces as kError with
    // kMalformedMessage and keeps that more specific error.
    if (accept_status == net::FramedStream::RecvStatus::kClosed) {
      outcome.error_detail = "handshake: stream ended awaiting " +
                             std::string(kAcceptLabel);
      FailOutcome(&outcome, SessionError::kTransportClosed);
    } else {
      outcome.error_detail = "handshake: receive failed awaiting " +
                             std::string(kAcceptLabel) + " (" +
                             recon::SessionErrorName(framed.error()) + ")";
      FailOutcome(&outcome, framed.error());
    }
    return finish(std::move(outcome));
  }
  if (incoming.label == kRejectLabel) {
    RejectFrame reject;
    if (DecodeReject(incoming, &reject)) {
      outcome.reject_reason = std::move(reject.reason);
      outcome.server_protocols = std::move(reject.protocols);
    }
    FailOutcome(&outcome, SessionError::kProtocolRejected);
    return finish(std::move(outcome));
  }
  AcceptFrame accept;
  if (!DecodeAccept(incoming, &accept) || accept.protocol != protocol) {
    outcome.error_detail = "handshake: expected " +
                           std::string(kAcceptLabel) + " for \"" + protocol +
                           "\", got \"" + incoming.label + "\"";
    FailOutcome(&outcome, SessionError::kUnexpectedMessage);
    return finish(std::move(outcome));
  }
  outcome.handshake_ok = true;
  outcome.server_generation = accept.generation;
  outcome.server_replica_seq = accept.replica_seq;
  span.BeginPhase("rounds");

  // -------------------------------------------------------- session pump
  const std::unique_ptr<recon::PartySession> alice =
      reconciler->MakeAliceSession(local_points);
  for (transport::Message& opening : alice->Start()) {
    if (!framed.Send(opening)) {
      outcome.error_detail =
          "session: transport failed sending opening frames";
      FailOutcome(&outcome, SessionError::kTransportClosed);
      return finish(std::move(outcome));
    }
  }
  size_t deliveries = 0;
  for (;;) {
    if (framed.Receive(&incoming) != net::FramedStream::RecvStatus::kMessage) {
      outcome.error_detail = "session: receive failed awaiting protocol or " +
                             std::string(kResultLabel) + " frames (" +
                             recon::SessionErrorName(framed.error()) + ")";
      FailOutcome(&outcome, framed.error());
      return finish(std::move(outcome));
    }
    if (incoming.label == kResultLabel) {
      ResultFrame result_frame;
      if (!DecodeResult(incoming, options_.context.universe, &result_frame)) {
        FailOutcome(&outcome, SessionError::kMalformedMessage);
        return finish(std::move(outcome));
      }
      outcome.result = std::move(result_frame.result);
      return finish(std::move(outcome));
    }
    if (IsControlLabel(incoming.label) || alice->IsDone()) {
      // Only "@result" may follow once Alice has finished, and no other
      // control frame belongs in the protocol phase.
      FailOutcome(&outcome, SessionError::kUnexpectedMessage);
      return finish(std::move(outcome));
    }
    if (++deliveries > recon::kMaxDeliveries) {
      FailOutcome(&outcome, SessionError::kStalled);
      return finish(std::move(outcome));
    }
    for (transport::Message& reply : alice->OnMessage(std::move(incoming))) {
      if (!framed.Send(reply)) {
        outcome.error_detail = "session: transport failed sending replies";
        FailOutcome(&outcome, SessionError::kTransportClosed);
        return finish(std::move(outcome));
      }
    }
  }
}

bool FetchStats(net::ByteStream* stream, std::string* text,
                net::FrameLimits limits) {
  if (stream == nullptr || text == nullptr) return false;
  net::FramedStream framed(stream, limits);
  bool ok = framed.Send(EncodeStatsRequest());
  transport::Message reply;
  ok = ok &&
       framed.Receive(&reply) == net::FramedStream::RecvStatus::kMessage &&
       DecodeStatsReply(reply, text);
  stream->Close();
  return ok;
}

SyncOutcome SyncClient::SyncWithRetry(const StreamFactory& connect,
                                      const std::string& protocol,
                                      const PointSet& local_points,
                                      const SyncRetryPolicy& policy) const {
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  Rng rng(policy.seed);
  double backoff_ms =
      static_cast<double>(policy.initial_backoff.count());
  SyncOutcome outcome;
  for (size_t attempt = 1;; ++attempt) {
    const std::unique_ptr<net::ByteStream> stream = connect();
    if (stream != nullptr) {
      outcome = Sync(stream.get(), protocol, local_points);
    } else {
      outcome = SyncOutcome{};
      outcome.error_detail = "handshake: connect failed";
      FailOutcome(&outcome, SessionError::kTransportClosed);
    }
    outcome.attempts_used = attempt;
    // Only pre-session failures are safely retryable (SyncRetryPolicy).
    if (outcome.result.success || outcome.handshake_ok ||
        attempt >= max_attempts) {
      return outcome;
    }
    const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
    const double factor = 1.0 - jitter + 2.0 * jitter * rng.NextDouble();
    const auto wait = std::chrono::duration<double, std::milli>(
        std::max(0.0, backoff_ms * factor));
    if (policy.sleep_fn) {
      policy.sleep_fn(
          std::chrono::duration_cast<std::chrono::milliseconds>(wait));
    } else {
      std::this_thread::sleep_for(wait);
    }
    backoff_ms *= std::max(1.0, policy.multiplier);
  }
}

}  // namespace server
}  // namespace rsr
