#include "server/server_obs.h"

namespace rsr {
namespace server {

namespace {

constexpr char kSessionsName[] = "rsr_sync_sessions_total";
constexpr char kSessionSecondsName[] = "rsr_sync_session_seconds";
constexpr char kProtocolBytesName[] = "rsr_sync_protocol_bytes_total";

}  // namespace

ServerObs::ServerObs(const ServerObsOptions& options) : options_(options) {
  accepted_ = registry_.GetCounter("rsr_sync_connections_accepted_total",
                                   "Connections accepted by the host");
  active_ = registry_.GetGauge("rsr_sync_active_sessions",
                               "Connections currently open");
  peak_active_ = registry_.GetGauge("rsr_sync_active_sessions_peak",
                                    "High-water mark of open connections");
  rejected_ = registry_.GetCounter("rsr_sync_handshakes_rejected_total",
                                   "Handshakes answered with @reject");
  idle_timeouts_ = registry_.GetCounter(
      "rsr_sync_idle_timeouts_total",
      "Connections failed by the per-session idle deadline");
  bytes_in_ = registry_.GetCounter("rsr_sync_bytes_total",
                                   "Framed bytes through the host",
                                   {{"direction", "in"}});
  bytes_out_ = registry_.GetCounter("rsr_sync_bytes_total",
                                    "Framed bytes through the host",
                                    {{"direction", "out"}});
  accept_to_first_frame_ = registry_.GetHistogram(
      "rsr_sync_accept_to_first_frame_seconds",
      "Accept-to-first-decoded-frame delay on the async host",
      obs::DefaultLatencyBounds());
  span_emitted_ = registry_.GetCounter(
      "rsr_trace_spans_total", "Trace spans by sampling decision",
      {{"decision", "emitted"}});
  span_dropped_ = registry_.GetCounter(
      "rsr_trace_spans_total", "Trace spans by sampling decision",
      {{"decision", "dropped"}});
}

ServerObs::ProtocolInstruments& ServerObs::ProtocolFor(
    const std::string& name) {
  auto it = per_protocol_.find(name);
  if (it != per_protocol_.end()) return it->second;
  ProtocolInstruments bundle;
  bundle.ok = registry_.GetCounter(kSessionsName,
                                   "Sessions finished, by protocol/outcome",
                                   {{"protocol", name}, {"outcome", "ok"}});
  bundle.failed = registry_.GetCounter(
      kSessionsName, "Sessions finished, by protocol/outcome",
      {{"protocol", name}, {"outcome", "fail"}});
  bundle.malformed = registry_.GetCounter(
      kSessionsName, "Sessions finished, by protocol/outcome",
      {{"protocol", name}, {"outcome", "malformed"}});
  bundle.bytes_in = registry_.GetCounter(
      kProtocolBytesName, "Framed bytes, by protocol/direction",
      {{"protocol", name}, {"direction", "in"}});
  bundle.bytes_out = registry_.GetCounter(
      kProtocolBytesName, "Framed bytes, by protocol/direction",
      {{"protocol", name}, {"direction", "out"}});
  bundle.seconds = registry_.GetHistogram(
      kSessionSecondsName, "Session wall time, by protocol",
      obs::DefaultLatencyBounds(), {{"protocol", name}});
  return per_protocol_.emplace(name, bundle).first->second;
}

void ServerObs::OnAccepted() {
  accepted_->Inc();
  peak_active_->UpdateMax(active_->Add(1));
}

void ServerObs::OnClosed(const Settle& settle) {
  active_->Add(-1);
  bytes_in_->Inc(settle.bytes_in);
  bytes_out_->Inc(settle.bytes_out);
  if (settle.rejected) rejected_->Inc();
  if (settle.timed_out) idle_timeouts_->Inc();
  if (!settle.session_counted) return;
  MutexLock lock(mu_);
  ProtocolInstruments& bundle = ProtocolFor(settle.protocol);
  (settle.success     ? bundle.ok
   : settle.malformed ? bundle.malformed
                      : bundle.failed)
      ->Inc();
  bundle.bytes_in->Inc(settle.bytes_in);
  bundle.bytes_out->Inc(settle.bytes_out);
  bundle.seconds->Observe(settle.wall_seconds);
}

void ServerObs::ObserveAcceptToFirstFrame(double seconds) {
  if (!options_.latency_probes) return;
  accept_to_first_frame_->Observe(seconds);
}

}  // namespace server
}  // namespace rsr
