// Registry-backed instrumentation shared by both serving hosts.
//
// ServerObs owns the host's obs::MetricsRegistry and the serving-layer
// instruments both SyncServer and AsyncSyncServer record into: accept /
// active / peak gauges, per-protocol session outcome counters and
// latency histograms, transport byte counters, handshake rejects, idle
// timeouts, and the host-specific scheduling probes (worker-queue delay
// on the threaded host, accept-to-first-frame delay on the async one).
// The registry is the only metrics view: readers use its lookups
// (CounterValue, GaugeValue, SumCounters, SnapshotHistogramSum) or its
// Prometheus rendering.
//
// Hot-path cost: connection open/close touch relaxed atomics only; the
// per-protocol instrument bundle is resolved under a small mutex once
// per session settle (the same cadence the old metrics_mu_ lock had).
// `latency_probes` gates the optional probes (queue delay, accept-to-
// first-frame) so the E16 overhead bench can compare instrumented vs
// no-op serving; session outcome counters and latency histograms stay
// on either way — they are the host's session accounting.
// See DESIGN.md §12.

#ifndef RSR_SERVER_SERVER_OBS_H_
#define RSR_SERVER_SERVER_OBS_H_

#include <map>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rsr {
namespace server {

struct ServerObsOptions {
  /// Enables the optional latency probes (queue delay, accept-to-first-
  /// frame; the hosts also gate event-loop and store probes on this).
  bool latency_probes = true;
  /// Per-session trace spans are emitted here; null disables tracing.
  obs::TraceSink* trace_sink = nullptr;
};

class ServerObs {
 public:
  explicit ServerObs(const ServerObsOptions& options);

  ServerObs(const ServerObs&) = delete;
  ServerObs& operator=(const ServerObs&) = delete;

  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::TraceSink* trace_sink() const { return options_.trace_sink; }
  bool latency_probes() const { return options_.latency_probes; }

  /// Sampling decision counters (rsr_trace_spans_total{decision=...}),
  /// wired into every SessionSpan via SetSampling so the registry
  /// accounts for spans the policy shed.
  obs::Counter* span_emitted() const { return span_emitted_; }
  obs::Counter* span_dropped() const { return span_dropped_; }

  /// Connection accepted: bumps accepted/active/peak.
  void OnAccepted();

  /// Everything one closing connection settles, exactly once.
  struct Settle {
    /// Session accounting happens only when a session ran to a counted
    /// end (the old started && finished condition); `protocol` then
    /// names its per-protocol bundle.
    bool session_counted = false;
    std::string protocol;
    bool success = false;
    /// A failed session that ended in kMalformedMessage: counted as
    /// outcome="malformed", apart from "fail".
    bool malformed = false;
    double wall_seconds = 0.0;
    bool rejected = false;
    bool timed_out = false;
    size_t bytes_in = 0;
    size_t bytes_out = 0;
  };
  void OnClosed(const Settle& settle);

  /// Threaded host: accept-to-dequeue wait in the worker queue.
  void ObserveQueueDelay(double seconds);
  /// Async host: accept-to-first-decoded-frame delay.
  void ObserveAcceptToFirstFrame(double seconds);

 private:
  struct ProtocolInstruments {
    obs::Counter* ok = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* malformed = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Histogram* seconds = nullptr;
  };
  /// Finds or registers the per-protocol bundle.
  ProtocolInstruments& ProtocolFor(const std::string& name)
      RSR_REQUIRES(mu_);

  const ServerObsOptions options_;
  obs::MetricsRegistry registry_;

  obs::Counter* accepted_;
  obs::Gauge* active_;
  obs::Gauge* peak_active_;
  obs::Counter* rejected_;
  obs::Counter* idle_timeouts_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Histogram* queue_delay_;
  obs::Histogram* accept_to_first_frame_;
  obs::Counter* span_emitted_;
  obs::Counter* span_dropped_;

  /// Guards the per-protocol bundle map only (session-settle cadence);
  /// the instruments themselves record lock-free.
  Mutex mu_;
  std::map<std::string, ProtocolInstruments> per_protocol_
      RSR_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace rsr

#endif  // RSR_SERVER_SERVER_OBS_H_
