#include "fuzz/runner.h"

#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "geometry/emd.h"
#include "geometry/metric.h"
#include "net/fault_stream.h"
#include "net/pipe_stream.h"
#include "obs/metrics.h"
#include "net/tcp.h"
#include "recon/driver.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "replica/replica_node.h"
#include "server/async_sync_server.h"
#include "server/sync_client.h"
#include "transport/channel.h"
#include "util/random.h"

namespace rsr {
namespace fuzz {

namespace {

using replica::ReplicaNode;
using replica::StreamFactory;

StreamFactory TcpDialer(uint16_t port, net::FaultOptions faults) {
  return [port, faults]() -> std::unique_ptr<net::ByteStream> {
    return net::MaybeWrapFaulty(net::TcpStream::Connect("127.0.0.1", port),
                                faults);
  };
}

/// Counter and gauge samples from a peer registry, one Prometheus sample
/// line each. Histogram series (`_bucket`/`_sum`/`_count`) are elided —
/// dozens of bucket lines per protocol would drown the artifact header —
/// which leaves exactly the path evidence the counterexample needs:
/// rsr_replica_rounds_total{path=...}, repair escalations, staleness, and
/// the session outcome counters.
std::string CompactRegistryExcerpt(const obs::MetricsRegistry& registry) {
  std::istringstream in(registry.RenderPrometheus());
  std::ostringstream out;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const std::string name =
        name_end == std::string::npos ? line : line.substr(0, name_end);
    const auto ends_with = [&name](const char* suffix) {
      const std::string s(suffix);
      return name.size() >= s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_bucket") || ends_with("_sum") || ends_with("_count")) {
      continue;
    }
    if (!first) out << '\n';
    first = false;
    out << line;
  }
  return out.str();
}

class Harness {
 public:
  Harness(const FuzzScript& script, const FuzzRunnerOptions& options)
      : script_(script), options_(options) {
    const FuzzConfig& c = script.config;
    ctx_.universe = MakeUniverse(c.universe_delta, c.universe_d);
    ctx_.seed = c.context_seed;
    params_.k = c.params_k;

    replica::ReplicaNodeOptions node_options;
    node_options.server.context = ctx_;
    node_options.server.params = params_;
    node_options.changelog.capacity = c.ring_capacity;
    node_options.exact_budget = c.exact_budget;
    node_options.approx_budget = c.approx_budget;
    nodes_.reserve(c.num_peers);
    for (size_t i = 0; i < c.num_peers; ++i) {
      replica::ReplicaNodeOptions opts = node_options;
      if (c.tamper_kind == 1 && c.tamper_peer == i) {
        // The harness self-test's planted divergence bug: this peer drops
        // the first erase of every entry it tail-replays.
        opts.fuzz_tail_tamper = [](replica::ChangeEntry* entry) {
          if (!entry->erases.empty()) entry->erases.erase(entry->erases.begin());
        };
      }
      nodes_.push_back(
          std::make_unique<ReplicaNode>(script.initial, std::move(opts)));
    }
  }

  ~Harness() { JoinServeThreads(); }

  RunReport Run() {
    for (size_t i = 0; i < script_.steps.size(); ++i) {
      RunStep(script_.steps[i], i);
      JoinServeThreads();
      if (report_.failure != FuzzFailure::kNone) break;
    }
    // Settle every TCP session the reactors still hold, so the final
    // registries (PeerMetrics) are a function of the script alone.
    for (const auto& node : nodes_) node->host().Stop();
    if (report_.failure == FuzzFailure::kNone) Quiesce();
    return report_;
  }

  /// Final per-peer registry excerpts, read after Run() settles (failure
  /// or success alike — the campaign embeds them in artifacts).
  std::vector<std::string> PeerMetrics() const {
    std::vector<std::string> out;
    out.reserve(nodes_.size());
    for (const auto& node : nodes_) {
      out.push_back(CompactRegistryExcerpt(node->host().metrics_registry()));
    }
    return out;
  }

 private:
  void Fail(FuzzFailure failure, size_t step, std::string detail) {
    report_.ok = false;
    report_.failure = failure;
    report_.failed_step = step;
    report_.detail = std::move(detail);
  }

  /// A dialer whose far end is `peer`'s blocking pump behind a fresh pipe
  /// pair; each dial spawns one short-lived serving thread.
  StreamFactory PipeDialer(size_t peer, net::FaultOptions faults) {
    return [this, peer, faults]() -> std::unique_ptr<net::ByteStream> {
      auto [server_end, client_end] = net::PipeStream::CreatePair();
      serve_threads_.emplace_back(
          [host = &nodes_[peer]->host(),
           end = std::move(server_end)]() mutable {
            host->ServeConnection(end.get());
          });
      return net::MaybeWrapFaulty(std::move(client_end), faults);
    };
  }

  /// The loopback port of `peer`'s own reactor, started on first use; 0
  /// when it cannot listen.
  uint16_t TcpPort(size_t peer) {
    server::AsyncSyncServer& host = nodes_[peer]->host();
    if (host.port() == 0) host.Start(net::TcpListener::Listen("127.0.0.1", 0));
    return host.port();
  }

  void JoinServeThreads() {
    for (std::thread& t : serve_threads_) t.join();
    serve_threads_.clear();
  }

  net::FaultOptions StepFaults(const FuzzStep& step, size_t index) const {
    net::FaultOptions faults;
    faults.close_after_bytes = step.fault_after_bytes;
    faults.dribble = step.dribble;
    faults.seed = script_.config.seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
    return faults;
  }

  void ApplyMutation(const FuzzStep& step, PointSet inserts, PointSet erases) {
    ReplicaNode& node = *nodes_[step.peer];
    if (step.peer == script_.config.writer) {
      node.Apply(inserts, erases);
    } else {
      // Off-log write: applied and marked dirty, never journaled — the
      // follower's set no longer corresponds to its log position, and the
      // next quiescence pull repairs it through a real protocol.
      node.host().InstallRepair(inserts, erases, node.applied_seq(),
                                /*exact=*/false);
    }
    ++report_.ops_applied;
  }

  void RunSync(size_t puller, size_t source, const FuzzStep& step,
               size_t index) {
    net::FaultOptions faults = StepFaults(step, index);
    replica::RoundRecord record;
    if (step.async_host) {
      // Tail leg from a transient async host mirroring the source's set
      // and sharing its changelog. That host has no replication position
      // of its own (its "@pull-accept" would report seq 0), so "@pull"
      // repairs stay on the source node.
      server::AsyncSyncServerOptions async_options;
      async_options.context = ctx_;
      async_options.params = params_;
      async_options.shards = 1;
      async_options.changelog = &nodes_[source]->changelog();
      server::AsyncSyncServer async(nodes_[source]->points(), async_options);
      if (!async.Start(net::TcpListener::Listen("127.0.0.1", 0))) {
        ++report_.sync_errors;
        return;
      }
      record = nodes_[puller]->SyncWithPeer(
          TcpDialer(async.port(), faults),
          PipeDialer(source, faults));
      async.Stop();
    } else if (step.tcp) {
      const uint16_t port = TcpPort(source);
      if (port == 0) {
        ++report_.sync_errors;
        return;
      }
      record = nodes_[puller]->SyncWithPeer(TcpDialer(port, faults));
    } else {
      record = nodes_[puller]->SyncWithPeer(PipeDialer(source, faults));
    }
    ++report_.syncs_run;
    if (!record.ok) ++report_.sync_errors;
  }

  void RunClientSync(const FuzzStep& step, size_t index) {
    const recon::ProtocolRegistry& registry = recon::ProtocolRegistry::Global();
    const PointSet client_points = nodes_[step.peer]->points();
    // Pin the serving snapshot now: nothing mutates between here and the
    // wire sync, so both computations see the same generation.
    const std::shared_ptr<const server::SketchSnapshot> snap =
        nodes_[step.source]->host().snapshot();

    std::string protocol = step.protocol;
    std::unique_ptr<recon::Reconciler> reconciler =
        registry.Create(protocol, ctx_, params_);
    if (reconciler == nullptr) {
      protocol = "full-transfer";
      reconciler = registry.Create(protocol, ctx_, params_);
    }
    if (reconciler->RequiresEqualSizes() &&
        client_points.size() != snap->size()) {
      // The EMD-model protocols' contract assumes |S_A| == |S_B|; when a
      // shrunken or drifted script violates it, substitute the exact-key
      // protocol instead of running outside the contract.
      protocol = "riblt-oneshot";
      reconciler = registry.Create(protocol, ctx_, params_);
    }

    server::SyncClientOptions client_options;
    client_options.context = ctx_;
    client_options.params = params_;
    const server::SyncClient client(client_options);
    server::SyncOutcome outcome;
    if (step.tcp) {
      const uint16_t port = TcpPort(step.source);
      if (port == 0) return;
      const std::unique_ptr<net::ByteStream> stream =
          net::TcpStream::Connect("127.0.0.1", port);
      if (stream == nullptr) return;
      outcome = client.Sync(stream.get(), protocol, client_points);
    } else {
      auto [server_end, client_end] = net::PipeStream::CreatePair();
      std::thread server([host = &nodes_[step.source]->host(),
                          end = std::move(server_end)]() mutable {
        host->ServeConnection(end.get());
      });
      outcome = client.Sync(client_end.get(), protocol, client_points);
      server.join();
    }
    ++report_.client_syncs;

    // Oracle: the served sync must match the in-process driver bit for bit
    // on the same (client set, pinned snapshot) inputs.
    const std::unique_ptr<recon::PartySession> alice =
        reconciler->MakeAliceSession(client_points);
    const std::unique_ptr<recon::PartySession> bob =
        reconciler->MakeBobSession(snap->points(), snap.get());
    transport::Channel channel;
    const recon::ReconResult expected =
        recon::DrivePair(alice.get(), bob.get(), &channel);
    if (!outcome.handshake_ok || !outcome.error_detail.empty() ||
        outcome.result.success != expected.success ||
        (expected.success && outcome.result.bob_final != expected.bob_final)) {
      std::ostringstream detail;
      detail << "client-sync oracle mismatch: protocol=" << protocol
             << " peer=" << step.peer << " source=" << step.source
             << " wire{ok=" << outcome.result.success
             << " handshake=" << outcome.handshake_ok
             << " detail=" << outcome.error_detail
             << " |set|=" << outcome.result.bob_final.size()
             << "} driver{ok=" << expected.success
             << " |set|=" << expected.bob_final.size() << "}";
      Fail(FuzzFailure::kOracleMismatch, index, detail.str());
    }
  }

  void RunMeshRound(const FuzzStep& step, size_t index) {
    const size_t n = script_.config.num_peers;
    Rng rng(step.aux_seed);
    for (size_t k = 0; k < step.mesh_pulls; ++k) {
      size_t puller = rng.Below(n - 1);
      if (puller >= script_.config.writer) ++puller;  // followers only
      size_t source = rng.Below(n - 1);
      if (source >= puller) ++source;
      const replica::RoundRecord record =
          nodes_[puller]->SyncWithPeer(PipeDialer(source, {}));
      ++report_.mesh_pulls;
      if (!record.ok) ++report_.sync_errors;
    }
    (void)index;
  }

  void RunStep(const FuzzStep& step, size_t index) {
    switch (step.kind) {
      case StepKind::kInsert:
        ApplyMutation(step, {step.point}, {});
        break;
      case StepKind::kDelete:
        ApplyMutation(step, {}, {step.point});
        break;
      case StepKind::kUpdate:
        ApplyMutation(step, {step.point}, {step.old_point});
        break;
      case StepKind::kSync:
        RunSync(step.peer, step.source, step, index);
        break;
      case StepKind::kClientSync:
        RunClientSync(step, index);
        break;
      case StepKind::kMeshRound:
        RunMeshRound(step, index);
        break;
    }
  }

  size_t MaxDivergence(std::ostringstream* detail) const {
    size_t max_div = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      for (size_t j = i + 1; j < nodes_.size(); ++j) {
        const size_t div =
            replica::SetDivergence(nodes_[i]->points(), nodes_[j]->points());
        if (div > 0 && detail != nullptr) {
          *detail << " d(" << i << "," << j << ")=" << div;
        }
        max_div = std::max(max_div, div);
      }
    }
    return max_div;
  }

  void Quiesce() {
    const size_t writer = script_.config.writer;
    std::string last_error;
    bool converged = false;
    for (size_t sweep = 0; sweep < options_.max_quiescence_sweeps; ++sweep) {
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (i == writer) continue;
        const replica::RoundRecord record =
            nodes_[i]->SyncWithPeer(PipeDialer(writer, {}));
        if (!record.ok) last_error = record.error_detail;
      }
      JoinServeThreads();
      report_.quiescence_sweeps = sweep + 1;
      if (MaxDivergence(nullptr) == 0) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      std::ostringstream detail;
      detail << "not converged after " << report_.quiescence_sweeps
             << " quiescence sweeps:";
      MaxDivergence(&detail);
      if (!last_error.empty()) detail << " last_round_error=" << last_error;
      Fail(FuzzFailure::kDiverged, ~size_t{0}, detail.str());
      return;
    }
    // Independent oracle: set equality established, EMD must agree. The
    // replication stack never computes EMD, so a shared bug cannot also
    // fake this zero.
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (i == writer) continue;
      const double emd =
          EmdAuto(nodes_[writer]->points(), nodes_[i]->points(), Metric::kL1,
                  options_.emd_exact_limit);
      if (emd != 0.0) {
        std::ostringstream detail;
        detail << "converged sets with nonzero EMD: emd(" << writer << ","
               << i << ")=" << emd;
        Fail(FuzzFailure::kEmdNonzero, ~size_t{0}, detail.str());
        return;
      }
    }
    report_.ok = true;
  }

  const FuzzScript& script_;
  const FuzzRunnerOptions& options_;
  recon::ProtocolContext ctx_;
  recon::ProtocolParams params_;
  std::vector<std::unique_ptr<ReplicaNode>> nodes_;
  std::vector<std::thread> serve_threads_;
  RunReport report_;
};

}  // namespace

const char* FuzzFailureName(FuzzFailure failure) {
  switch (failure) {
    case FuzzFailure::kNone:
      return "none";
    case FuzzFailure::kDiverged:
      return "diverged";
    case FuzzFailure::kEmdNonzero:
      return "emd-nonzero";
    case FuzzFailure::kOracleMismatch:
      return "oracle-mismatch";
  }
  return "none";
}

RunReport RunScript(const FuzzScript& script, const FuzzRunnerOptions& options) {
  Harness harness(script, options);
  RunReport report = harness.Run();
  report.peer_metrics = harness.PeerMetrics();
  return report;
}

}  // namespace fuzz
}  // namespace rsr
