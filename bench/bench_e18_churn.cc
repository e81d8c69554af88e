// E18 — Cached vs rebuilt canonical sketches under churn.
//
// The paper's sketches are difference-proportional, yet a server that
// rebuilds Bob's sketches from the canonical set on every connection pays
// set-proportional work per sync. This bench measures exactly that term:
// the same quadtree sync burst is served twice, once by a SyncServer
// serving from its SketchStore's cached sketches (serve_from_cache = true,
// the default) and once by the rebuild baseline (= false), at 8 and 32
// concurrent clients, while the canonical set absorbs a churn batch of
// 0% / 1% / 10% of the set before every sync (server::ApplyUpdate, i.e.
// incremental Insert/Erase maintenance on the cached side).
//
// Clients here are replayers: each pre-encodes its Alice "qt-levels" frame
// once (it depends only on the client's replica) and replays it per sync,
// so the measured work is the server's, not the client's sketch building —
// this is a server-cost harness, unlike E16/E17 which bill both ends.
//
// Fidelity under churn is generation-exact: the "@accept" frame stamps the
// canonical generation the session was pinned to, every generation's
// snapshot is recorded at ApplyUpdate time, and each served result is
// compared bit-for-bit against recon::DrivePair on (replica, that exact
// generation's set). `ok` counts driver-matching syncs, `decoded`
// protocol-level successes, match_driver = ok / syncs and must be 1 in
// every row.
//
// Expected shape: cached serving beats rebuild serving by >= 2x at 32
// clients with no churn, and still wins at 1% churn. At 10% churn per sync
// it loses: a batch then costs O(batch · levels) maintenance of the
// quadtree family plus an O(n) point-set copy, which approaches a rebuild's
// O(n · levels), and every sync waits on one. That crossover is measured,
// not hidden; moving it is an open item.

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "net/frame.h"
#include "net/tcp.h"
#include "recon/driver.h"
#include "server/handshake.h"
#include "server/sync_server.h"
#include "util/stats.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rsr {
namespace {

constexpr size_t kSetSize = 2048;
constexpr size_t kOutliers = 4;
constexpr double kNoise = 0.5;
constexpr size_t kRounds = 3;  // sequential syncs per client

recon::ProtocolContext Ctx() {
  recon::ProtocolContext ctx;
  ctx.universe = MakeUniverse(1 << 14, 2);
  ctx.seed = 1818;
  return ctx;
}

recon::ProtocolParams Params() {
  recon::ProtocolParams params;
  params.quadtree.k = 8;
  return params;
}

PointSet Canonical() {
  workload::CloudSpec spec;
  spec.universe = Ctx().universe;
  spec.n = kSetSize;
  spec.shape = workload::CloudShape::kClusters;
  Rng rng(2929);
  return workload::GenerateCloud(spec, &rng);
}

PointSet DriftedReplica(const PointSet& base, uint64_t seed) {
  const Universe universe = Ctx().universe;
  Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(workload::PerturbPoint(
        p, universe, workload::NoiseKind::kGaussian, kNoise, &rng));
  }
  for (size_t i = 0; i < kOutliers; ++i) {
    Point fresh(universe.d);
    for (int j = 0; j < universe.d; ++j) {
      fresh[j] = static_cast<int64_t>(rng.Below(universe.delta));
    }
    replica[rng.Below(replica.size())] = std::move(fresh);
  }
  return replica;
}

/// One replayed sync: @hello, read @accept (generation), replay the canned
/// Alice frame, read @result. Packaged as a server::SyncOutcome so the
/// result settles through the same bench::MatchesDriver as E16/E17.
struct ReplayedSync {
  server::SyncOutcome outcome;
};

ReplayedSync ReplaySync(uint16_t port, const transport::Message& alice_frame,
                        size_t replica_size) {
  ReplayedSync sync;
  auto stream = net::TcpStream::Connect("127.0.0.1", port);
  if (stream == nullptr) return sync;
  net::FramedStream framed(stream.get());
  server::HelloFrame hello;
  hello.protocol = "quadtree";
  hello.client_set_size = replica_size;
  hello.want_result_set = true;
  if (!framed.Send(EncodeHello(hello))) return sync;
  transport::Message incoming;
  if (framed.Receive(&incoming) != net::FramedStream::RecvStatus::kMessage) {
    return sync;
  }
  server::AcceptFrame accept;
  if (!DecodeAccept(incoming, &accept)) return sync;
  sync.outcome.handshake_ok = true;
  sync.outcome.server_generation = accept.generation;
  if (!framed.Send(alice_frame)) {
    sync.outcome.handshake_ok = false;
    return sync;
  }
  if (framed.Receive(&incoming) != net::FramedStream::RecvStatus::kMessage) {
    sync.outcome.handshake_ok = false;
    return sync;
  }
  server::ResultFrame result;
  if (!DecodeResult(incoming, Ctx().universe, &result)) {
    sync.outcome.handshake_ok = false;
    return sync;
  }
  sync.outcome.result = std::move(result.result);
  stream->Close();
  return sync;
}

/// Shared churn state of one burst: the mutating canonical set plus every
/// generation's snapshot, recorded for exact post-burst verification.
struct ChurnState {
  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<const server::SketchSnapshot>> gens;
  std::shared_ptr<const server::SketchSnapshot> latest;
  workload::ChurnSpec spec;
  Rng rng{0};
};

void ApplyOneChurnBatch(server::SyncServer* server, ChurnState* state) {
  std::lock_guard<std::mutex> lock(state->mu);
  const workload::ChurnBatch batch = workload::MakeChurnBatch(
      state->latest->points(), Ctx().universe, state->spec, &state->rng);
  state->latest = server->ApplyUpdate(batch.inserts, batch.erases);
  state->gens[state->latest->generation()] = state->latest;
}

void RunBurst(const PointSet& canonical,
              const std::vector<transport::Message>& alice_frames,
              const std::vector<PointSet>& replicas, bool cached,
              size_t clients, double churn) {
  server::SyncServerOptions options;
  options.context = Ctx();
  options.params = Params();
  options.worker_threads = 8;
  options.serve_from_cache = cached;
  server::SyncServer server(canonical, options);
  if (!server.Start(net::TcpListener::Listen("127.0.0.1", 0))) {
    std::fprintf(stderr, "E18: failed to bind a loopback listener\n");
    return;
  }

  ChurnState state;
  state.latest = server.snapshot();
  state.gens[state.latest->generation()] = state.latest;
  state.spec.fraction = churn;
  state.rng = Rng(7000 + clients + static_cast<uint64_t>(1e4 * churn) +
                  (cached ? 1 : 0));

  std::vector<std::vector<ReplayedSync>> syncs(
      clients, std::vector<ReplayedSync>(kRounds));
  const auto burst_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      for (size_t round = 0; round < kRounds; ++round) {
        if (churn > 0.0) ApplyOneChurnBatch(&server, &state);
        syncs[i][round] =
            ReplaySync(server.port(), alice_frames[i], replicas[i].size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double burst_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    burst_start)
          .count();
  server.Stop();

  // Settle every sync against the in-process driver on the exact canonical
  // generation it was served from. One driver run per (client, generation)
  // pair; with churn off all rounds share generation 0.
  std::map<std::pair<size_t, uint64_t>, recon::ReconResult> expected_cache;
  const size_t total = clients * kRounds;
  size_t matched = 0, decoded = 0;
  for (size_t i = 0; i < clients; ++i) {
    for (size_t round = 0; round < kRounds; ++round) {
      const ReplayedSync& sync = syncs[i][round];
      if (sync.outcome.result.success) ++decoded;
      if (!sync.outcome.handshake_ok) continue;
      const auto gen_it = state.gens.find(sync.outcome.server_generation);
      if (gen_it == state.gens.end()) continue;  // impossible by design
      const auto key = std::make_pair(i, sync.outcome.server_generation);
      auto it = expected_cache.find(key);
      if (it == expected_cache.end()) {
        const auto reconciler =
            recon::MakeReconciler("quadtree", Ctx(), Params());
        transport::Channel channel;
        it = expected_cache
                 .emplace(key, reconciler->Run(replicas[i],
                                               gen_it->second->points(),
                                               &channel))
                 .first;
      }
      if (bench::MatchesDriver(sync.outcome, it->second)) ++matched;
    }
  }

  bench::RowExtras({{"wall_ms", bench::Num(1e3 * burst_seconds)}});
  bench::Row({cached ? "cached" : "rebuild", std::to_string(clients),
              bench::Num(100.0 * churn), std::to_string(matched),
              std::to_string(decoded),
              bench::Num(static_cast<double>(total) / burst_seconds),
              bench::Num(static_cast<double>(matched) /
                         static_cast<double>(total))});
}

}  // namespace
}  // namespace rsr

int main() {
  using namespace rsr;
  bench::Banner(
      "E18", "canonical sketch store: cached vs rebuilt serving under churn",
      "cached quadtree serving >= 2x the rebuild baseline at 32 clients "
      "without churn and ahead at 1% churn, behind at 10%; every served "
      "result matches the driver on its pinned generation "
      "(match_driver = 1)");
  bench::Row({"mode", "clients", "churn_pct", "ok", "decoded",
              "syncs_per_sec", "match_driver"});

  const PointSet canonical = Canonical();
  constexpr size_t kMaxClients = 32;
  std::vector<PointSet> replicas(kMaxClients);
  std::vector<transport::Message> alice_frames;
  alice_frames.reserve(kMaxClients);
  for (size_t i = 0; i < kMaxClients; ++i) {
    replicas[i] = DriftedReplica(canonical, 5000 + 17 * i);
    // Alice's one-shot frame depends only on her replica; build it once.
    const auto reconciler = recon::MakeReconciler("quadtree", Ctx(), Params());
    auto alice = reconciler->MakeAliceSession(replicas[i]);
    std::vector<transport::Message> opening = alice->Start();
    alice_frames.push_back(std::move(opening.at(0)));
  }

  for (const bool cached : {false, true}) {
    for (const size_t clients : {size_t{8}, size_t{32}}) {
      for (const double churn : {0.0, 0.01, 0.10}) {
        RunBurst(canonical, alice_frames, replicas, cached, clients, churn);
      }
    }
  }
  return 0;
}
