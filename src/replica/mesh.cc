#include "replica/mesh.h"

#include <algorithm>
#include <utility>

#include "net/pipe_stream.h"
#include "net/tcp.h"
#include "util/check.h"

namespace rsr {
namespace replica {

ReplicaMesh::ReplicaMesh(PointSet initial, ReplicaMeshOptions options)
    : options_(std::move(options)) {
  const size_t n = std::max<size_t>(1, options_.nodes);
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ReplicaNodeOptions node_options = options_.node;
    node_options.node_name = "node" + std::to_string(i);
    nodes_.push_back(
        std::make_unique<ReplicaNode>(initial, std::move(node_options)));
    if (options_.use_tcp) {
      RSR_CHECK(nodes_.back()->host().Start(
          net::TcpListener::Listen("127.0.0.1", 0)));
    }
  }
  schedulers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<StreamFactory> peers;
    std::vector<std::string> peer_names;
    peers.reserve(n - 1);
    peer_names.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) {
        peers.push_back(PeerFactory(j));
        peer_names.push_back("node" + std::to_string(j));
      }
    }
    AntiEntropyOptions ae = options_.anti_entropy;
    ae.seed = options_.anti_entropy.seed + i;  // decorrelate peer choices
    schedulers_.push_back(std::make_unique<AntiEntropyScheduler>(
        nodes_[i].get(), std::move(peers), ae, std::move(peer_names)));
  }
}

ReplicaMesh::~ReplicaMesh() { StopSchedulers(); }

StreamFactory ReplicaMesh::PeerFactory(size_t i) {
  return [this, i] { return Dial(i); };
}

std::unique_ptr<net::ByteStream> ReplicaMesh::Dial(size_t peer) {
  if (options_.use_tcp) {
    return net::TcpStream::Connect("127.0.0.1", nodes_[peer]->host().port());
  }
  auto [server_end, client_end] = net::PipeStream::CreatePair();
  server::CanonicalHost* host = &nodes_[peer]->host();
  {
    MutexLock lock(serve_mu_);
    serve_threads_.emplace_back(
        [host, end = std::move(server_end)]() mutable {
          host->ServeConnection(end.get());
        });
  }
  return client_end;
}

RoundRecord ReplicaMesh::RunRound(size_t i, size_t peer) {
  return nodes_[i]->SyncWithPeer(PeerFactory(peer),
                                 "node" + std::to_string(peer));
}

void ReplicaMesh::StopSchedulers() {
  for (const std::unique_ptr<AntiEntropyScheduler>& scheduler : schedulers_) {
    scheduler->Stop();
  }
  JoinServeThreads();
}

void ReplicaMesh::JoinServeThreads() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(serve_mu_);
    threads.swap(serve_threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

size_t ReplicaMesh::Divergence(size_t i, size_t j) const {
  return SetDivergence(nodes_[i]->points(), nodes_[j]->points());
}

size_t ReplicaMesh::MaxDivergence() const {
  size_t worst = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (size_t j = i + 1; j < nodes_.size(); ++j) {
      worst = std::max(worst, Divergence(i, j));
    }
  }
  return worst;
}

}  // namespace replica
}  // namespace rsr
