#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "net/frame.h"
#include "net/tcp.h"
#include "recon/driver.h"
#include "server/handshake.h"
#include "transport/channel.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double WallSeconds() { return ClockSeconds(CLOCK_MONOTONIC); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status, MB; -1 if unreadable.
double StatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

double memory_baseline_mb = 0.0;

}  // namespace

bool StartMemoryMeter() {
  malloc_trim(0);
  memory_baseline_mb = StatusMb("VmRSS");
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;  // 5: reset the peak RSS
  return std::fclose(f) == 0 && wrote && memory_baseline_mb > 0.0;
}

double ProgramPeakMb() { return StatusMb("VmHWM") - memory_baseline_mb; }

size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------- Samples

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

// -------------------------------------------------------------- Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

bool Report::Has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

const std::string& Report::Unit(const std::string& name) const {
  static const std::string kNone;
  const auto it = values_.find(name);
  return it == values_.end() ? kNone : it->second.second;
}

std::string Report::ToJson(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = values_.find(name);
    if (it == values_.end()) continue;
    char buf[64];
    // %.17g keeps every digit the double carries.
    std::snprintf(buf, sizeof(buf), "%.17g", it->second.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           it->second.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

// -------------------------------------------------------------- Tracer

void Tracer::Adopt(const SpanBuffer& buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), buffer.spans().begin(), buffer.spans().end());
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (name == span.name) out.Add(span.end - span.start);
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"op\": %llu, \"id\": %llu, "
                 "\"parent\": %llu, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.name, static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.start, s.end);
  }
  return std::fclose(f) == 0;
}

// --------------------------------------------------------- input model

rsr::recon::ProtocolContext Context(uint64_t seed) {
  rsr::recon::ProtocolContext ctx;
  ctx.universe = rsr::MakeUniverse(int64_t{1} << 20, 2);
  ctx.seed = 0x5eed0000u ^ (seed * 0x9e3779b97f4a7c15ull);
  return ctx;
}

PointSet Canonical(const rsr::recon::ProtocolContext& ctx, size_t n,
                   uint64_t seed) {
  rsr::workload::CloudSpec spec;
  spec.universe = ctx.universe;
  spec.n = n;
  spec.shape = rsr::workload::CloudShape::kClusters;
  rsr::Rng rng(seed);
  return rsr::workload::GenerateCloud(spec, &rng);
}

PointSet DriftedReplica(const PointSet& base, const rsr::Universe& universe,
                        uint64_t seed) {
  constexpr double kNoise = 0.5;
  constexpr size_t kOutliers = 4;
  rsr::Rng rng(seed);
  PointSet replica;
  replica.reserve(base.size());
  for (const Point& p : base) {
    replica.push_back(rsr::workload::PerturbPoint(
        p, universe, rsr::workload::NoiseKind::kGaussian, kNoise, &rng));
  }
  for (size_t i = 0; i < kOutliers; ++i) {
    Point fresh(static_cast<size_t>(universe.d));
    for (int j = 0; j < universe.d; ++j) {
      fresh[static_cast<size_t>(j)] = static_cast<int64_t>(
          rng.Below(static_cast<uint64_t>(universe.delta)));
    }
    replica[rng.Below(replica.size())] = std::move(fresh);
  }
  return replica;
}

bool MakeAlternation(PointSet initial, const rsr::Universe& universe,
                     uint64_t seed, Alternation* out) {
  rsr::workload::ChurnSpec spec;
  spec.fraction = 0.01;
  rsr::Rng rng(seed);
  const rsr::workload::ChurnBatch drawn =
      rsr::workload::MakeChurnBatch(initial, universe, spec, &rng);
  std::map<Point, int> in_set, in_batch;
  for (const Point& p : initial) ++in_set[p];
  for (const Point& p : drawn.inserts) ++in_batch[p];
  out->batch = {};
  for (size_t i = 0; i < drawn.erases.size(); ++i) {
    const Point& erase = drawn.erases[i];
    const Point& insert = drawn.inserts[i];
    if (in_set[erase] == 1 && in_set.count(insert) == 0 &&
        in_batch[insert] == 1) {
      out->batch.erases.push_back(erase);
      out->batch.inserts.push_back(insert);
    }
  }
  out->inverse.inserts = out->batch.erases;
  out->inverse.erases = out->batch.inserts;
  out->states[0] = std::move(initial);
  out->states[1] = out->states[0];
  rsr::workload::ApplyChurnBatch(out->batch, &out->states[1]);
  out->states[2] = out->states[1];
  rsr::workload::ApplyChurnBatch(out->inverse, &out->states[2]);
  // One more round trip must land on the same two sequences.
  PointSet again = out->states[2];
  rsr::workload::ApplyChurnBatch(out->batch, &again);
  if (again != out->states[1]) return false;
  rsr::workload::ApplyChurnBatch(out->inverse, &again);
  return again == out->states[2];
}

void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < count; i = next++) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

rsr::recon::ReconResult DriverResult(const std::string& protocol,
                                     const rsr::recon::ProtocolContext& ctx,
                                     const rsr::recon::ProtocolParams& params,
                                     const PointSet& alice,
                                     const PointSet& bob) {
  const auto reconciler = rsr::recon::MakeReconciler(protocol, ctx, params);
  auto alice_session = reconciler->MakeAliceSession(alice);
  auto bob_session = reconciler->MakeBobSession(bob);
  rsr::transport::Channel channel;
  return rsr::recon::DrivePair(alice_session.get(), bob_session.get(),
                               &channel);
}

rsr::transport::Message AliceFrame(const std::string& protocol,
                                   const rsr::recon::ProtocolContext& ctx,
                                   const rsr::recon::ProtocolParams& params,
                                   const PointSet& points) {
  const auto reconciler = rsr::recon::MakeReconciler(protocol, ctx, params);
  auto alice = reconciler->MakeAliceSession(points);
  std::vector<rsr::transport::Message> opening = alice->Start();
  return std::move(opening.at(0));
}

// ------------------------------------------------------ replayed sync

ReplayedSync ReplaySync(uint16_t port, const std::string& protocol,
                        const rsr::transport::Message& alice_frame,
                        size_t client_set_size,
                        const rsr::Universe& universe, SpanBuffer* spans,
                        uint64_t op) {
  namespace server = rsr::server;
  ReplayedSync sync;
  sync.outcome.error_detail = "replay: connect failed";
  const double t0 = WallSeconds();
  auto stream = rsr::net::TcpStream::Connect("127.0.0.1", port);
  const double t1 = WallSeconds();
  spans->Record("net.connect", op, spans->NewId(), op, t0, t1);
  if (stream == nullptr) return sync;
  rsr::net::FramedStream framed(stream.get());
  server::HelloFrame hello;
  hello.protocol = protocol;
  hello.client_set_size = client_set_size;
  hello.want_result_set = true;
  rsr::transport::Message incoming;
  server::AcceptFrame accept;
  sync.outcome.error_detail = "replay: handshake failed";
  if (!framed.Send(server::EncodeHello(hello)) ||
      framed.Receive(&incoming) != rsr::net::FramedStream::RecvStatus::kMessage ||
      !server::DecodeAccept(incoming, &accept)) {
    return sync;
  }
  const double t2 = WallSeconds();
  spans->Record("server.accept_wait", op, spans->NewId(), op, t1, t2);
  sync.outcome.handshake_ok = true;
  sync.outcome.server_generation = accept.generation;
  sync.outcome.server_replica_seq = accept.replica_seq;
  server::ResultFrame result;
  sync.outcome.error_detail = "replay: session failed";
  if (!framed.Send(alice_frame) ||
      framed.Receive(&incoming) != rsr::net::FramedStream::RecvStatus::kMessage ||
      !server::DecodeResult(incoming, universe, &result)) {
    return sync;
  }
  const double t3 = WallSeconds();
  spans->Record("server.session", op, spans->NewId(), op, t2, t3);
  stream->Close();
  sync.outcome.error_detail.clear();
  sync.outcome.result = std::move(result.result);
  sync.up_bytes = framed.bytes_sent();
  sync.down_bytes = framed.bytes_received();
  sync.outcome.bytes_sent = sync.up_bytes;
  sync.outcome.bytes_received = sync.down_bytes;
  sync.outcome.wall_seconds = t3 - t0;
  return sync;
}

// --------------------------------------------------------------- Phase

void Phase::WaitOpen() {
  std::unique_lock<std::mutex> lock(mu_);
  ++warm_;
  cv_.notify_all();
  cv_.wait(lock, [this] { return opened_; });
}

bool Phase::SleepUntil(double wall_time) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_.load() && WallSeconds() < wall_time) {
    cv_.wait_for(lock, std::chrono::duration<double>(wall_time - WallSeconds()));
  }
  return !stop_.load();
}

void Phase::WorkerDone(double thread_cpu, double excluded_cpu) {
  const double now = WallSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  worker_cpu_ += thread_cpu;
  excluded_cpu_ += excluded_cpu;
  wall_end_ = std::max(wall_end_, now);
  ++done_;
  cv_.notify_all();
}

void Phase::Open() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return warm_ >= workers_; });
    main_cpu_start_ = ThreadCpuSeconds();
    process_cpu_start_ = ProcessCpuSeconds();
    wall_start_ = WallSeconds();
    opened_ = true;
  }
  cv_.notify_all();
}

void Phase::RunUntilDone() {
  Open();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_ >= workers_; });
  stop_.store(true);
}

void Phase::Run(double seconds) {
  Open();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
}

void Phase::Finish() {
  process_cpu_ = ProcessCpuSeconds() - process_cpu_start_;
  main_cpu_ = ThreadCpuSeconds() - main_cpu_start_;
  std::lock_guard<std::mutex> lock(mu_);
  if (wall_end_ < wall_start_) wall_end_ = WallSeconds();
}

// ------------------------------------------------------- run plumbing

bool CheckThreadBudget(size_t load_threads, size_t host_threads) {
  const size_t cpus = OnlineCpus();
  if (load_threads + host_threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: thread budget %zu load + %zu host exceeds "
                 "nproc = %zu\n",
                 load_threads, host_threads, cpus);
    return false;
  }
  return true;
}

double MedianSeconds(size_t reps, const std::function<void()>& fn) {
  Samples samples;
  for (size_t i = 0; i < reps; ++i) {
    const double t0 = WallSeconds();
    fn();
    samples.Add(WallSeconds() - t0);
  }
  return samples.Median();
}

}  // namespace perfbench
