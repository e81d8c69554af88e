// wire_golden: the paper's metric, bits on the wire, pinned exactly.
//
// Every registry protocol runs over small fixed-seed cells of the paper's
// sweeps — E1 (outlier budget k), E3 (noise), E5 (dimension d) and E6
// (universe side Δ) — through the in-process driver. So does every
// protocol a pinned sweep of bench/paper_sweeps.h measures, at each of the
// sweep's configurations and at its own n (E1, E3, E4 and E6, up to
// n = 32,768). Per cell and protocol the test records what the wire and
// the result say:
//
//   bits Alice→Bob and Bob→Alice, rounds, success, chosen_level,
//   decoded_entries, attempts, a 64-bit hash of the transcript (each
//   message's direction, label and payload, in send order), and
//   Evaluation::ratio_vs_emdk (the ratio the paper bounds by O(d)).
//
// Everything but the ratio compares exactly against
// tests/golden/wire_bits.tsv; the ratio compares at a relative tolerance of
// 1e-9, since compilers may round the EMD's floating point differently.
// Each cell also runs with Bob given a SketchStore snapshot of his set as
// his canonical sketch provider: its transcript and result must equal the
// uncached run's, so a cached sketch is never distinguishable on the wire.
//
// The paper's shape claims are gated on the same rows, with the constants
// of DESIGN §3.4: quadtree bits flat in n and exact-iblt bits Θ(n) on E4,
// and ratio_vs_emdk ≤ c·d on every successful quadtree cell.
//
// Run with --update to rewrite the golden file from the current code; the
// diff of that file is then the change's effect on the wire.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/paper_sweeps.h"
#include "recon/driver.h"
#include "recon/evaluate.h"
#include "recon/protocol.h"
#include "recon/registry.h"
#include "recon/session.h"
#include "server/sketch_store.h"
#include "transport/channel.h"
#include "workload/scenario.h"

namespace rsr {
namespace {

bool g_update = false;

/// One small cell of a paper sweep.
struct Cell {
  const char* id;
  size_t n;
  int d;
  int64_t delta;
  size_t k;
  double noise;
  uint64_t scenario_seed;
  uint64_t context_seed;
};

constexpr int64_t kDelta20 = int64_t{1} << 20;
constexpr Cell kCells[] = {
    // E1: communication vs k (d = 2, Δ = 2^20, ε = 2).
    {"e1-k2", 256, 2, kDelta20, 2, 2.0, 1, 42},
    {"e1-k8", 256, 2, kDelta20, 8, 2.0, 1, 42},
    {"e1-k32", 256, 2, kDelta20, 32, 2.0, 1, 42},
    // E3: noise sweep (k = 8); ε = 0 is the exact-replica corner.
    {"e3-eps0", 256, 2, kDelta20, 8, 0.0, 3, 11},
    {"e3-eps1", 256, 2, kDelta20, 8, 1.0, 3, 11},
    {"e3-eps8", 256, 2, kDelta20, 8, 8.0, 3, 11},
    // E5: dimension sweep (Δ = 2^10, ε = 1, k = 4).
    {"e5-d1", 128, 1, int64_t{1} << 10, 4, 1.0, 201, 24},
    {"e5-d3", 128, 3, int64_t{1} << 10, 4, 1.0, 203, 26},
    {"e5-d6", 128, 6, int64_t{1} << 10, 4, 1.0, 206, 29},
    // E6: universe sweep (k = 8, ε = 2).
    {"e6-delta2^8", 256, 2, int64_t{1} << 8, 8, 2.0, 7, 29},
    {"e6-delta2^14", 256, 2, int64_t{1} << 14, 8, 2.0, 7, 29},
    {"e6-delta2^24", 256, 2, int64_t{1} << 24, 8, 2.0, 7, 29},
};

/// FNV-1a, 64-bit: a stable hash with no dependency on the library's own
/// hash functions, which a protocol change may touch.
class TranscriptHash {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      state_ = (state_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void Add(uint64_t value) { Add(&value, sizeof(value)); }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    Add(s.data(), s.size());
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Forwards to a session and hashes every message it sends.
class RecordingSession : public recon::PartySession {
 public:
  RecordingSession(std::unique_ptr<recon::PartySession> inner, uint64_t side,
                   TranscriptHash* hash)
      : inner_(std::move(inner)), side_(side), hash_(hash) {}

  std::vector<transport::Message> Start() override {
    return Record(inner_->Start());
  }
  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    return Record(inner_->OnMessage(std::move(message)));
  }
  bool IsDone() const override { return inner_->IsDone(); }
  recon::ReconResult TakeResult() override { return inner_->TakeResult(); }

 private:
  std::vector<transport::Message> Record(
      std::vector<transport::Message> messages) {
    for (const transport::Message& m : messages) {
      hash_->Add(side_);
      hash_->Add(m.label);
      hash_->Add(static_cast<uint64_t>(m.payload_bits));
      hash_->Add(m.payload.data(), m.payload.size());
    }
    return messages;
  }

  std::unique_ptr<recon::PartySession> inner_;
  uint64_t side_;
  TranscriptHash* hash_;
};

/// One driven run: the channel's accounting, Bob's result and the hash.
struct DrivenRun {
  transport::ChannelStats stats;
  recon::ReconResult result;
  uint64_t hash = 0;
};

DrivenRun Drive(const recon::Reconciler& reconciler, const PointSet& alice,
                const PointSet& bob,
                const recon::CanonicalSketchProvider* cache) {
  DrivenRun run;
  TranscriptHash hash;
  RecordingSession alice_session(reconciler.MakeAliceSession(alice), 0,
                                 &hash);
  RecordingSession bob_session(reconciler.MakeBobSession(bob, cache), 1,
                               &hash);
  transport::Channel channel;
  run.result = recon::DrivePair(&alice_session, &bob_session, &channel);
  run.stats = channel.stats();
  run.hash = hash.value();
  return run;
}

/// One golden row.
struct Row {
  bool success = false;
  size_t bits_ab = 0;
  size_t bits_ba = 0;
  size_t rounds = 0;
  int chosen_level = -1;
  size_t decoded_entries = 0;
  size_t attempts = 0;
  uint64_t hash = 0;
  double ratio = 0.0;
  size_t n = 0;  // The cell's set size and dimension, for the shape
  int d = 0;     // gates; not in the file.
};

constexpr char kHeader[] =
    "cell\tprotocol\tsuccess\tbits_ab\tbits_ba\trounds\tchosen_level\t"
    "decoded_entries\tattempts\ttranscript_hash\tratio_vs_emdk";

std::string FormatRow(const std::string& key, const Row& row) {
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(row.hash));
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.17g", row.ratio);
  std::ostringstream out;
  out << key << '\t' << (row.success ? 1 : 0) << '\t' << row.bits_ab << '\t'
      << row.bits_ba << '\t' << row.rounds << '\t' << row.chosen_level << '\t'
      << row.decoded_entries << '\t' << row.attempts << '\t' << hash << '\t'
      << ratio;
  return out.str();
}

/// Golden lines keyed by "cell\tprotocol".
std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::map<std::string, std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const size_t key_end = line.find('\t', line.find('\t') + 1);
    if (line != kHeader && key_end != std::string::npos) {
      lines[line.substr(0, key_end)] = line;
    }
  }
  return lines;
}

/// Every field but the last, ratio_vs_emdk, matches exactly.
void ExpectRowMatches(const std::string& want, const std::string& got) {
  const size_t want_cut = want.rfind('\t');
  const size_t got_cut = got.rfind('\t');
  EXPECT_EQ(got.substr(0, got_cut), want.substr(0, want_cut));
  const double want_ratio = std::stod(want.substr(want_cut + 1));
  const double got_ratio = std::stod(got.substr(got_cut + 1));
  EXPECT_LE(std::fabs(got_ratio - want_ratio),
            1e-9 * std::max(std::fabs(want_ratio), 1.0))
      << "ratio_vs_emdk " << got_ratio << " vs golden " << want_ratio;
}

// The paper's shape gates (DESIGN §3.4), each fixed once from the first
// run of the pinned rows.
constexpr double kQuadtreeFlatSpread = 1.1;       // today 1.049
constexpr double kExactMinBitsPerPoint = 400.0;   // today 799
constexpr double kExactMaxBitsPerPoint = 2560.0;  // today 1,277
constexpr double kRatioPerDimension = 3.0;        // today 2.49, at d = 1

/// Runs each of `protocols` on one cell and records its golden row.
void PinCell(const std::string& cell, const workload::ReplicaPair& pair,
             const recon::ProtocolContext& ctx,
             const recon::ProtocolParams& params,
             const recon::EvaluateOptions& options,
             const std::vector<std::string>& protocols,
             std::map<std::string, Row>* rows) {
  server::SketchStore store(pair.bob,
                            server::SketchStoreOptions{ctx, params, {}});
  const auto snapshot = store.Snapshot();
  for (const std::string& protocol : protocols) {
    const std::string key = cell + "\t" + protocol;
    SCOPED_TRACE(key);
    const auto reconciler = recon::MakeReconciler(protocol, ctx, params);
    Row row;
    if (reconciler != nullptr) {
      const DrivenRun run = Drive(*reconciler, pair.alice, pair.bob, nullptr);
      row.success = run.result.success;
      row.bits_ab = run.stats.alice_to_bob_bits;
      row.bits_ba = run.stats.bob_to_alice_bits;
      row.rounds = run.stats.rounds;
      row.chosen_level = run.result.chosen_level;
      row.decoded_entries = run.result.decoded_entries;
      row.attempts = run.result.attempts;
      row.hash = run.hash;

      const DrivenRun cached =
          Drive(*reconciler, pair.alice, snapshot->points(), snapshot.get());
      EXPECT_EQ(cached.hash, run.hash) << "cached transcript differs";
      EXPECT_EQ(cached.result.success, run.result.success);
      EXPECT_EQ(cached.result.bob_final, run.result.bob_final);

      const recon::Evaluation eval = recon::EvaluateProtocol(
          protocol, ctx, params, pair.alice, pair.bob, options);
      EXPECT_EQ(eval.comm_bits, run.stats.total_bits);
      row.ratio = eval.ratio_vs_emdk;
    }
    row.n = pair.alice.size();
    row.d = ctx.universe.d;
    (*rows)[key] = row;
  }
}

/// Every pinned row, keyed "cell\tprotocol": the small cells, then every
/// configuration of each pinned sweep of the paper sweep table.
const std::map<std::string, Row>& ComputeAll() {
  static const std::map<std::string, Row> computed = [] {
    std::map<std::string, Row> out;
    for (const Cell& cell : kCells) {
      recon::ProtocolContext ctx;
      ctx.universe = MakeUniverse(cell.delta, cell.d);
      ctx.seed = cell.context_seed;
      recon::ProtocolParams params;
      params.k = cell.k;
      recon::EvaluateOptions options;
      options.k = cell.k;
      const workload::ReplicaPair pair =
          workload::StandardScenario(cell.n, cell.d, cell.delta, cell.k,
                                     cell.noise, cell.scenario_seed)
              .Materialize();
      PinCell(cell.id, pair, ctx, params, options,
              recon::ProtocolRegistry::Global().ListProtocols(), &out);
    }
    for (const bench::Sweep& sweep : bench::PaperSweeps()) {
      if (!sweep.pinned) continue;
      for (const bench::Config& config : bench::Configs(sweep)) {
        const bench::Trial trial = bench::MakeTrial(sweep, config, 0);
        PinCell(bench::CellId(sweep, config), trial.pair, trial.context,
                config.params, trial.options, bench::Protocols(sweep, config),
                &out);
      }
    }
    return out;
  }();
  return computed;
}

TEST(WireGoldenTest, EveryProtocolMatchesTheGoldenWire) {
  const std::map<std::string, Row>& computed = ComputeAll();
  if (g_update) {
    std::ofstream out(RSR_WIRE_GOLDEN_PATH);
    ASSERT_TRUE(out.good()) << "cannot write " << RSR_WIRE_GOLDEN_PATH;
    out << kHeader << '\n';
    for (const auto& [key, row] : computed) out << FormatRow(key, row) << '\n';
    std::printf("wrote %zu rows to %s\n", computed.size(),
                RSR_WIRE_GOLDEN_PATH);
    return;
  }

  const std::map<std::string, std::string> golden =
      ReadGolden(RSR_WIRE_GOLDEN_PATH);
  ASSERT_FALSE(golden.empty())
      << "no golden rows in " << RSR_WIRE_GOLDEN_PATH
      << "; generate them with --update";
  for (const auto& [key, row] : computed) {
    SCOPED_TRACE(key);
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden row for " << key;
      continue;
    }
    ExpectRowMatches(it->second, FormatRow(key, row));
  }
  for (const auto& [key, line] : golden) {
    EXPECT_EQ(computed.count(key), 1u) << "golden row not produced: " << key;
  }
}

/// Bits on the wire of `protocol` in every pinned E4 row, by n.
std::map<size_t, size_t> E4Bits(const std::string& protocol) {
  std::map<size_t, size_t> bits;
  for (const auto& [key, row] : ComputeAll()) {
    if (key.starts_with("E4/") && key.ends_with("\t" + protocol)) {
      bits[row.n] = row.bits_ab + row.bits_ba;
    }
  }
  return bits;
}

TEST(WireGoldenTest, QuadtreeBitsStayFlatInN) {
  const std::map<size_t, size_t> bits = E4Bits("quadtree");
  ASSERT_EQ(bits.size(), 8u);
  const auto [lo, hi] = std::minmax_element(
      bits.begin(), bits.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_LE(static_cast<double>(hi->second),
            kQuadtreeFlatSpread * static_cast<double>(lo->second))
      << "quadtree bits " << lo->second << " at n = " << lo->first << " vs "
      << hi->second << " at n = " << hi->first;
}

TEST(WireGoldenTest, ExactBitsGrowLinearlyInN) {
  const std::map<size_t, size_t> bits = E4Bits("exact-iblt");
  ASSERT_EQ(bits.size(), 8u);
  for (const auto& [n, total] : bits) {
    const double per_point =
        static_cast<double>(total) / static_cast<double>(n);
    EXPECT_GE(per_point, kExactMinBitsPerPoint) << "n = " << n;
    EXPECT_LE(per_point, kExactMaxBitsPerPoint) << "n = " << n;
  }
}

TEST(WireGoldenTest, QuadtreeRatioWithinCTimesD) {
  // Cells that do not measure quality read 0 and pass.
  for (const auto& [key, row] : ComputeAll()) {
    if (row.success && key.find("\tquadtree") != std::string::npos) {
      EXPECT_LE(row.ratio, kRatioPerDimension * row.d) << key;
    }
  }
}

}  // namespace
}  // namespace rsr

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) rsr::g_update = true;
  }
  return RUN_ALL_TESTS();
}
