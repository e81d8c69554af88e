#include "recon/quadtree_recon.h"

#include <unordered_map>
#include <utility>

#include "hash/mix.h"
#include "iblt/sizing.h"
#include "iblt/strata.h"
#include "recon/session.h"
#include "util/check.h"

namespace rsr {
namespace recon {

uint64_t HistogramEntryKey(const ShiftedGrid& grid, const Cell& cell,
                           int level, int64_t count) {
  // CellKey already folds in the level and the grid seed; combining the
  // count makes (cell, c1) and (cell, c2) distinct sketch elements so they
  // never XOR-collide inside a cell.
  return HashCombine(grid.CellKey(cell, level),
                     static_cast<uint64_t>(count));
}

void HistogramEntryValue(const ShiftedGrid& grid, const Cell& cell, int level,
                         int64_t count, size_t n, std::vector<uint8_t>* out) {
  BitPacker packer(HistogramValueBits(grid, level, n), out);
  const int coord_bits = grid.CellCoordBits(level);
  for (int64_t c : cell) packer.WriteBits(static_cast<uint64_t>(c), coord_bits);
  packer.WriteBits(static_cast<uint64_t>(count), HistogramCountBits(n));
  packer.Flush();
}

bool ParseHistogramEntry(const ShiftedGrid& grid, int level, size_t n,
                         const IbltEntry& entry, LevelDiffEntry* out) {
  BitReader r(entry.value);
  Cell cell;
  if (!grid.UnpackCell(level, &r, &cell)) return false;
  uint64_t count = 0;
  if (!r.ReadBits(HistogramCountBits(n), &count)) return false;
  if (count == 0 || count > n) return false;
  // Cross-check the payload against the key: detects the (negligible but
  // nonzero probability) event of a corrupt entry surviving the checksum.
  if (HistogramEntryKey(grid, cell, level, static_cast<int64_t>(count)) !=
      entry.key) {
    return false;
  }
  out->cell = std::move(cell);
  out->count = static_cast<int64_t>(count);
  out->sign = entry.sign;
  return true;
}

void SketchLevelHistogram(const ShiftedGrid& grid, const CellLadder& ladder,
                          int level, size_t n, Iblt* iblt,
                          StrataEstimator* probe) {
  std::vector<uint8_t> value;
  ladder.ForEachCell(level, [&](const Cell& cell, int64_t count) {
    const uint64_t key = HistogramEntryKey(grid, cell, level, count);
    if (iblt != nullptr) {
      HistogramEntryValue(grid, cell, level, count, n, &value);
      iblt->Insert(key, value);
    }
    if (probe != nullptr) probe->Insert(key);
  });
}

Iblt BuildLevelIblt(const ShiftedGrid& grid, const PointSet& points,
                    int level, size_t n, const QuadtreeParams& params,
                    uint64_t seed) {
  Iblt table(LevelIbltConfig(grid, level, n, params, seed));
  SketchLevelHistogram(grid, CellLadder(grid, points), level, n, &table);
  return table;
}

std::optional<std::vector<LevelDiffEntry>> TryDecodeLevelDiff(
    const ShiftedGrid& grid, int level, size_t n, const Iblt& alice_iblt,
    const Iblt& bob_iblt, size_t budget) {
  Iblt diff = alice_iblt;
  diff.Subtract(bob_iblt);
  const IbltDecodeResult decoded = diff.Decode(budget);
  if (!decoded.success) return std::nullopt;
  std::vector<LevelDiffEntry> entries;
  entries.reserve(decoded.entries.size());
  for (const IbltEntry& raw : decoded.entries) {
    LevelDiffEntry parsed;
    if (!ParseHistogramEntry(grid, level, n, raw, &parsed)) {
      return std::nullopt;
    }
    entries.push_back(std::move(parsed));
  }
  return entries;
}

PointSet RepairBob(const ShiftedGrid& grid, const PointSet& bob, int level,
                   const std::vector<LevelDiffEntry>& diff) {
  // Collect, per differing cell, Alice's decoded count. Bob's own count
  // comes from his local index (the decoded Bob-side entries are redundant
  // with local state; they are used as a consistency check only).
  struct CellDelta {
    Cell cell;
    int64_t alice_count = 0;
  };
  std::unordered_map<uint64_t, CellDelta> deltas;
  for (const LevelDiffEntry& entry : diff) {
    const auto [it, inserted] =
        deltas.try_emplace(grid.CellKey(entry.cell, level));
    if (inserted) it->second.cell = entry.cell;
    if (entry.sign > 0) it->second.alice_count = entry.count;
  }

  // Index Bob's points in the differing cells by their level-ℓ cell, so
  // surplus can be deleted; points elsewhere are only hashed.
  std::unordered_map<uint64_t, std::vector<size_t>> bob_cells;
  for (const auto& [cell_key, delta] : deltas) bob_cells.try_emplace(cell_key);
  for (size_t i = 0; i < bob.size(); ++i) {
    const auto own = bob_cells.find(grid.CellKeyOf(bob[i], level));
    if (own != bob_cells.end()) own->second.push_back(i);
  }
  for (const LevelDiffEntry& entry : diff) {
    if (entry.sign > 0) continue;
    // Bob-side pair: his histogram really must contain this count.
    RSR_DCHECK(static_cast<int64_t>(
                   bob_cells.at(grid.CellKey(entry.cell, level)).size()) ==
               entry.count);
  }

  std::vector<char> removed(bob.size(), 0);
  PointSet additions;
  for (const auto& [cell_key, delta] : deltas) {
    const std::vector<size_t>& own = bob_cells.at(cell_key);
    const int64_t change = delta.alice_count - static_cast<int64_t>(own.size());
    if (change > 0) {
      const Point rep = grid.CellRepresentative(delta.cell, level);
      for (int64_t c = 0; c < change; ++c) additions.push_back(rep);
    } else if (change < 0) {
      for (int64_t c = 0; c < -change; ++c) {
        removed[own[static_cast<size_t>(c)]] = 1;
      }
    }
  }

  PointSet result;
  result.reserve(bob.size());
  for (size_t i = 0; i < bob.size(); ++i) {
    if (!removed[i]) result.push_back(bob[i]);
  }
  for (Point& p : additions) result.push_back(std::move(p));
  return result;
}

StrataConfig AdaptiveLevelProbeConfig(int level, uint64_t seed) {
  StrataConfig config = LevelStrataConfig(seed);
  config.seed = Hash64(static_cast<uint64_t>(level), config.seed);
  return config;
}

StrataEstimator BuildLevelProbe(const ShiftedGrid& grid,
                                const PointSet& points, int level,
                                uint64_t seed) {
  StrataEstimator est(AdaptiveLevelProbeConfig(level, seed));
  SketchLevelHistogram(grid, CellLadder(grid, points), level, points.size(),
                       nullptr, &est);
  return est;
}

namespace {

// --- One-shot sessions. ---

class QuadtreeAlice : public PartySessionBase {
 public:
  QuadtreeAlice(const ProtocolContext& context, const QuadtreeParams& params,
                const PointSet& points)
      : context_(context),
        params_(params),
        ladder_(ShiftedGrid(context.universe, context.seed), points) {}

  std::vector<transport::Message> Start() override {
    const ShiftedGrid grid(context_.universe, context_.seed);
    BitWriter w;
    for (int level : ProtocolLevels(grid, params_)) {
      Iblt table(LevelIbltConfig(grid, level, ladder_.size(), params_,
                                 context_.seed));
      SketchLevelHistogram(grid, ladder_, level, ladder_.size(), &table);
      table.Serialize(&w);
    }
    result_.success = true;
    Finish();
    return OneMessage(transport::MakeMessage("qt-levels", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(transport::Message) override {
    FailWith(SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  ProtocolContext context_;
  QuadtreeParams params_;
  CellLadder ladder_;  // Alice's set, sorted once for every level
};

class QuadtreeBob : public PartySessionBase {
 public:
  QuadtreeBob(const ProtocolContext& context, const QuadtreeParams& params,
              PointSet points, const CanonicalSketchProvider* sketches)
      : context_(context),
        params_(params),
        points_(std::move(points)),
        sketches_(sketches) {
    result_.bob_final = points_;
  }

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    const size_t n = points_.size();
    const ShiftedGrid grid(context_.universe, context_.seed);
    BitReader r(message.payload);
    const size_t budget = params_.DecodeBudget();
    std::optional<CellLadder> ladder;  // sorted on the first cache miss
    for (int level : ProtocolLevels(grid, params_)) {
      const IbltConfig config =
          LevelIbltConfig(grid, level, n, params_, context_.seed);
      std::optional<Iblt> alice_iblt = Iblt::Deserialize(config, &r);
      if (!alice_iblt.has_value()) {  // truncated qt-levels message
        FailWith(SessionError::kMalformedMessage);
        return NoMessages();
      }
      if (result_.success) continue;  // already repaired; drain the stream
      std::optional<Iblt> bob_iblt =
          sketches_ != nullptr ? sketches_->QuadtreeLevelIblt(config, level)
                               : std::nullopt;
      if (!bob_iblt.has_value()) {
        if (!ladder.has_value()) ladder.emplace(grid, points_);
        SketchLevelHistogram(grid, *ladder, level, n,
                             &bob_iblt.emplace(config));
      }
      std::optional<std::vector<LevelDiffEntry>> diff = TryDecodeLevelDiff(
          grid, level, n, *alice_iblt, *bob_iblt, budget);
      if (diff.has_value()) {
        result_.success = true;
        result_.chosen_level = level;
        result_.decoded_entries = diff->size();
        result_.bob_final = RepairBob(grid, points_, level, *diff);
      }
    }
    Finish();
    return NoMessages();
  }

 private:
  ProtocolContext context_;
  QuadtreeParams params_;
  PointSet points_;
  const CanonicalSketchProvider* sketches_;
};

// --- Adaptive sessions. ---

// Alice: opening strata probes, then an IBLT server. She has no way to
// observe the protocol's end (Bob just stops requesting), so she stays in
// the serving state; the driver terminates on Bob.
class AdaptiveQuadtreeAlice : public PartySessionBase {
 public:
  AdaptiveQuadtreeAlice(const ProtocolContext& context,
                        const QuadtreeParams& params, const PointSet& points)
      : context_(context),
        params_(params),
        ladder_(ShiftedGrid(context.universe, context.seed), points) {}

  std::vector<transport::Message> Start() override {
    const ShiftedGrid grid(context_.universe, context_.seed);
    BitWriter w;
    for (int level : ProtocolLevels(grid, params_)) {
      StrataEstimator est(AdaptiveLevelProbeConfig(level, context_.seed));
      SketchLevelHistogram(grid, ladder_, level, ladder_.size(), nullptr, &est);
      est.Serialize(&w);
    }
    result_.success = true;
    return OneMessage(transport::MakeMessage("qt-strata", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    // Serve a "qt-level-request": ship this level's histogram IBLT at the
    // requested size, salted by the attempt number.
    const size_t n = ladder_.size();
    const ShiftedGrid grid(context_.universe, context_.seed);
    BitReader rr(message.payload);
    uint64_t req_level = 0, req_cells = 0, req_attempt = 0;
    if (!rr.ReadVarint(&req_level) || !rr.ReadVarint(&req_cells) ||
        !rr.ReadVarint(&req_attempt)) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    IbltConfig config = LevelIbltConfig(grid, static_cast<int>(req_level), n,
                                        params_, context_.seed);
    config.cells = static_cast<size_t>(req_cells);
    config.seed = Hash64(req_attempt, config.seed);
    Iblt table(config);
    SketchLevelHistogram(grid, ladder_, static_cast<int>(req_level), n,
                         &table);
    BitWriter w;
    table.Serialize(&w);
    return OneMessage(transport::MakeMessage("qt-level-iblt", std::move(w)));
  }

 private:
  ProtocolContext context_;
  QuadtreeParams params_;
  CellLadder ladder_;  // Alice's set, sorted once for every request
};

class AdaptiveQuadtreeBob : public PartySessionBase {
 public:
  AdaptiveQuadtreeBob(const ProtocolContext& context,
                      const QuadtreeParams& params, size_t max_attempts,
                      PointSet points, const CanonicalSketchProvider* sketches)
      : context_(context),
        params_(params),
        max_attempts_(max_attempts),
        points_(std::move(points)),
        sketches_(sketches) {
    result_.bob_final = points_;
  }

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    switch (state_) {
      case State::kAwaitProbes:
        return HandleProbes(std::move(message));
      case State::kAwaitIblt:
        return HandleIblt(std::move(message));
    }
    FailWith(SessionError::kUnexpectedMessage);
    return NoMessages();
  }

 private:
  enum class State { kAwaitProbes, kAwaitIblt };

  std::vector<transport::Message> HandleProbes(transport::Message message) {
    const ShiftedGrid grid(context_.universe, context_.seed);
    const std::vector<int> levels = ProtocolLevels(grid, params_);
    BitReader pr(message.payload);
    const size_t budget = params_.DecodeBudget();
    int chosen = levels.back();
    uint64_t chosen_estimate = 0;
    bool have_choice = false;
    for (int level : levels) {
      const StrataConfig probe_config =
          AdaptiveLevelProbeConfig(level, context_.seed);
      std::optional<StrataEstimator> alice_est =
          StrataEstimator::Deserialize(probe_config, &pr);
      if (!alice_est.has_value()) {  // truncated qt-strata message
        FailWith(SessionError::kMalformedMessage);
        return NoMessages();
      }
      if (have_choice) continue;  // drain remaining probes
      std::optional<StrataEstimator> bob_est =
          sketches_ != nullptr
              ? sketches_->QuadtreeLevelProbe(probe_config, level)
              : std::nullopt;
      if (!bob_est.has_value()) {
        if (!ladder_.has_value()) ladder_.emplace(grid, points_);
        SketchLevelHistogram(grid, *ladder_, level, points_.size(), nullptr,
                             &bob_est.emplace(probe_config));
      }
      const uint64_t estimate = alice_est->EstimateDifference(*bob_est);
      if (estimate <= budget || level == levels.back()) {
        chosen = level;
        chosen_estimate = estimate;
        have_choice = true;
      }
    }
    chosen_ = chosen;
    result_.chosen_level = chosen;
    // Safety factor 2 over the estimate, floored at the configured budget.
    target_entries_ = chosen_estimate * 2;
    if (target_entries_ < budget) target_entries_ = budget;
    attempt_ = 0;
    state_ = State::kAwaitIblt;
    return OneMessage(MakeRequest());
  }

  std::vector<transport::Message> HandleIblt(transport::Message message) {
    const size_t n = points_.size();
    const ShiftedGrid grid(context_.universe, context_.seed);
    IbltConfig config =
        LevelIbltConfig(grid, chosen_, n, params_, context_.seed);
    config.cells = cells_;
    config.seed = Hash64(attempt_, config.seed);
    BitReader rr(message.payload);
    std::optional<Iblt> alice_iblt = Iblt::Deserialize(config, &rr);
    if (!alice_iblt.has_value()) {  // truncated qt-level-iblt
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    Iblt bob_iblt(config);
    if (!ladder_.has_value()) ladder_.emplace(grid, points_);
    SketchLevelHistogram(grid, *ladder_, chosen_, n, &bob_iblt);
    const size_t accept = static_cast<size_t>(target_entries_) << attempt_;
    std::optional<std::vector<LevelDiffEntry>> diff = TryDecodeLevelDiff(
        grid, chosen_, n, *alice_iblt, bob_iblt, accept);
    if (diff.has_value()) {
      result_.success = true;
      result_.decoded_entries = diff->size();
      result_.bob_final = RepairBob(grid, points_, chosen_, *diff);
      Finish();
      return NoMessages();
    }
    ++attempt_;
    if (attempt_ >= max_attempts_) {
      Finish();  // all attempts failed (success stays false)
      return NoMessages();
    }
    return OneMessage(MakeRequest());
  }

  // Bob -> Alice: the negotiated level / size / attempt.
  transport::Message MakeRequest() {
    result_.attempts = attempt_ + 1;
    cells_ = RecommendedCells(
        static_cast<size_t>(target_entries_) << attempt_, params_.q,
        params_.headroom);
    BitWriter w;
    w.WriteVarint(static_cast<uint64_t>(chosen_));
    w.WriteVarint(cells_);
    w.WriteVarint(attempt_);
    return transport::MakeMessage("qt-level-request", std::move(w));
  }

  ProtocolContext context_;
  QuadtreeParams params_;
  size_t max_attempts_;
  PointSet points_;
  const CanonicalSketchProvider* sketches_;
  std::optional<CellLadder> ladder_;  // sorted on the first rebuild
  State state_ = State::kAwaitProbes;
  int chosen_ = -1;
  uint64_t target_entries_ = 0;
  size_t attempt_ = 0;
  size_t cells_ = 0;
};

}  // namespace

std::unique_ptr<PartySession> QuadtreeReconciler::MakeAliceSession(
    const PointSet& points) const {
  return std::make_unique<QuadtreeAlice>(context_, params_, points);
}

std::unique_ptr<PartySession> QuadtreeReconciler::MakeBobSession(
    const PointSet& points) const {
  return MakeBobSession(points, nullptr);
}

std::unique_ptr<PartySession> QuadtreeReconciler::MakeBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return std::make_unique<QuadtreeBob>(context_, params_, points, sketches);
}

std::unique_ptr<PartySession> AdaptiveQuadtreeReconciler::MakeAliceSession(
    const PointSet& points) const {
  return std::make_unique<AdaptiveQuadtreeAlice>(context_, params_, points);
}

std::unique_ptr<PartySession> AdaptiveQuadtreeReconciler::MakeBobSession(
    const PointSet& points) const {
  return MakeBobSession(points, nullptr);
}

std::unique_ptr<PartySession> AdaptiveQuadtreeReconciler::MakeBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return std::make_unique<AdaptiveQuadtreeBob>(context_, params_,
                                               max_attempts_, points,
                                               sketches);
}

}  // namespace recon
}  // namespace rsr
