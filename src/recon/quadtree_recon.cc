#include "recon/quadtree_recon.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hash/mix.h"
#include "iblt/sizing.h"
#include "iblt/strata.h"
#include "recon/session.h"
#include "transport/message.h"
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

HistogramEntryCodec::HistogramEntryCodec(const ShiftedGrid& grid, int level,
                                         size_t n)
    : level_seed_(grid.LevelKeySeed(level)),
      coord_bits_(grid.CellCoordBits(level)),
      count_bits_(HistogramCountBits(n)),
      value_bits_(HistogramValueBits(grid, level, n)),
      words_((static_cast<size_t>(value_bits_) + 63) / 64) {}

uint64_t HistogramEntryCodec::Key(const Cell& cell, int64_t count) const {
  uint64_t h = level_seed_;  // CellKey, then the count: HistogramEntryKey
  for (int64_t c : cell) h = HashCombine(h, static_cast<uint64_t>(c));
  return HashCombine(h, static_cast<uint64_t>(count));
}

const uint64_t* HistogramEntryCodec::Pack(const Cell& cell, int64_t count) {
  WordPacker packer(words_.data());
  for (int64_t c : cell) packer.Put(static_cast<uint64_t>(c), coord_bits_);
  packer.Put(static_cast<uint64_t>(count), count_bits_);
  packer.Flush();
  return words_.data();
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
  HistogramEntryCodec codec(grid, level, n);
  RSR_CHECK(iblt == nullptr || iblt->config().value_bits == codec.value_bits());
  ladder.ForEachCell(level, [&](const Cell& cell, int64_t count) {
    const uint64_t key = codec.Key(cell, count);
    if (iblt != nullptr) iblt->Insert(key, codec.Pack(cell, count));
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
    const ShiftedGrid& grid, int level, size_t n, Iblt alice_iblt,
    const Iblt& bob_iblt, size_t budget) {
  alice_iblt.Subtract(bob_iblt);
  const IbltDecodeResult decoded = std::move(alice_iblt).Decode(budget);
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

RepairedSet RepairBob(const ShiftedGrid& grid, const PointSet& bob,
                      int level, const std::vector<LevelDiffEntry>& diff) {
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

  RepairedSet repaired(bob);
  repaired.removed.assign(bob.size(), 0);
  for (const auto& [cell_key, delta] : deltas) {
    const std::vector<size_t>& own = bob_cells.at(cell_key);
    const int64_t change = delta.alice_count - static_cast<int64_t>(own.size());
    if (change > 0) {
      const Point rep = grid.CellRepresentative(delta.cell, level);
      for (int64_t c = 0; c < change; ++c) repaired.additions.push_back(rep);
    } else if (change < 0) {
      for (int64_t c = 0; c < -change; ++c) {
        repaired.removed[own[static_cast<size_t>(c)]] = 1;
      }
    }
  }
  return repaired;
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

/// Advances `ladder` across the batch, first calling fn(level, codec, cell,
/// before, after) once per cell whose point count the batch changes, at
/// every grid level: `codec` is the level's entry codec for the new set
/// size, `before` the cell's count in the ladder before the batch, `after`
/// that plus the batch's net change. Updating a histogram sketch is then
/// erase (cell, before), insert (cell, after). The batch is sorted once,
/// in the ladder's Z-order, so every level's changed cells are runs of it;
/// the order cells are visited in does not matter, as sketch updates
/// commute.
template <typename Fn>
void AdvanceLadder(const ShiftedGrid& grid, const SketchBatch& batch,
                   CellLadder* ladder, Fn&& fn) {
  CellMoves moves(grid, *ladder, batch.erases, batch.inserts);
  for (int level = 0; level <= grid.max_level(); ++level) {
    HistogramEntryCodec codec(grid, level, batch.n);
    moves.ForEachCell(level, [&](const Cell& cell, int64_t before,
                                 int64_t net) {
      if (net != 0) fn(static_cast<size_t>(level), codec, cell, before,
                       before + net);
    });
  }
  *ladder = ladder->Updated(moves);
}

/// Build of both quadtree specs: Spec::BuildLevel of every grid level, over
/// one ladder of `points`, which stays as the upkeep.
template <typename Spec>
typename Spec::Built BuildEveryLevel(const Spec& spec,
                                     const PointSet& points) {
  typename Spec::Built built{{}, CellLadder(spec.grid(), points)};
  built.sketch.reserve(static_cast<size_t>(spec.grid().max_level()) + 1);
  for (int level = 0; level <= spec.grid().max_level(); ++level) {
    built.sketch.push_back(spec.BuildLevel(built.upkeep, level));
  }
  return built;
}

}  // namespace

QuadtreeIbltSpec::QuadtreeIbltSpec(const ProtocolContext& context,
                                   const QuadtreeParams& params)
    : LinearSketch(SketchKey{
          "quadtree-iblt",
          {static_cast<uint64_t>(context.universe.d),
           static_cast<uint64_t>(context.universe.delta), context.seed,
           RecommendedCells(params.DecodeBudget(), params.q, params.headroom),
           static_cast<uint64_t>(params.q),
           static_cast<uint64_t>(params.checksum_bits),
           static_cast<uint64_t>(params.count_bits)}}),
      context_(context),
      params_(params),
      grid_(context.universe, context.seed) {}

IbltConfig QuadtreeIbltSpec::Config(int level, size_t n) const {
  return LevelIbltConfig(grid_, level, n, params_, context_.seed);
}

Iblt QuadtreeIbltSpec::BuildLevel(const CellLadder& ladder, int level) const {
  Iblt table(Config(level, ladder.size()));
  SketchLevelHistogram(grid_, ladder, level, ladder.size(), &table);
  return table;
}

QuadtreeIbltSpec::Built QuadtreeIbltSpec::Build(const PointSet& points) const {
  return BuildEveryLevel(*this, points);
}

bool QuadtreeIbltSpec::Carries(size_t from, size_t to) const {
  return HistogramCountBits(from) == HistogramCountBits(to);
}

QuadtreeIbltSpec::Sketch QuadtreeIbltSpec::Advance(
    const Sketch& tables, CellLadder* ladder, const SketchBatch& batch) const {
  Sketch next = tables;
  AdvanceLadder(grid_, batch, ladder,
                [&](size_t l, HistogramEntryCodec& codec, const Cell& cell,
                    int64_t before, int64_t after) {
                  if (before > 0) codec.Erase(&next[l], cell, before);
                  if (after > 0) codec.Insert(&next[l], cell, after);
                });
  return next;
}

QuadtreeProbeSpec::QuadtreeProbeSpec(const ProtocolContext& context)
    : LinearSketch(SketchKey{"quadtree-probe",
                             {static_cast<uint64_t>(context.universe.d),
                              static_cast<uint64_t>(context.universe.delta),
                              context.seed}}),
      context_(context),
      grid_(context.universe, context.seed) {}

StrataEstimator QuadtreeProbeSpec::BuildLevel(const CellLadder& ladder,
                                              int level) const {
  StrataEstimator probe(AdaptiveLevelProbeConfig(level, context_.seed));
  SketchLevelHistogram(grid_, ladder, level, ladder.size(), nullptr, &probe);
  return probe;
}

QuadtreeProbeSpec::Built QuadtreeProbeSpec::Build(
    const PointSet& points) const {
  return BuildEveryLevel(*this, points);
}

QuadtreeProbeSpec::Sketch QuadtreeProbeSpec::Advance(
    const Sketch& probes, CellLadder* ladder, const SketchBatch& batch) const {
  Sketch next = probes;
  AdvanceLadder(grid_, batch, ladder,
                [&](size_t l, HistogramEntryCodec& codec, const Cell& cell,
                    int64_t before, int64_t after) {
                  if (before > 0) next[l].Erase(codec.Key(cell, before));
                  if (after > 0) next[l].Insert(codec.Key(cell, after));
                });
  return next;
}

namespace {

// --- One-shot sessions. ---

class QuadtreeAlice : public PartySessionBase {
 public:
  QuadtreeAlice(std::shared_ptr<const QuadtreeIbltSpec> spec,
                const QuadtreeParams& params, const PointSet& points)
      : spec_(std::move(spec)),
        params_(params),
        ladder_(spec_->grid(), points) {}

  std::vector<transport::Message> Start() override {
    BitWriter w;
    for (int level : ProtocolLevels(spec_->grid(), params_)) {
      spec_->BuildLevel(ladder_, level).Serialize(&w);
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
  std::shared_ptr<const QuadtreeIbltSpec> spec_;
  QuadtreeParams params_;
  CellLadder ladder_;  // Alice's set, sorted once for every level
};

class QuadtreeBob : public BobSessionBase {
 public:
  QuadtreeBob(std::shared_ptr<const QuadtreeIbltSpec> spec,
              const QuadtreeParams& params, const PointSet& points,
              const CanonicalSketchProvider* sketches)
      : BobSessionBase(points),
        spec_(std::move(spec)),
        params_(params),
        sketches_(sketches) {}

  std::vector<transport::Message> Start() override { return NoMessages(); }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    if (done_) {
      FailWith(SessionError::kUnexpectedMessage);
      return NoMessages();
    }
    const size_t n = points_.size();
    const ShiftedGrid& grid = spec_->grid();
    BitReader r(message.payload);
    const size_t budget = params_.DecodeBudget();
    // Bob's tables: the provider's, asked for once Alice's first table has
    // parsed, or built level by level from a ladder sorted on first need.
    std::shared_ptr<const std::vector<Iblt>> cached;
    bool asked = false;
    std::optional<CellLadder> ladder;
    for (int level : ProtocolLevels(grid, params_)) {
      const IbltConfig config = spec_->Config(level, n);
      if (result_.success) {
        // Already repaired: the other levels only have to be there, and
        // Deserialize fails exactly when fewer bits remain than a level's.
        if (!r.Skip(config.SerializedBits())) {
          FailWith(SessionError::kMalformedMessage);
          return NoMessages();
        }
        continue;
      }
      std::optional<Iblt> alice_iblt = Iblt::Deserialize(config, &r);
      if (!alice_iblt.has_value()) {  // truncated qt-levels message
        FailWith(SessionError::kMalformedMessage);
        return NoMessages();
      }
      if (!asked) {
        cached = spec_->Find(sketches_);
        asked = true;
      }
      const Iblt* bob_iblt = nullptr;
      std::optional<Iblt> built;
      if (cached != nullptr) {
        bob_iblt = &(*cached)[static_cast<size_t>(level)];
      } else {
        if (!ladder.has_value()) ladder.emplace(grid, points_);
        bob_iblt = &built.emplace(spec_->BuildLevel(*ladder, level));
      }
      std::optional<std::vector<LevelDiffEntry>> diff = TryDecodeLevelDiff(
          grid, level, n, *std::move(alice_iblt), *bob_iblt, budget);
      if (diff.has_value()) {
        result_.success = true;
        result_.chosen_level = level;
        result_.decoded_entries = diff->size();
        SetRepair(RepairBob(grid, points_, level, *diff));
      }
    }
    Finish();
    return NoMessages();
  }

 private:
  std::shared_ptr<const QuadtreeIbltSpec> spec_;
  QuadtreeParams params_;
  const CanonicalSketchProvider* sketches_;
};

// --- Adaptive sessions. ---

// Alice: opening strata probes, then an IBLT server. She has no way to
// observe the protocol's end (Bob just stops requesting), so she stays in
// the serving state; the driver terminates on Bob.
class AdaptiveQuadtreeAlice : public PartySessionBase {
 public:
  AdaptiveQuadtreeAlice(const ProtocolContext& context,
                        const QuadtreeParams& params, size_t max_attempts,
                        std::shared_ptr<const QuadtreeProbeSpec> spec,
                        const PointSet& points)
      : context_(context),
        params_(params),
        max_attempts_(max_attempts),
        spec_(std::move(spec)),
        ladder_(spec_->grid(), points) {}

  std::vector<transport::Message> Start() override {
    BitWriter w;
    for (int level : ProtocolLevels(spec_->grid(), params_)) {
      spec_->BuildLevel(ladder_, level).Serialize(&w);
    }
    result_.success = true;
    return OneMessage(transport::MakeMessage("qt-strata", std::move(w)));
  }

  std::vector<transport::Message> OnMessage(
      transport::Message message) override {
    // Serve a "qt-level-request": ship this level's histogram IBLT at the
    // requested size, salted by the attempt number.
    const size_t n = ladder_.size();
    const ShiftedGrid& grid = spec_->grid();
    BitReader rr(message.payload);
    uint64_t req_level = 0, req_cells = 0, req_attempt = 0;
    if (!rr.ReadVarint(&req_level) || !rr.ReadVarint(&req_cells) ||
        !rr.ReadVarint(&req_attempt)) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    // The request comes off the wire: before a cell is allocated it must
    // name a level Alice probed, an attempt Bob may make, and a table one
    // frame can carry.
    const std::vector<int> levels = ProtocolLevels(grid, params_);
    const bool probed =
        std::any_of(levels.begin(), levels.end(), [&](int level) {
          return static_cast<uint64_t>(level) == req_level;
        });
    if (!probed || req_attempt >= max_attempts_) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
    IbltConfig config = LevelIbltConfig(grid, static_cast<int>(req_level), n,
                                        params_, context_.seed);
    config.cells = static_cast<size_t>(req_cells);
    config.seed = Hash64(req_attempt, config.seed);
    if (!config.FitsIn(8 * transport::kMaxPayloadBytes)) {
      FailWith(SessionError::kMalformedMessage);
      return NoMessages();
    }
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
  size_t max_attempts_;
  std::shared_ptr<const QuadtreeProbeSpec> spec_;
  CellLadder ladder_;  // Alice's set, sorted once for every request
};

class AdaptiveQuadtreeBob : public BobSessionBase {
 public:
  AdaptiveQuadtreeBob(const ProtocolContext& context,
                      const QuadtreeParams& params, size_t max_attempts,
                      std::shared_ptr<const QuadtreeProbeSpec> spec,
                      const PointSet& points,
                      const CanonicalSketchProvider* sketches)
      : BobSessionBase(points),
        context_(context),
        params_(params),
        max_attempts_(max_attempts),
        spec_(std::move(spec)),
        sketches_(sketches) {}

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
    const std::vector<int> levels = ProtocolLevels(spec_->grid(), params_);
    BitReader pr(message.payload);
    const size_t budget = params_.DecodeBudget();
    int chosen = levels.back();
    uint64_t chosen_estimate = 0;
    bool have_choice = false;
    // Bob's probes: the provider's, asked for once Alice's first probe has
    // parsed, or built level by level.
    std::shared_ptr<const std::vector<StrataEstimator>> cached;
    bool asked = false;
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
      if (!asked) {
        cached = spec_->Find(sketches_);
        asked = true;
      }
      const StrataEstimator* bob_est = nullptr;
      std::optional<StrataEstimator> built;
      if (cached != nullptr) {
        bob_est = &(*cached)[static_cast<size_t>(level)];
      } else {
        if (!ladder_.has_value()) ladder_.emplace(spec_->grid(), points_);
        bob_est = &built.emplace(spec_->BuildLevel(*ladder_, level));
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
    const ShiftedGrid& grid = spec_->grid();
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
        grid, chosen_, n, *std::move(alice_iblt), bob_iblt, accept);
    if (diff.has_value()) {
      result_.success = true;
      result_.decoded_entries = diff->size();
      SetRepair(RepairBob(grid, points_, chosen_, *diff));
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
  std::shared_ptr<const QuadtreeProbeSpec> spec_;
  const CanonicalSketchProvider* sketches_;
  std::optional<CellLadder> ladder_;  // sorted on the first rebuild
  State state_ = State::kAwaitProbes;
  int chosen_ = -1;
  uint64_t target_entries_ = 0;
  size_t attempt_ = 0;
  size_t cells_ = 0;
};

}  // namespace

std::unique_ptr<PartySession> QuadtreeReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<QuadtreeAlice>(spec_, params_, points);
}

std::unique_ptr<PartySession> QuadtreeReconciler::NewBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return std::make_unique<QuadtreeBob>(spec_, params_, points, sketches);
}

std::unique_ptr<PartySession> AdaptiveQuadtreeReconciler::NewAliceSession(
    const PointSet& points) const {
  return std::make_unique<AdaptiveQuadtreeAlice>(context_, params_,
                                                 max_attempts_, spec_, points);
}

std::unique_ptr<PartySession> AdaptiveQuadtreeReconciler::NewBobSession(
    const PointSet& points, const CanonicalSketchProvider* sketches) const {
  return std::make_unique<AdaptiveQuadtreeBob>(
      context_, params_, max_attempts_, spec_, points, sketches);
}

}  // namespace recon
}  // namespace rsr
