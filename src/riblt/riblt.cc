#include "riblt/riblt.h"

#include <deque>
#include <utility>

#include "util/check.h"

namespace rsr {

namespace {

// Value sums wrap modulo 2^64 instead of overflowing. An honest table's
// sums stay far inside int64, but a peel subtracts a value sum it never
// checks, so a hostile table's can grow from cell to cell; decoding clamps
// every average into [0, Δ) anyway.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

}  // namespace

size_t RibltConfig::RoundedCells() const {
  RSR_CHECK(q >= 1);
  const size_t q_sz = static_cast<size_t>(q);
  size_t m = cells == 0 ? q_sz : cells;
  if (m % q_sz != 0) m += q_sz - (m % q_sz);
  return m;
}

int RibltConfig::KeySumBits() const {
  // |sum| <= max_entries * 2^64; add one sign bit.
  const int extra = BitWidthForUniverse(
      static_cast<uint64_t>(max_entries) + 1);
  return 64 + extra + 1;
}

int RibltConfig::CoordSumBits() const {
  // |sum| <= max_entries * delta; add one sign bit.
  const int bits = BitWidthForUniverse(static_cast<uint64_t>(universe.delta)) +
                   BitWidthForUniverse(static_cast<uint64_t>(max_entries) + 1) +
                   1;
  return bits > 63 ? 63 : bits;
}

size_t RibltConfig::SerializedBits() const {
  const size_t per_cell =
      static_cast<size_t>(count_bits) +
      2 * static_cast<size_t>(KeySumBits()) +
      static_cast<size_t>(universe.d) * static_cast<size_t>(CoordSumBits());
  return RoundedCells() * per_cell;
}

Riblt::Riblt(const RibltConfig& config)
    : config_(config),
      m_(config.RoundedCells()),
      d_(config.universe.d),
      indexer_(config.seed, config.q, m_),
      checksum_(config.seed ^ 0x72636865636bULL),  // "rcheck" tag
      counts_(m_, 0),
      key_sums_(m_, 0),
      check_sums_(m_, 0),
      value_sums_(m_ * static_cast<size_t>(d_), 0) {
  RSR_CHECK(config.universe.d >= 1 && config.universe.delta >= 1);
  RSR_CHECK(config.max_entries >= 1 &&
            config.max_entries <= kRibltMaxEntries);
  RSR_CHECK(config.count_bits >= 1 &&
            config.count_bits <= kRibltMaxCountBits);
}

void Riblt::Apply(uint64_t key, const Point& value, int direction) {
  RSR_DCHECK(config_.universe.Contains(value));
  const __int128 check = static_cast<__int128>(checksum_(key));
  for (int j = 0; j < config_.q; ++j) {
    const size_t cell = indexer_.Cell(key, j);
    counts_[cell] += direction;
    key_sums_[cell] += static_cast<__int128>(key) * direction;
    check_sums_[cell] += check * direction;
    int64_t* vs = value_sums_.data() + cell * static_cast<size_t>(d_);
    for (int i = 0; i < d_; ++i) {
      vs[i] = WrapAdd(vs[i], direction * value[static_cast<size_t>(i)]);
    }
  }
}

void Riblt::Insert(uint64_t key, const Point& value) { Apply(key, value, 1); }
void Riblt::Erase(uint64_t key, const Point& value) { Apply(key, value, -1); }

void Riblt::Subtract(const Riblt& other) {
  RSR_CHECK(m_ == other.m_);
  RSR_CHECK(config_.q == other.config_.q);
  RSR_CHECK(config_.seed == other.config_.seed);
  RSR_CHECK(d_ == other.d_);
  for (size_t i = 0; i < m_; ++i) {
    counts_[i] -= other.counts_[i];
    key_sums_[i] -= other.key_sums_[i];
    check_sums_[i] -= other.check_sums_[i];
  }
  for (size_t i = 0; i < value_sums_.size(); ++i) {
    value_sums_[i] = WrapSub(value_sums_[i], other.value_sums_[i]);
  }
}

void Riblt::RemoveGroup(uint64_t key, int64_t count,
                        const std::vector<int64_t>& value_sum) {
  const __int128 check =
      static_cast<__int128>(checksum_(key)) * count;
  const __int128 key_total = static_cast<__int128>(key) * count;
  for (int j = 0; j < config_.q; ++j) {
    const size_t cell = indexer_.Cell(key, j);
    counts_[cell] -= count;
    key_sums_[cell] -= key_total;
    check_sums_[cell] -= check;
    int64_t* vs = value_sums_.data() + cell * static_cast<size_t>(d_);
    for (int i = 0; i < d_; ++i) {
      vs[i] = WrapSub(vs[i], value_sum[static_cast<size_t>(i)]);
    }
  }
}

bool Riblt::IsStructurallyEmpty() const {
  for (size_t i = 0; i < m_; ++i) {
    if (counts_[i] != 0 || key_sums_[i] != 0 || check_sums_[i] != 0) {
      return false;
    }
  }
  return true;
}

RibltDecodeResult Riblt::Decode(Rng* rng, size_t max_entries) const& {
  // Peeling mutates the table, so work on a copy.
  Riblt work = *this;
  return std::move(work).Decode(rng, max_entries);
}

RibltDecodeResult Riblt::Decode(Rng* rng, size_t max_entries) && {
  RibltDecodeResult result;
  const int64_t delta = config_.universe.delta;

  // Breadth-first (FIFO) peeling: the specific order the robust analysis
  // requires — an error is only propagated to cells strictly later in the
  // queue, which keeps the expected number of contaminated extractions O(1).
  std::deque<size_t> queue;
  std::vector<char> queued(m_, 0);
  auto maybe_enqueue = [&](size_t cell) {
    if (!queued[cell]) {
      queued[cell] = 1;
      queue.push_back(cell);
    }
  };
  for (size_t i = 0; i < m_; ++i) maybe_enqueue(i);

  size_t extracted_pairs = 0;
  while (!queue.empty()) {
    const size_t cell = queue.front();
    queue.pop_front();
    queued[cell] = 0;

    const int64_t count = counts_[cell];
    if (count == 0) continue;
    const __int128 key_sum = key_sums_[cell];
    if (key_sum % count != 0) continue;
    const __int128 key_wide = key_sum / count;
    if (key_wide < 0 ||
        key_wide > static_cast<__int128>(~uint64_t{0})) {
      continue;
    }
    const uint64_t key = static_cast<uint64_t>(key_wide);
    if (check_sums_[cell] !=
        static_cast<__int128>(checksum_(key)) * count) {
      continue;  // not c copies of one key
    }

    const int sign = count > 0 ? 1 : -1;
    const int64_t copies = count > 0 ? count : -count;

    // Average the value sums and randomly round each copy independently.
    const int64_t* vs =
        value_sums_.data() + cell * static_cast<size_t>(d_);
    std::vector<int64_t> group_value_sum(vs, vs + d_);
    RibltEntry entry;
    entry.key = key;
    entry.sign = sign;
    entry.values.reserve(static_cast<size_t>(copies));
    for (int64_t c = 0; c < copies; ++c) {
      Point p(static_cast<size_t>(d_));
      for (int i = 0; i < d_; ++i) {
        // Signed average with exact floor division; `count` carries the
        // side's sign so the average is the true mean of the values. In
        // 128 bits, so that a wrapped -2^63 over a count of -1 is defined.
        const __int128 num = group_value_sum[static_cast<size_t>(i)];
        __int128 q_floor = num / count;
        __int128 rem = num % count;
        if (rem != 0 && ((rem < 0) != (count < 0))) {
          --q_floor;
          rem += count;
        }
        // Fractional part is rem/count in [0, 1).
        const double frac =
            static_cast<double>(rem) / static_cast<double>(count);
        __int128 v = q_floor;
        if (rem != 0 && rng->Bernoulli(frac)) ++v;
        if (v < 0) v = 0;
        if (v >= delta) v = delta - 1;
        p[static_cast<size_t>(i)] = static_cast<int64_t>(v);
      }
      entry.values.push_back(std::move(p));
    }

    RemoveGroup(key, count, group_value_sum);
    for (int j = 0; j < config_.q; ++j) {
      maybe_enqueue(indexer_.Cell(key, j));
    }

    extracted_pairs += static_cast<size_t>(copies);
    result.entries.push_back(std::move(entry));
    if (max_entries > 0 && extracted_pairs > max_entries) {
      result.success = false;
      return result;
    }
  }

  result.success = IsStructurallyEmpty();
  return result;
}

void Riblt::Serialize(BitWriter* out) const {
  const int count_bits = config_.count_bits;
  const int key_bits = config_.KeySumBits();
  const int coord_bits = config_.CoordSumBits();
  out->Pack(config_.SerializedBits(), [&](WordPacker& cells) {
    // A key or checksum sum is wider than a word: its low word, then the
    // rest of its two's complement.
    const auto put_sum = [&](__int128 sum) {
      cells.Put(static_cast<uint64_t>(sum), 64);
      cells.PutSigned(static_cast<int64_t>(sum >> 64), key_bits - 64);
    };
    for (size_t i = 0; i < m_; ++i) {
      cells.PutSigned(counts_[i], count_bits);
      put_sum(key_sums_[i]);
      put_sum(check_sums_[i]);
      const int64_t* vs = value_sums_.data() + i * static_cast<size_t>(d_);
      for (int c = 0; c < d_; ++c) cells.PutSigned(vs[c], coord_bits);
    }
  });
}

std::optional<Riblt> Riblt::Deserialize(const RibltConfig& config,
                                        BitReader* in) {
  // The whole table must be there before a cell is allocated.
  std::optional<WordUnpacker> cells = in->Unpack(config.SerializedBits());
  if (!cells.has_value()) return std::nullopt;
  Riblt table(config);
  const int count_bits = config.count_bits;
  const int key_bits = config.KeySumBits();
  const int coord_bits = config.CoordSumBits();
  const auto take_sum = [&] {
    const uint64_t low = cells->Take(64);
    const uint64_t high =
        static_cast<uint64_t>(cells->TakeSigned(key_bits - 64));
    return static_cast<__int128>(
        static_cast<unsigned __int128>(high) << 64 | low);
  };
  for (size_t i = 0; i < table.m_; ++i) {
    table.counts_[i] = cells->TakeSigned(count_bits);
    table.key_sums_[i] = take_sum();
    table.check_sums_[i] = take_sum();
    int64_t* vs = table.value_sums_.data() + i * static_cast<size_t>(table.d_);
    for (int c = 0; c < table.d_; ++c) vs[c] = cells->TakeSigned(coord_bits);
  }
  return table;
}

}  // namespace rsr
