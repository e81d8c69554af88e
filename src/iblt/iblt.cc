#include "iblt/iblt.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"

namespace rsr {

static_assert(std::endian::native == std::endian::little,
              "IBLT value words are stored and XORed as little-endian");

size_t IbltConfig::RoundedCells() const {
  RSR_CHECK(q >= 1);
  const size_t q_sz = static_cast<size_t>(q);
  size_t m = cells == 0 ? q_sz : cells;
  if (m % q_sz != 0) m += q_sz - (m % q_sz);
  return m;
}

size_t IbltConfig::CellBits() const {
  return static_cast<size_t>(count_bits) + 64 +
         static_cast<size_t>(checksum_bits) + static_cast<size_t>(value_bits);
}

size_t IbltConfig::SerializedBits() const {
  return RoundedCells() * CellBits();
}

bool IbltConfig::FitsIn(size_t bits) const {
  return cells <= bits / CellBits() && SerializedBits() <= bits;
}

Iblt::Iblt(const IbltConfig& config)
    : config_(config),
      m_(config.RoundedCells()),
      value_bytes_((static_cast<size_t>(config.value_bits) + 7) / 8),
      value_words_((static_cast<size_t>(config.value_bits) + 63) / 64),
      indexer_(config.seed, config.q, m_),
      checksum_(config.seed ^ 0x636865636bULL),  // "check" tag
      counts_(m_, 0),
      key_xor_(m_, 0),
      check_xor_(m_, 0),
      values_(m_ * value_bytes_ + value_words_ * 8 - value_bytes_, 0) {
  RSR_CHECK(config.value_bits >= 0);
  RSR_CHECK(config.checksum_bits >= 1 && config.checksum_bits <= 64);
  RSR_CHECK(config.count_bits >= 2 && config.count_bits <= 64);
}

void Iblt::Apply(uint64_t key, const uint64_t* value, int direction) {
  RSR_DCHECK(config_.value_bits % 64 == 0 ||
             value[value_words_ - 1] >> (config_.value_bits % 64) == 0);
  const uint64_t check = checksum_.Truncated(key, config_.checksum_bits);
  for (int j = 0; j < config_.q; ++j) {
    const size_t cell = indexer_.Cell(key, j);
    counts_[cell] += direction;
    key_xor_[cell] ^= key;
    check_xor_[cell] ^= check;
    // The last word may run into the next cell or the padding; its bits
    // there are zero, so those bytes are rewritten unchanged.
    uint8_t* dst = values_.data() + cell * value_bytes_;
    for (size_t w = 0; w < value_words_; ++w, dst += 8) {
      uint64_t word;
      std::memcpy(&word, dst, 8);
      word ^= value[w];
      std::memcpy(dst, &word, 8);
    }
  }
}

void Iblt::ApplyBytes(uint64_t key, const std::vector<uint8_t>& value,
                      int direction) {
  RSR_CHECK_MSG(value.size() == value_bytes_, "value width mismatch");
  std::vector<uint64_t> words(value_words_, 0);
  if (value_bytes_ > 0) std::memcpy(words.data(), value.data(), value_bytes_);
  Apply(key, words.data(), direction);
}

void Iblt::LoadValue(size_t cell, uint64_t* words) const {
  std::fill_n(words, value_words_, 0);
  if (value_bytes_ > 0) {
    std::memcpy(words, values_.data() + cell * value_bytes_, value_bytes_);
  }
}

void Iblt::Insert(uint64_t key, const std::vector<uint8_t>& value) {
  ApplyBytes(key, value, +1);
}

void Iblt::Erase(uint64_t key, const std::vector<uint8_t>& value) {
  ApplyBytes(key, value, -1);
}

void Iblt::Subtract(const Iblt& other) {
  RSR_CHECK(m_ == other.m_);
  RSR_CHECK(config_.q == other.config_.q);
  RSR_CHECK(config_.value_bits == other.config_.value_bits);
  RSR_CHECK(config_.checksum_bits == other.config_.checksum_bits);
  RSR_CHECK(config_.seed == other.config_.seed);
  for (size_t i = 0; i < m_; ++i) {
    counts_[i] -= other.counts_[i];
    key_xor_[i] ^= other.key_xor_[i];
    check_xor_[i] ^= other.check_xor_[i];
  }
  for (size_t i = 0; i < value_span(); ++i) values_[i] ^= other.values_[i];
}

bool Iblt::IsEmpty() const {
  for (size_t i = 0; i < m_; ++i) {
    if (counts_[i] != 0 || key_xor_[i] != 0 || check_xor_[i] != 0)
      return false;
  }
  const auto end =
      values_.begin() + static_cast<std::ptrdiff_t>(value_span());
  return std::all_of(values_.begin(), end, [](uint8_t b) { return b == 0; });
}

IbltDecodeResult Iblt::Decode(size_t max_entries) const& {
  // Peeling mutates the table, so work on a copy (tables are O(k) cells).
  Iblt work = *this;
  return std::move(work).Decode(max_entries);
}

IbltDecodeResult Iblt::Decode(size_t max_entries) && {
  IbltDecodeResult result;
  std::vector<uint64_t> value(value_words_);
  // FIFO of cells to examine: [head, end) of `queue`.
  std::vector<size_t> queue;
  queue.reserve(2 * m_);
  size_t head = 0;
  std::vector<char> queued(m_, 0);
  auto maybe_enqueue = [&](size_t cell) {
    if (!queued[cell]) {
      queued[cell] = 1;
      queue.push_back(cell);
    }
  };
  for (size_t i = 0; i < m_; ++i) maybe_enqueue(i);

  while (head < queue.size()) {
    const size_t cell = queue[head++];
    queued[cell] = 0;

    const int64_t count = counts_[cell];
    if (count != 1 && count != -1) continue;
    const uint64_t key = key_xor_[cell];
    const uint64_t expect = checksum_.Truncated(key, config_.checksum_bits);
    if (check_xor_[cell] != expect) continue;  // not pure

    IbltEntry entry;
    entry.key = key;
    entry.sign = static_cast<int>(count);
    const auto first =
        values_.begin() + static_cast<std::ptrdiff_t>(cell * value_bytes_);
    entry.value.assign(first,
                       first + static_cast<std::ptrdiff_t>(value_bytes_));
    // Remove the entry from the table (through a copy: the pure cell is
    // one of those it clears); re-examine every touched cell.
    LoadValue(cell, value.data());
    Apply(key, value.data(), -entry.sign);
    for (int j = 0; j < config_.q; ++j) maybe_enqueue(indexer_.Cell(key, j));

    result.entries.push_back(std::move(entry));
    if (max_entries > 0 && result.entries.size() > max_entries) {
      result.success = false;
      return result;
    }
  }

  result.success = IsEmpty();
  return result;
}

void Iblt::Serialize(BitWriter* out) const {
  const int count_bits = config_.count_bits;
  const int checksum_bits = config_.checksum_bits;
  out->Pack(config_.SerializedBits(), [&](WordPacker& cells) {
    for (size_t i = 0; i < m_; ++i) {
      cells.PutSigned(counts_[i], count_bits);
      cells.Put(key_xor_[i], 64);
      cells.Put(check_xor_[i], checksum_bits);
      // Whole words, as Apply stores them; a last word's reach into the
      // next cell is dropped.
      const uint8_t* src = values_.data() + i * value_bytes_;
      for (int left = config_.value_bits; left > 0; left -= 64, src += 8) {
        const int take = std::min(left, 64);
        uint64_t word;
        std::memcpy(&word, src, 8);
        cells.Put(LowBits(word, take), take);
      }
    }
  });
}

std::optional<Iblt> Iblt::Deserialize(const IbltConfig& config,
                                      BitReader* in) {
  // The cell count may come off the wire: the table must fit the bits
  // left before a single cell is allocated. FitsIn checks that without
  // overflow; Unpack then cannot fail.
  if (!config.FitsIn(in->bits_remaining())) return std::nullopt;
  WordUnpacker cells = *in->Unpack(config.SerializedBits());
  Iblt table(config);
  const int count_bits = config.count_bits;
  const int checksum_bits = config.checksum_bits;
  for (size_t i = 0; i < table.m_; ++i) {
    table.counts_[i] = cells.TakeSigned(count_bits);
    table.key_xor_[i] = cells.Take(64);
    table.check_xor_[i] = cells.Take(checksum_bits);
    uint8_t* dst = table.values_.data() + i * table.value_bytes_;
    for (int left = config.value_bits; left > 0; left -= 64, dst += 8) {
      const int take = std::min(left, 64);
      const uint64_t word = cells.Take(take);
      std::memcpy(dst, &word, static_cast<size_t>(take + 7) / 8);
    }
  }
  return table;
}

}  // namespace rsr
