#include "replica/changelog.h"

#include <utility>

#include "util/check.h"

namespace rsr {
namespace replica {

void Changelog::Append(ChangeEntry entry) {
  MutexLock lock(mu_);
  RSR_CHECK(entry.seq == base_seq_ + entries_.size() + 1);
  entries_.push_back(std::move(entry));
  while (options_.capacity > 0 && entries_.size() > options_.capacity) {
    entries_.pop_front();
    ++base_seq_;
  }
}

void Changelog::MarkSnapshot(uint64_t seq) {
  MutexLock lock(mu_);
  entries_.clear();
  base_seq_ = seq;
}

FetchedEntries Changelog::Fetch(uint64_t from_seq, size_t max_entries) const {
  MutexLock lock(mu_);
  FetchedEntries out;
  out.last_seq = base_seq_ + entries_.size();
  if (from_seq >= out.last_seq) {
    // At (or somehow beyond) the head: nothing to ship, trivially ok.
    out.ok = from_seq == out.last_seq || from_seq >= base_seq_;
    out.complete = true;
    return out;
  }
  if (from_seq < base_seq_) {
    // The entries directly after from_seq fell off the ring.
    return out;
  }
  const size_t first = static_cast<size_t>(from_seq - base_seq_);
  size_t count = entries_.size() - first;
  if (max_entries > 0 && count > max_entries) count = max_entries;
  out.ok = true;
  out.complete = first + count == entries_.size();
  out.entries.assign(entries_.begin() + static_cast<ptrdiff_t>(first),
                     entries_.begin() + static_cast<ptrdiff_t>(first + count));
  return out;
}

uint64_t Changelog::base_seq() const {
  MutexLock lock(mu_);
  return base_seq_;
}

uint64_t Changelog::last_seq() const {
  MutexLock lock(mu_);
  return base_seq_ + entries_.size();
}

size_t Changelog::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace replica
}  // namespace rsr
