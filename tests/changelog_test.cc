// Changelog semantics: gapless append/fetch, ring truncation (the
// fall-off-the-log signal that forces protocol repair), MarkSnapshot
// re-basing, and append-while-fetch thread safety (run under TSan in CI).

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "replica/changelog.h"

namespace rsr {
namespace replica {
namespace {

Point MakePoint(int64_t x, int64_t y) {
  Point p(2);
  p[0] = x;
  p[1] = y;
  return p;
}

/// Entry whose contents encode its seq, so replays are checkable.
ChangeEntry MakeEntry(uint64_t seq) {
  ChangeEntry entry;
  entry.seq = seq;
  entry.inserts.push_back(MakePoint(static_cast<int64_t>(seq), 1));
  entry.inserts.push_back(MakePoint(static_cast<int64_t>(seq), 2));
  entry.erases.push_back(MakePoint(static_cast<int64_t>(seq), 3));
  return entry;
}

TEST(ChangelogTest, AppendAndFetchInOrder) {
  Changelog log;
  for (uint64_t seq = 1; seq <= 5; ++seq) log.Append(MakeEntry(seq));
  EXPECT_EQ(log.base_seq(), 0u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.size(), 5u);

  const FetchedEntries all = log.Fetch(0);
  ASSERT_TRUE(all.ok);
  EXPECT_TRUE(all.complete);
  EXPECT_EQ(all.last_seq, 5u);
  ASSERT_EQ(all.entries.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(all.entries[seq - 1], MakeEntry(seq));
  }

  const FetchedEntries tail = log.Fetch(3);
  ASSERT_TRUE(tail.ok);
  EXPECT_TRUE(tail.complete);
  ASSERT_EQ(tail.entries.size(), 2u);
  EXPECT_EQ(tail.entries[0].seq, 4u);
  EXPECT_EQ(tail.entries[1].seq, 5u);

  const FetchedEntries at_head = log.Fetch(5);
  EXPECT_TRUE(at_head.ok);
  EXPECT_TRUE(at_head.complete);
  EXPECT_TRUE(at_head.entries.empty());
}

TEST(ChangelogTest, FetchCapTruncatesButStaysOk) {
  Changelog log;
  for (uint64_t seq = 1; seq <= 6; ++seq) log.Append(MakeEntry(seq));
  const FetchedEntries capped = log.Fetch(0, 2);
  ASSERT_TRUE(capped.ok);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.last_seq, 6u);
  ASSERT_EQ(capped.entries.size(), 2u);
  EXPECT_EQ(capped.entries[0].seq, 1u);
  EXPECT_EQ(capped.entries[1].seq, 2u);
}

TEST(ChangelogTest, RingTruncationForcesReconciliationFallback) {
  ChangelogOptions options;
  options.capacity = 4;
  Changelog log(options);
  for (uint64_t seq = 1; seq <= 10; ++seq) log.Append(MakeEntry(seq));
  EXPECT_EQ(log.base_seq(), 6u);
  EXPECT_EQ(log.last_seq(), 10u);
  EXPECT_EQ(log.size(), 4u);

  // A replica still at seq 2 has fallen off: no log catch-up possible.
  const FetchedEntries stale = log.Fetch(2);
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.last_seq, 10u);
  EXPECT_TRUE(stale.entries.empty());

  // One inside the retained window still tails fine.
  const FetchedEntries fresh = log.Fetch(7);
  ASSERT_TRUE(fresh.ok);
  ASSERT_EQ(fresh.entries.size(), 3u);
  EXPECT_EQ(fresh.entries.front().seq, 8u);
}

TEST(ChangelogTest, MarkSnapshotRebasesCoverage) {
  Changelog log;
  for (uint64_t seq = 1; seq <= 5; ++seq) log.Append(MakeEntry(seq));
  log.MarkSnapshot(12);
  EXPECT_EQ(log.base_seq(), 12u);
  EXPECT_EQ(log.last_seq(), 12u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.Fetch(5).ok);
  EXPECT_TRUE(log.Fetch(12).ok);

  // Journaling resumes directly after the installed position.
  log.Append(MakeEntry(13));
  const FetchedEntries tail = log.Fetch(12);
  ASSERT_TRUE(tail.ok);
  ASSERT_EQ(tail.entries.size(), 1u);
  EXPECT_EQ(tail.entries[0], MakeEntry(13));
}

TEST(ChangelogTest, ConcurrentAppendWhileFetchStaysGapless) {
  constexpr uint64_t kEntries = 400;
  Changelog log;
  std::thread appender([&log] {
    for (uint64_t seq = 1; seq <= kEntries; ++seq) log.Append(MakeEntry(seq));
  });
  // Tail the log while it grows, the way a follower replica does; every
  // observed batch must be gapless and internally consistent.
  uint64_t applied = 0;
  while (applied < kEntries) {
    const FetchedEntries batch = log.Fetch(applied, 16);
    ASSERT_TRUE(batch.ok);
    for (const ChangeEntry& entry : batch.entries) {
      ASSERT_EQ(entry.seq, applied + 1);
      ASSERT_EQ(entry, MakeEntry(entry.seq));
      ++applied;
    }
  }
  appender.join();
  EXPECT_EQ(log.last_seq(), kEntries);
}

}  // namespace
}  // namespace replica
}  // namespace rsr
