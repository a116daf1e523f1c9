// TimingWheel property tests: the channel's delay correctness rests on
// two claims — advance() NEVER releases an entry before its not_before
// (exact, not tick-granular), and a sleeper that wakes at next_deadline()
// and re-advances never oversleeps an entry (conservative deadline).
#include "src/util/timing_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace optrec {
namespace {

TEST(TimingWheelTest, ReleasesExactlyAtNotBefore) {
  TimingWheel<int> wheel(/*tick_us=*/64);
  wheel.add(1000, 1);
  std::vector<int> out;
  EXPECT_EQ(wheel.advance(999, out), 0u) << "released 1us early";
  EXPECT_EQ(wheel.advance(1000, out), 1u);
  EXPECT_EQ(out, std::vector<int>{1});
}

TEST(TimingWheelTest, NextDeadlineNeverLaterThanEarliestEntry) {
  Rng rng(42);
  TimingWheel<std::uint64_t> wheel(64);
  std::vector<SimTime> deadlines;
  for (int i = 0; i < 500; ++i) {
    // Mix of near, mid, far and beyond-span delays.
    const SimTime t = rng.uniform(1ull << (6 * 4 + 8)) + 1;
    wheel.add(t, t);
    deadlines.push_back(t);
  }
  const SimTime earliest = *std::min_element(deadlines.begin(),
                                             deadlines.end());
  EXPECT_LE(wheel.next_deadline(), earliest);
}

// Randomized schedule: arbitrary delays, advance in arbitrary time steps.
// Invariants: nothing early, everything out by the time now passes it,
// provided the consumer re-advances at each next_deadline() (the channel's
// sleep loop does exactly that).
TEST(TimingWheelPropertyTest, RandomScheduleNeverEarlyNeverLost) {
  Rng rng(7);
  TimingWheel<std::uint64_t> wheel(64);
  constexpr int kEntries = 2000;
  std::vector<SimTime> not_before(kEntries);
  std::vector<bool> released(kEntries, false);

  SimTime now = 0;
  int added = 0;
  std::vector<std::uint64_t> out;
  while (true) {
    // Interleave additions with time advancement.
    while (added < kEntries && rng.chance(0.7)) {
      const SimTime delay = rng.uniform(500000);  // up to 0.5s of delay
      not_before[static_cast<std::size_t>(added)] = now + delay;
      wheel.add(now + delay, static_cast<std::uint64_t>(added));
      ++added;
    }
    // Advance to min(next_deadline, a random hop) like the sleep loop.
    const SimTime hop = now + 1 + rng.uniform(3000);
    now = std::min(hop, std::max(now + 1, wheel.next_deadline()));
    out.clear();
    wheel.advance(now, out);
    for (std::uint64_t id : out) {
      ASSERT_LT(id, static_cast<std::uint64_t>(kEntries));
      ASSERT_FALSE(released[static_cast<std::size_t>(id)])
          << "entry " << id << " released twice";
      ASSERT_LE(not_before[static_cast<std::size_t>(id)], now)
          << "entry " << id << " released early";
      released[static_cast<std::size_t>(id)] = true;
    }
    if (added == kEntries && wheel.size() == 0) break;
    ASSERT_LT(now, SimTime(1) << 40) << "schedule failed to drain";
  }
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_TRUE(released[static_cast<std::size_t>(i)]) << "entry " << i;
  }
}

TEST(TimingWheelTest, FarFutureEntriesClampAndRecascade) {
  TimingWheel<int> wheel(64);
  // Way beyond the 4-level span (~64^4 ticks): must still come out, and
  // never before its deadline.
  const SimTime span_us = (1ull << 24) * 64;
  const SimTime target = span_us * 3 + 12345;
  wheel.add(target, 42);
  std::vector<int> out;
  SimTime now = 0;
  while (out.empty()) {
    now = std::max(now + 1, wheel.next_deadline());
    ASSERT_LE(now, target * 2) << "lost beyond-span entry";
    wheel.advance(now, out);
    if (!out.empty()) {
      EXPECT_GE(now, target);
    }
  }
  EXPECT_EQ(out, std::vector<int>{42});
}

}  // namespace
}  // namespace optrec
