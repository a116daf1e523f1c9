// FramePool / FrameRef: refcount correctness under concurrent fan-out —
// the property the zero-copy broadcast path depends on — plus freelist
// reuse accounting and the pooled frame encode's capacity reuse.
#include "src/wire/frame_buf.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/wire/wire_codec.h"

namespace optrec {
namespace {

TEST(FrameBufTest, WrapAdoptsBytesWithoutCopy) {
  FramePool pool;
  Bytes b = {1, 2, 3, 4};
  const std::uint8_t* data = b.data();
  FrameRef ref = pool.wrap(std::move(b));
  EXPECT_EQ(ref.size(), 4u);
  EXPECT_EQ(ref.data(), data) << "wrap must not copy the buffer";
  EXPECT_EQ(ref.use_count(), 1u);
}

TEST(FrameBufTest, CopySharesMoveSteals) {
  FramePool pool;
  FrameRef a = pool.wrap({9, 9});
  FrameRef b = a;  // copy: one more ref, same buffer
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.data(), b.data());
  FrameRef c = std::move(a);  // move: no refcount change
  EXPECT_FALSE(a);            // NOLINT(bugprone-use-after-move): asserted empty
  EXPECT_EQ(c.use_count(), 2u);
}

TEST(FrameBufTest, LastReleaseRecyclesIntoFreelist) {
  FramePool pool;
  { FrameRef ref = pool.wrap({1, 2, 3}); }
  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);  // first acquire allocated
  EXPECT_EQ(s.recycled, 1u);
  EXPECT_EQ(s.outstanding, 0u);

  // Next acquire must reuse the recycled node.
  { FrameRef ref = pool.acquire(); }
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

// The steady-state send path: once a frame is released, the next encode of
// an equal-size frame takes the same node and writes into its capacity.
TEST(FrameBufTest, PooledEncodeAfterReleaseReusesTheNodesCapacity) {
  FramePool pool;
  Message m;
  m.src = 1;
  m.dst = 2;
  m.clock = Ftvc(1, 8);
  m.payload = Bytes(100, 0x5a);
  const std::uint8_t* storage = nullptr;
  std::size_t capacity = 0;
  {
    const FrameRef first = encode_message_frame(m, pool);
    storage = first.data();
    capacity = first.bytes().capacity();
    EXPECT_EQ(capacity, first.size()) << "the encode reserves the exact size";
  }
  m.send_seq = 1;  // same encoded size, different bytes
  const FrameRef second = encode_message_frame(m, pool);
  const FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(second.data(), storage) << "the recycled buffer must be reused";
  EXPECT_EQ(second.bytes().capacity(), capacity);
  EXPECT_EQ(second.bytes(), encode_message_frame(m));
}

TEST(FrameBufTest, OversizedBuffersAreDiscardedNotPooled) {
  FramePool pool;
  {
    Bytes big(FramePool::kMaxPooledCapacity + 1, 0xab);
    FrameRef ref = pool.wrap(std::move(big));
  }
  const FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.discarded, 1u);
  EXPECT_EQ(s.recycled, 0u);
}

// The broadcast-fan-out obligation: many threads concurrently clone and
// drop refs to one shared frame; the bytes must stay valid until the very
// last drop, and exactly one recycle must happen.
TEST(FrameBufStressTest, ConcurrentFanOutKeepsBytesAliveUntilLastRelease) {
  FramePool pool;
  constexpr int kThreads = 8;
  constexpr int kRounds = 5000;

  for (int round = 0; round < kRounds / 100; ++round) {
    FrameRef shared = pool.wrap({0xde, 0xad, 0xbe, 0xef});
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&shared] {
        for (int i = 0; i < 100; ++i) {
          FrameRef mine = shared;  // clone
          ASSERT_EQ(mine.size(), 4u);
          ASSERT_EQ(mine.bytes()[0], 0xde);
          FrameRef second = mine;  // clone of clone
          ASSERT_EQ(second.bytes()[3], 0xef);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(shared.use_count(), 1u) << "a clone leaked a reference";
  }
  const FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.recycled + s.discarded, kRounds / 100);  // one per round
}

TEST(FrameBufStressTest, ConcurrentWrapReleaseChurnsFreelistSafely) {
  FramePool pool(/*capacity=*/16);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 20000; ++i) {
        FrameRef ref = pool.wrap(Bytes(static_cast<std::size_t>(t) + 1,
                                       static_cast<std::uint8_t>(t)));
        ASSERT_EQ(ref.bytes()[0], static_cast<std::uint8_t>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  const FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.recycled + s.discarded, 6u * 20000u);
}

}  // namespace
}  // namespace optrec
