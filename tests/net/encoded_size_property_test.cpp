// Sizing exactness: every wire_size()/byte_size() runs the type's encode()
// through a count-only Writer, so it must equal the length of the real
// encode for any value. Randomized over the field ranges where LEB128
// lengths change (0, 127/128, 2^32 - 1, 2^63, 2^64 - 1), clocks of 1-256
// entries and payloads of 0-300 bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "src/history/history.h"
#include "src/net/message.h"
#include "src/storage/checkpoint_store.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"
#include "src/wire/frame_buf.h"
#include "src/wire/wire_codec.h"

namespace optrec {
namespace {

template <class T>
std::size_t real_encode_length(const T& value) {
  Writer w;
  value.encode(w);
  return w.buffer().size();
}

constexpr std::uint64_t kEdges[] = {0,
                                    1,
                                    127,
                                    128,
                                    16383,
                                    16384,
                                    0xfffffffeull,
                                    0xffffffffull,
                                    0x100000000ull,
                                    1ull << 63,
                                    ~0ull - 1,
                                    ~0ull};

std::uint64_t draw_u64(Rng& rng) {
  if (rng.chance(0.5)) return kEdges[rng.uniform(std::size(kEdges))];
  return rng.next_u64() >> rng.uniform(64);
}

std::uint32_t draw_u32(Rng& rng) {
  return static_cast<std::uint32_t>(draw_u64(rng));
}

Ftvc draw_clock(Rng& rng, std::size_t n) {
  std::vector<FtvcEntry> entries(n);
  for (FtvcEntry& e : entries) {
    e.ver = rng.chance(0.7) ? 0 : draw_u32(rng);
    e.ts = draw_u64(rng);
  }
  return Ftvc::with_entries(static_cast<ProcessId>(rng.uniform(n)),
                            std::move(entries));
}

Bytes draw_bytes(Rng& rng, std::size_t max) {
  Bytes b(rng.uniform(max + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

Message draw_message(Rng& rng) {
  Message m;
  m.id = draw_u64(rng);
  m.kind = rng.chance(0.8) ? MessageKind::kApp : MessageKind::kControl;
  m.src = draw_u32(rng);
  m.dst = draw_u32(rng);
  m.src_version = draw_u32(rng);
  m.send_seq = draw_u64(rng);
  if (rng.chance(0.7)) m.clock = draw_clock(rng, 1 + rng.uniform(40));
  m.payload = draw_bytes(rng, 300);
  m.retransmission = rng.chance(0.5);
  m.sender_state = draw_u64(rng);
  return m;
}

Token draw_token(Rng& rng) {
  Token t;
  t.from = draw_u32(rng);
  t.failed = {draw_u32(rng), draw_u64(rng)};
  if (rng.chance(0.5)) t.restored_clock = draw_clock(rng, 1 + rng.uniform(40));
  t.origin_pid = draw_u32(rng);
  t.origin_ver = draw_u32(rng);
  return t;
}

History draw_history(Rng& rng, std::size_t n) {
  History h(static_cast<ProcessId>(rng.uniform(n)), n);
  for (int k = 0; k < 8; ++k) {
    if (rng.chance(0.5)) {
      h.observe_token(static_cast<ProcessId>(rng.uniform(n)),
                      {draw_u32(rng), draw_u64(rng)});
    } else {
      h.observe_message_clock(draw_clock(rng, n));
    }
  }
  return h;
}

TEST(EncodedSizeProperty, MessageWireSizeIsItsEncodeMinusTheOracleTag) {
  Rng rng(0x5eed0001);
  for (int i = 0; i < 2000; ++i) {
    const Message m = draw_message(rng);
    ASSERT_EQ(m.wire_size() + varint_size(m.sender_state),
              real_encode_length(m))
        << m.describe();
  }
}

TEST(EncodedSizeProperty, TokenWireSizeIsItsEncodeMinusTheAttribution) {
  Rng rng(0x5eed0002);
  for (int i = 0; i < 2000; ++i) {
    const Token t = draw_token(rng);
    ASSERT_EQ(t.wire_size() + varint_size(t.origin_pid) +
                  varint_size(t.origin_ver),
              real_encode_length(t))
        << t.describe();
  }
}

TEST(EncodedSizeProperty, FtvcWireSizeMatchesEncodeForOneTo256Entries) {
  Rng rng(0x5eed0003);
  for (std::size_t n = 1; n <= 256; ++n) {
    const Ftvc c = draw_clock(rng, n);
    ASSERT_EQ(c.wire_size(), real_encode_length(c)) << "n=" << n;
  }
}

TEST(EncodedSizeProperty, HistoryByteSizeMatchesEncodeWithTokenRecords) {
  Rng rng(0x5eed0004);
  for (int i = 0; i < 200; ++i) {
    const History h = draw_history(rng, 1 + rng.uniform(16));
    ASSERT_EQ(h.byte_size(), real_encode_length(h)) << h.to_string();
  }
}

TEST(EncodedSizeProperty, CheckpointByteSizeMatchesEncodeWithExtra) {
  Rng rng(0x5eed0005);
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = 1 + rng.uniform(16);
    Checkpoint c;
    c.version = draw_u32(rng);
    c.delivered_count = draw_u64(rng);
    c.send_seq = draw_u64(rng);
    c.clock = draw_clock(rng, n);
    c.history = draw_history(rng, n);
    c.app_state = draw_bytes(rng, 300);
    c.extra = draw_bytes(rng, 300);
    c.extra.push_back(0x42);  // never empty
    c.taken_at = draw_u64(rng);
    ASSERT_EQ(c.byte_size(), real_encode_length(c));
  }
}

TEST(EncodedSizeProperty, PooledFrameEncodesEqualTheBytesEncodes) {
  Rng rng(0x5eed0006);
  FramePool pool;
  for (int i = 0; i < 500; ++i) {
    const Message m = draw_message(rng);
    ASSERT_EQ(encode_message_frame(m, pool).bytes(), encode_message_frame(m));
    const Token t = draw_token(rng);
    ASSERT_EQ(encode_token_frame(t, pool).bytes(), encode_token_frame(t));
  }
}

}  // namespace
}  // namespace optrec
