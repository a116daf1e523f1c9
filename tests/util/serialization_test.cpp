#include "src/util/serialization.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

namespace optrec {
namespace {

TEST(SerializationTest, PrimitiveRoundTrip) {
  Writer w;
  w.put_u8(0x7f);
  w.put_bool(true);
  w.put_u32(0);
  w.put_u32(300);
  w.put_u32(std::numeric_limits<std::uint32_t>::max());
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  w.put_i64(-1);
  w.put_i64(123456789);
  w.put_string("hello");
  w.put_bytes({1, 2, 3});

  Reader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0x7f);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0u);
  EXPECT_EQ(r.get_u32(), 300u);
  EXPECT_EQ(r.get_u32(), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(r.get_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.get_i64(), -1);
  EXPECT_EQ(r.get_i64(), 123456789);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
}

TEST(SerializationTest, CountOnlyWriterCountsWhatAnEncodeWritesAndStoresNothing) {
  const auto write_all = [](Writer& w) {
    w.put_u8(0x7f);
    w.put_bool(false);
    w.put_u32(std::numeric_limits<std::uint32_t>::max());
    w.put_u64(std::numeric_limits<std::uint64_t>::max());
    w.put_i64(std::numeric_limits<std::int64_t>::min());
    w.put_i64(-64);
    w.put_string(std::string(200, 'x'));
    w.put_bytes(Bytes(130, 1));
    w.put_bytes({});
  };
  Writer real;
  write_all(real);
  Writer counter = Writer::count_only();
  counter.reserve(1000);
  write_all(counter);
  EXPECT_EQ(counter.size(), real.buffer().size());
  EXPECT_TRUE(counter.buffer().empty());
  EXPECT_EQ(counter.buffer().capacity(), 0u) << "count-only must not allocate";
}

TEST(SerializationTest, WriterReusesAnAdoptedBuffersCapacity) {
  Bytes old(64, 0xee);
  const std::uint8_t* storage = old.data();
  Writer w(std::move(old));
  EXPECT_EQ(w.size(), 0u);
  w.put_bytes(Bytes(40, 1));
  const Bytes out = w.take();
  EXPECT_EQ(out.size(), 41u);
  EXPECT_EQ(out.data(), storage) << "an adopted buffer must not reallocate";
}

TEST(SerializationTest, VarintSizesMatchInformationContent) {
  // Small values — small encodings; the paper's log2(f)-bits-per-version
  // claim shows up through this property in the piggyback bench.
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 3u);
  EXPECT_EQ(varint_size(std::numeric_limits<std::uint64_t>::max()), 10u);

  Writer w;
  w.put_u64(127);
  EXPECT_EQ(w.size(), 1u);
  w.put_u64(128);
  EXPECT_EQ(w.size(), 3u);
}

TEST(SerializationTest, ZigZagKeepsSmallNegativesSmall) {
  Writer w;
  w.put_i64(-2);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SerializationTest, ReadPastEndThrows) {
  Writer w;
  w.put_u8(1);
  Reader r(w.buffer());
  r.get_u8();
  EXPECT_THROW(r.get_u8(), DecodeError);
}

TEST(SerializationTest, TruncatedVarintThrows) {
  const Bytes bad{0x80};  // continuation bit set, nothing follows
  Reader r(bad);
  EXPECT_THROW(r.get_u64(), DecodeError);
}

TEST(SerializationTest, OversizedLengthThrows) {
  Writer w;
  w.put_u64(1000);  // claims 1000 bytes follow
  Reader r(w.buffer());
  EXPECT_THROW(r.get_bytes(), DecodeError);
}

TEST(SerializationTest, U32OverflowThrows) {
  Writer w;
  w.put_u64(0x1'0000'0000ull);
  Reader r(w.buffer());
  EXPECT_THROW(r.get_u32(), DecodeError);
}

TEST(SerializationTest, EmptyContainers) {
  Writer w;
  w.put_string("");
  w.put_bytes({});
  Reader r(w.buffer());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_TRUE(r.at_end());
}

}  // namespace
}  // namespace optrec
