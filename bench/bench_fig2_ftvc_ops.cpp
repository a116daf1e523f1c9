// E2 — regenerates Figure 2's mechanism as throughput numbers: the cost of
// maintaining the fault-tolerant vector clock (merge on delivery, tick on
// send, serialize for piggyback, comparison for Theorem-1 queries) as the
// system size n grows. This is the failure-free cost of the paper's core
// data structure. The wire rows price what the send path does per message
// beside the clock: size the message for the byte counters (a count-only
// encode) and encode its frame once into a recycled pool buffer.
#include "bench_util.h"
#include "src/clocks/ftvc.h"
#include "src/clocks/vector_clock.h"
#include "src/net/message.h"
#include "src/wire/frame_buf.h"
#include "src/wire/wire_codec.h"

using namespace optrec;
using namespace optrec::bench;

namespace {

Ftvc busy_clock(ProcessId owner, std::size_t n, std::uint64_t salt) {
  Ftvc c(owner, n);
  // Exercise several versions/timestamps so comparisons are not trivially
  // short-circuited.
  for (std::uint64_t i = 0; i < 4 + salt % 4; ++i) c.tick_send();
  if (salt % 3 == 0) c.on_restart();
  for (std::uint64_t i = 0; i < salt % 7; ++i) c.tick_send();
  return c;
}

void BM_FtvcMergeDeliver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Ftvc mine = busy_clock(0, n, 1);
  const Ftvc incoming = busy_clock(1 % n, n, 2);
  for (auto _ : state) {
    mine.merge_deliver(incoming);
    benchmark::DoNotOptimize(mine);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FtvcTickSend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Ftvc mine = busy_clock(0, n, 1);
  for (auto _ : state) {
    mine.tick_send();
    benchmark::DoNotOptimize(mine);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FtvcEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Ftvc mine = busy_clock(0, n, 5);
  for (auto _ : state) {
    Writer w;
    mine.encode(w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FtvcWireSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Ftvc mine = busy_clock(0, n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mine.wire_size());
  }
  state.SetItemsProcessed(state.iterations());
}

Message bench_message(std::size_t n) {
  Message m;
  m.src = 0;
  m.dst = static_cast<ProcessId>(1 % n);
  m.send_seq = 1000 + n;
  m.clock = busy_clock(0, n, 5);
  m.payload = Bytes(16, 0xab);  // the counter workload's payload scale
  m.sender_state = 77;
  m.id = 123456;
  return m;
}

void BM_MessageWireSize(benchmark::State& state) {
  const Message msg = bench_message(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(message_wire_bytes(msg));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MessageFrameEncodePooled(benchmark::State& state) {
  const Message msg = bench_message(static_cast<std::size_t>(state.range(0)));
  FramePool pool;
  for (auto _ : state) {
    const FrameRef frame = encode_message_frame(msg, pool);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FtvcLessThan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Ftvc a = busy_clock(0, n, 1);
  Ftvc b = busy_clock(1 % n, n, 2);
  b.merge_deliver(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.less_than(b));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PlainVectorClockMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  VectorClock mine(0, n);
  VectorClock incoming(1 % n, n);
  incoming.tick();
  for (auto _ : state) {
    mine.merge_deliver(incoming);
    benchmark::DoNotOptimize(mine);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_FtvcMergeDeliver)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_FtvcTickSend)->Arg(4)->Arg(256);
BENCHMARK(BM_FtvcEncode)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_FtvcWireSize)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_MessageWireSize)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_MessageFrameEncodePooled)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_FtvcLessThan)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_PlainVectorClockMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

int main(int argc, char** argv) {
  print_header("E2: FTVC operation throughput", "Figure 2 (the FTVC rules)",
               "clock maintenance is O(n) per event; versions add negligible "
               "cost over a plain Mattern clock");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
