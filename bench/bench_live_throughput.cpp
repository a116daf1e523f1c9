// Live-runtime throughput/latency bench.
//
// Not a google-benchmark microbenchmark: each measurement drives a real
// fleet of worker threads through LiveRuntime, so one run IS the timed
// unit. Every protocol runs the same workload twice — failure-free, and
// with two injected crashes — and we report wall-clock throughput,
// delivery-latency percentiles, exact piggyback bytes per message, and the
// crash-to-restart recovery time.
//
// Emits BENCH_live.json (override with --out=FILE) for CI artifact upload;
// prints a human-readable table to stdout. Exits non-zero if any run fails
// to quiesce, so CI catches live-runtime regressions.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/harness/failure_plan.h"
#include "src/harness/table_printer.h"
#include "src/live/live_runtime.h"
#include "src/util/json.h"

using namespace optrec;

namespace {

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kDamaniGarg,
    ProtocolKind::kPessimistic,
    ProtocolKind::kCoordinated,
    ProtocolKind::kCascading,
};

struct Row {
  const char* protocol = "";
  const char* phase = "";
  std::size_t producers = 0;  // per-channel fan-in: n - 1
  bool quiesced = false;
  std::uint64_t delivered = 0;
  SimTime wall_us = 0;
  double msgs_per_sec = 0;
  bench::LatencySummary latency;
  double piggyback_per_msg = 0;
  double recovery_mean_us = 0;
  double recovery_max_us = 0;
  std::uint64_t rollbacks = 0;
};

Row run_one(ProtocolKind protocol, std::size_t n, std::uint64_t seed,
            std::size_t crashes) {
  LiveConfig config;
  config.n = n;
  config.seed = seed;
  config.protocol = protocol;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.enable_oracle = false;
  config.time_cap = millis(20000);
  if (crashes > 0) {
    config.crashes =
        FailurePlan::seeded(seed, n, crashes, 0, millis(120)).crashes;
  }

  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  Row row;
  row.protocol = protocol_name(protocol);
  row.phase = crashes > 0 ? "crashes" : "failure_free";
  row.producers = n - 1;
  row.quiesced = result.quiesced;
  row.delivered = result.metrics.messages_delivered;
  row.wall_us = result.wall_time;
  const double wall_s = static_cast<double>(result.wall_time) / 1e6;
  row.msgs_per_sec =
      wall_s > 0 ? static_cast<double>(row.delivered) / wall_s : 0.0;
  row.latency = bench::LatencySummary::of(result.delivery_latency_us);
  row.piggyback_per_msg = result.metrics.piggyback_per_message();
  row.recovery_mean_us = result.metrics.restart_latency.mean();
  row.recovery_max_us = result.metrics.restart_latency.max();
  row.rollbacks = result.metrics.rollbacks;
  return row;
}

std::string fmt(double v, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_live.json";
  std::size_t n = 8;
  std::uint64_t seed = 1;
  std::size_t crashes = 2;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_file = arg + 6;
    } else if (std::strncmp(arg, "--n=", 4) == 0) {
      n = std::strtoull(arg + 4, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--crashes=", 10) == 0) {
      crashes = std::strtoull(arg + 10, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "bench_live_throughput: unknown flag '%s' "
                   "(--out= --n= --seed= --crashes=)\n",
                   arg);
      return 2;
    }
  }

  std::printf("bench_live_throughput: n=%zu seed=%llu crashes=%zu\n\n", n,
              (unsigned long long)seed, crashes);

  std::vector<Row> rows;
  for (ProtocolKind protocol : kProtocols) {
    rows.push_back(run_one(protocol, n, seed, 0));
    rows.push_back(run_one(protocol, n, seed, crashes));
  }
  // Channel fan-in sweep: with an all-to-all workload each inbox channel
  // sees n-1 producers, so n = 2/5/17 puts 1/4/16 concurrent pushers on
  // every channel — the contention axis bench_channel measures in
  // isolation, here end to end through the full protocol stack.
  std::vector<Row> fanin_rows;
  for (std::size_t fanin_n : {std::size_t{2}, std::size_t{5},
                              std::size_t{17}}) {
    Row row = run_one(ProtocolKind::kDamaniGarg, fanin_n, seed, 0);
    row.phase = "fanin";
    fanin_rows.push_back(row);
  }

  TablePrinter table({"protocol", "phase", "msgs/s", "p50 us", "p90 us",
                      "p99 us", "piggyback B/msg", "recovery ms", "rollbacks",
                      "quiesced"});
  for (const Row& r : rows) {
    table.add_row({r.protocol, r.phase, fmt(r.msgs_per_sec, 0),
                   fmt(r.latency.p50, 0), fmt(r.latency.p90, 0),
                   fmt(r.latency.p99, 0), fmt(r.piggyback_per_msg),
                   fmt(r.recovery_mean_us / 1000.0, 2),
                   std::to_string(r.rollbacks), r.quiesced ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::printf("\nchannel fan-in sweep (dg, failure-free):\n");
  TablePrinter fanin_table({"producers/chan", "msgs/s", "p50 us", "p90 us",
                            "p99 us", "quiesced"});
  for (const Row& r : fanin_rows) {
    fanin_table.add_row({std::to_string(r.producers), fmt(r.msgs_per_sec, 0),
                         fmt(r.latency.p50, 0), fmt(r.latency.p90, 0),
                         fmt(r.latency.p99, 0), r.quiesced ? "yes" : "NO"});
  }
  fanin_table.print(std::cout);
  rows.insert(rows.end(), fanin_rows.begin(), fanin_rows.end());

  std::ofstream os(out_file, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_live_throughput: cannot open '%s'\n",
                 out_file.c_str());
    return 2;
  }
  JsonWriter w(os);
  w.begin_object();
  bench::write_bench_preamble(w, "live");
  w.key("config").begin_object();
  w.kv("n", std::uint64_t{n});
  w.kv("seed", seed);
  w.kv("crashes", std::uint64_t{crashes});
  w.kv("workload", "counter");
  w.end_object();
  w.key("results").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("protocol", r.protocol);
    w.kv("phase", r.phase);
    w.kv("producers_per_channel", std::uint64_t{r.producers});
    w.kv("quiesced", r.quiesced);
    w.kv("messages_delivered", r.delivered);
    w.kv("wall_time_us", r.wall_us);
    w.kv("msgs_per_sec", r.msgs_per_sec);
    bench::write_latency_fields(w, "delivery_latency", r.latency);
    w.kv("piggyback_bytes_per_msg", r.piggyback_per_msg);
    w.kv("recovery_mean_us", r.recovery_mean_us);
    w.kv("recovery_max_us", r.recovery_max_us);
    w.kv("rollbacks", r.rollbacks);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  os.flush();
  std::printf("\nwrote %s\n", out_file.c_str());

  for (const Row& r : rows) {
    if (!r.quiesced) {
      std::fprintf(stderr, "FAIL: %s/%s did not quiesce\n", r.protocol,
                   r.phase);
      return 1;
    }
  }
  return 0;
}
