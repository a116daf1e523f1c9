// optrec_perfbench — the repository benchmark (see perfbench/README.md).
//
//   optrec_perfbench --workload steady_live|crash_sim|kv_service --seed N
//                    --seconds S --trace 0|1 [--tiny] [--expect-delta K]
//                    [--out-dir DIR] [--data-dir DIR] [--commit SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// repeats the workload untraced, then once more with the trace recorder
// (and the oracle and auditor where the backend has them), times each
// layer's public functions on the inputs the trace captured, and prints the
// per-layer metrics. The last stdout line is the result JSON; the line
// before it is the run context. Exit 0 when every correctness check passed,
// 1 when one failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "perfbench/src/bench.h"

using namespace perfbench;

namespace {

// The metric names BENCHMARK.json declares, in the order it lists them.
const char* const kEndToEnd[] = {
    "setup_s",
    "deliveries_per_cpu_s",
    "peak_rss_mb",
    "ok_frac",
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Per-layer metrics; a layer that does no work on a workload reports 0.
// e2e.* are end-to-end latencies measured in the untraced pass; they carry
// no bound because on a shared host they do not repeat closely enough.
const LayerMetric kPerLayer[] = {
    {"e2e.latency_p50_ms", "ms"},
    {"e2e.latency_p99_ms", "ms"},
    {"clocks.merge_ns", "ns"},
    {"clocks.encode_ns", "ns"},
    {"history.check_ns", "ns"},
    {"history.bytes", "B"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.piggyback_bytes_per_msg", "B"},
    {"core.overhead_vs_none", "x"},
    {"core.lost_work_per_failure", "states"},
    {"core.rollbacks_per_failure", "count"},
    {"core.replayed_per_failure", "count"},
    {"core.retransmits_per_failure", "count"},
    {"core.postponed", "count"},
    {"storage.ckpt_bytes_mean", "B"},
    {"storage.ckpt_encode_us", "us"},
    {"storage.checkpoints", "count"},
    {"storage.log_flushes", "count"},
    {"storage.gc_reclaimed_bytes", "B"},
    {"storage.stable_bytes", "B"},
    {"live.frame_pool_miss_frac", "frac"},
    {"live.ring_high_water", "frames"},
    {"tcp.frames_per_writev", "frames"},
    {"tcp.bytes_per_request", "B"},
    {"tcp.disconnects", "count"},
    {"durable.fsyncs_per_request", "count"},
    {"durable.wal_bytes_per_request", "B"},
    {"durable.wal_flush_p50_us", "us"},
    {"durable.wal_flush_p99_us", "us"},
    {"service.gate_p50_ms", "ms"},
    {"service.gate_p99_ms", "ms"},
    {"service.gated_frac", "frac"},
    {"service.codec_ns", "ns"},
    {"service.slo_rps", "1/s"},
    {"client.late_p99_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"span.runtime.self_ms", "ms"},
    {"span.trace.self_ms", "ms"},
    {"span.clocks.self_ms", "ms"},
    {"span.history.self_ms", "ms"},
    {"span.wire.self_ms", "ms"},
    {"span.storage.self_ms", "ms"},
    {"span.service.self_ms", "ms"},
    {"span.traced_run.self_ms", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "optrec_perfbench: %s\nusage: optrec_perfbench --workload "
               "steady_live|crash_sim|kv_service --seed N --seconds S "
               "--trace 0|1 [--tiny] [--expect-delta K] [--out-dir DIR] "
               "[--data-dir DIR] [--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
    } else if (arg == "--expect-delta") {
      o.expect_delta = std::strtoll(v.c_str(), &end, 10);
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else if (arg == "--data-dir") {
      o.data_dir = v;
    } else if (arg == "--commit") {
      o.commit = v;
    } else {
      usage("unknown flag " + arg);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + arg);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Keep exactly the declared metrics of this mode; a workload that reports
/// an undeclared name is a benchmark bug.
bool normalise(const Options& opts, Outcome& out) {
  std::set<std::string> declared;
  if (!opts.trace) {
    for (const char* name : kEndToEnd) declared.insert(name);
  } else {
    for (const LayerMetric& m : kPerLayer) {
      declared.insert(m.name);
      if (out.metrics.count(m.name) == 0) out.set(m.name, 0.0, m.unit);
    }
  }
  bool ok = true;
  for (const auto& [name, metric] : out.metrics) {
    if (declared.count(name) == 0) {
      std::fprintf(stderr, "optrec_perfbench: undeclared metric %s\n",
                   name.c_str());
      ok = false;
    }
  }
  for (const std::string& name : declared) {
    if (out.metrics.count(name) == 0) {
      std::fprintf(stderr, "optrec_perfbench: missing metric %s\n",
                   name.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  SpanRecorder spans;
  SpanRecorder* rec = opts.trace ? &spans : nullptr;

  Outcome out;
  const CpuTicks ticks0 = cpu_ticks();
  if (opts.workload == "steady_live") {
    out = run_steady_live(opts, rec);
  } else if (opts.workload == "crash_sim") {
    out = run_crash_sim(opts, rec);
  } else if (opts.workload == "kv_service") {
    out = run_kv_service(opts, rec);
  } else {
    usage("unknown workload " + opts.workload);
  }

  out.config["host_steal_frac"] =
      std::to_string(steal_frac(ticks0, cpu_ticks()));
  if (!opts.trace) {
    // A workload that measures its own peak per unit has set it already.
    if (out.metrics.count("peak_rss_mb") == 0) {
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    out.set("ok_frac",
            out.attempted == 0
                ? 0.0
                : 1.0 - static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted),
            "frac");
  }
  if (opts.trace) {
    for (const auto& [name, ms] : spans.self_ms()) {
      out.set("span." + name + ".self_ms", ms, "ms");
    }
  }
  if (!normalise(opts, out)) return 3;

  const std::string context = context_json(opts, out);
  if (opts.trace && !opts.out_dir.empty()) {
    const std::string path = opts.out_dir + "/spans-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".json";
    if (!spans.write_json(path, context)) out.fail("cannot write " + path);
  }
  for (const std::string& why : out.failures) {
    std::fprintf(stderr, "optrec_perfbench: FAILED %s\n", why.c_str());
  }
  std::printf("{\"context\": %s}\n", context.c_str());
  std::printf("%s\n", result_json(out).c_str());
  return out.correct ? 0 : 1;
}
