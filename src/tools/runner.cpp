#include "src/tools/runner.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "src/harness/experiment.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/trace/trace_auditor.h"
#include "src/trace/trace_sink.h"
#include "src/util/log.h"

namespace optrec::cli {

bool parse_run_flag(const char* arg, RunFlags& run, bool wall_clock) {
  std::string value;
  if (parse_flag(arg, "--protocol", &value)) {
    run.protocol = parse_protocol(value);
  } else if (parse_flag(arg, "--workload", &value)) {
    run.workload.kind = parse_workload(value);
  } else if (parse_flag(arg, "--n", &value)) {
    run.n = parse_u64(value, "--n");
  } else if (parse_flag(arg, "--seed", &value)) {
    run.seed = parse_u64(value, "--seed");
  } else if (parse_flag(arg, "--intensity", &value)) {
    run.workload.intensity =
        static_cast<std::uint32_t>(parse_u64(value, "--intensity"));
  } else if (parse_flag(arg, "--depth", &value)) {
    run.workload.depth =
        static_cast<std::uint32_t>(parse_u64(value, "--depth"));
  } else if (parse_flag(arg, "--crashes", &value)) {
    run.crashes = parse_u64(value, "--crashes");
  } else if (parse_flag(arg, "--drop", &value)) {
    run.drop = parse_double(value, "--drop");
  } else if (parse_flag(arg, "--flush-ms", &value)) {
    run.process.flush_interval = millis(parse_u64(value, "--flush-ms"));
  } else if (parse_flag(arg, "--ckpt-ms", &value)) {
    run.process.checkpoint_interval = millis(parse_u64(value, "--ckpt-ms"));
  } else if (parse_flag(arg, "--retransmit", &value)) {
    run.process.retransmit_on_failure = true;
  } else if (parse_flag(arg, "--stability", &value)) {
    run.process.enable_stability_tracking = true;
  } else if (parse_flag(arg, "--gc", &value)) {
    run.process.enable_stability_tracking = true;
    run.process.enable_gc = true;
  } else if (parse_flag(arg, "--verbose", &value)) {
    set_log_level(LogLevel::kInfo);
    run.verbose = true;
  } else if (parse_flag(arg, "--oracle", &value)) {
    run.oracle = true;
  } else if (parse_flag(arg, "--trace-format", &value)) {
    if (value != "jsonl" && value != "chrome" && value != "dot") {
      die("--trace-format wants jsonl | chrome | dot");
    }
    run.trace_format = value;
  } else if (parse_flag(arg, "--trace", &value)) {
    if (value.empty()) die("--trace wants a file name (or - for stdout)");
    run.trace_file = value;
  } else if (parse_flag(arg, "--audit", &value)) {
    run.audit = true;
  } else if (parse_flag(arg, "--metrics-json", &value)) {
    run.metrics_json = true;
    run.metrics_json_file = value;
  } else if (!wall_clock) {
    return false;
  } else if (parse_flag(arg, "--processes", &value)) {
    run.n = parse_u64(value, "--processes");
  } else if (parse_flag(arg, "--dup", &value)) {
    run.dup = parse_double(value, "--dup");
  } else if (parse_flag(arg, "--partition", &value)) {
    try {
      run.partitions.push_back(parse_partition_spec(value));
    } catch (const std::invalid_argument& e) {
      die(e.what());
    }
  } else if (parse_flag(arg, "--min-delay-us", &value)) {
    run.min_delay = micros(parse_u64(value, "--min-delay-us"));
  } else if (parse_flag(arg, "--max-delay-us", &value)) {
    run.max_delay = micros(parse_u64(value, "--max-delay-us"));
  } else if (parse_flag(arg, "--time-cap-ms", &value)) {
    run.time_cap = millis(parse_u64(value, "--time-cap-ms"));
  } else {
    return false;
  }
  return true;
}

void check_run(const RunFlags& run, std::size_t id_limit, const char* unit) {
  if (run.n < 2) {
    die("n must be >= 2 processes (got " + std::to_string(run.n) + ")");
  }
  if (run.min_delay > run.max_delay) {
    die("--min-delay-us must be <= --max-delay-us");
  }
  for (const PartitionEvent& event : run.partitions) {
    for (const auto& group : event.groups) {
      for (ProcessId id : group) {
        if (id >= id_limit) {
          die("--partition names unknown " + std::string(unit) + " " +
              std::to_string(id) + " (ids are 0.." +
              std::to_string(id_limit - 1) + ")");
        }
      }
    }
  }
}

FailurePlan crash_plan(const RunFlags& run, bool simultaneous) {
  return simultaneous ? FailurePlan::seeded(run.seed, run.n, 0, run.crashes)
                      : FailurePlan::seeded(run.seed, run.n, run.crashes);
}

void print_banner(const char* prefix, const RunFlags& run,
                  const std::string& extra) {
  std::printf("%sprotocol=%s workload=%s n=%zu%s seed=%llu crashes=%zu\n\n",
              prefix, protocol_name(run.protocol),
              run.workload.name().c_str(), run.n, extra.c_str(),
              (unsigned long long)run.seed, run.crashes);
}

namespace {

void write_trace_file(const RunFlags& run,
                      const std::vector<TraceEvent>& events) {
  std::ofstream file_out;
  if (run.trace_file != "-") {
    file_out.open(run.trace_file, std::ios::binary);
    if (!file_out) die("cannot open trace file '" + run.trace_file + "'");
  }
  std::ostream& out = run.trace_file == "-" ? std::cout : file_out;
  if (run.trace_format == "jsonl") {
    write_trace_jsonl(out, events);
  } else if (run.trace_format == "chrome") {
    write_trace_chrome(out, events);
  } else {
    write_trace_dot(out, events);
  }
  if (&out == &file_out && !file_out) {
    die("failed writing trace file '" + run.trace_file + "'");
  }
}

}  // namespace

RunVerdict finish_run(const RunFlags& run, const RunOutcome& outcome) {
  RunVerdict verdict;
  bool audit_ok = true;
  if (outcome.events != nullptr) {
    if (!run.trace_file.empty()) write_trace_file(run, *outcome.events);
    if (run.audit) {
      const AuditReport report = audit_trace(*outcome.events);
      audit_ok = report.ok();
      verdict.audit_violations = report.violations.size();
      if (!run.metrics_json) std::printf("%s\n", report.summary().c_str());
      for (const std::string& v : report.violations) {
        std::fprintf(stderr, "audit !! %s\n", v.c_str());
      }
    }
  }
  // Distinct exit codes: correctness violations (3) vs. a run that never
  // quiesced (4); usage errors exit 2 via die(). See README "Exit codes".
  verdict.exit_code = !outcome.violations.empty() || !audit_ok ? 3
                      : outcome.clean_exit.has_value() ? *outcome.clean_exit
                      : !outcome.quiesced              ? 4
                                                       : 0;
  return verdict;
}

void emit_metrics_json(const RunFlags& run, const std::string& json) {
  const std::string& file = run.metrics_json_file;
  if (file.empty()) {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::ofstream out(file, std::ios::binary);
  if (!out) die("cannot open metrics file '" + file + "'");
  out << json;
  if (!out) die("failed writing metrics file '" + file + "'");
}

namespace {

double delivered_per_second(const WallClockRun& r) {
  const double wall_s = static_cast<double>(r.wall_time) / 1e6;
  return wall_s > 0 ? static_cast<double>(r.metrics.messages_delivered) / wall_s
                    : 0.0;
}

}  // namespace

std::string wall_clock_json(const char* backend, const RunFlags& run,
                            const RunOutcome& outcome,
                            const RunVerdict& verdict, const WallClockRun& r,
                            const JsonBlocks& config_extra,
                            const JsonBlocks& blocks) {
  std::ostringstream os;
  JsonWriter w(os);
  const Metrics& m = r.metrics;
  const Network::Stats& n = r.net;

  w.begin_object();
  w.key("config").begin_object();
  w.kv("backend", backend);
  w.kv("protocol", protocol_name(run.protocol));
  w.kv("workload", run.workload.name());
  w.kv("n", std::uint64_t{run.n});
  w.kv("seed", run.seed);
  w.kv("crashes_planned", std::uint64_t{run.crashes});
  if (config_extra) config_extra(w);
  w.end_object();

  w.kv("exit_code", std::uint64_t(verdict.exit_code));
  w.kv("quiesced", outcome.quiesced);
  w.kv("wall_time_us", r.wall_time);
  w.kv("delivered_per_second", delivered_per_second(r));
  w.key("delivery_latency_us").begin_object();
  w.kv("count", std::uint64_t{r.latency.count()});
  w.kv("p50", r.latency.percentile(0.50));
  w.kv("p90", r.latency.percentile(0.90));
  w.kv("p99", r.latency.percentile(0.99));
  w.end_object();
  w.key("recovery_us").begin_object();
  w.kv("count", std::uint64_t{m.restart_latency.count()});
  w.kv("mean", m.restart_latency.mean());
  w.kv("max", m.restart_latency.max());
  w.end_object();

  w.key("metrics");
  write_metrics_json(w, m);

  w.key("net").begin_object();
  w.kv("messages_sent", n.messages_sent);
  w.kv("messages_delivered", n.messages_delivered);
  w.kv("messages_dropped", n.messages_dropped);
  w.kv("messages_duplicated", n.messages_duplicated);
  w.kv("messages_retried", n.messages_retried);
  w.kv("tokens_sent", n.tokens_sent);
  w.kv("tokens_delivered", n.tokens_delivered);
  w.kv("message_bytes", n.message_bytes);
  w.kv("token_bytes", n.token_bytes);
  w.end_object();

  if (blocks) blocks(w);

  w.kv("oracle_violations", std::uint64_t{outcome.violations.size()});
  if (run.audit) {
    w.kv("audit_violations", std::uint64_t{verdict.audit_violations});
  }
  // Phase-decomposed unavailability per failure — only derivable when the
  // run recorded a trace (docs/OBSERVABILITY.md).
  if (outcome.events != nullptr) {
    w.key("recovery_timeline").begin_object();
    telemetry::write_recovery_timeline_fields(
        w, telemetry::analyze_recovery_timeline(*outcome.events));
    w.end_object();
  }
  w.end_object();
  os << "\n";
  return os.str();
}

void print_message_lines(const Metrics& m) {
  std::printf("messages   sent=%llu delivered=%llu replayed=%llu\n",
              (unsigned long long)m.app_messages_sent,
              (unsigned long long)m.messages_delivered,
              (unsigned long long)m.messages_replayed);
  std::printf("filters    obsolete=%llu duplicate=%llu postponed=%llu\n",
              (unsigned long long)m.messages_discarded_obsolete,
              (unsigned long long)m.messages_discarded_duplicate,
              (unsigned long long)m.messages_postponed);
}

void print_wall_clock_summary(const char* head, bool quiesced,
                              const WallClockRun& r) {
  const Metrics& m = r.metrics;
  std::printf("%s quiesced=%s (t = %.2f ms wall)\n", head,
              quiesced ? "yes" : "NO", r.wall_time / 1000.0);
  std::printf("throughput %.0f delivered/s (%llu delivered in %.2f s)\n",
              delivered_per_second(r),
              (unsigned long long)m.messages_delivered, r.wall_time / 1e6);
  std::printf("latency    p50=%.0f us p90=%.0f us p99=%.0f us (n=%llu)\n",
              r.latency.percentile(0.50), r.latency.percentile(0.90),
              r.latency.percentile(0.99),
              (unsigned long long)r.latency.count());
  print_message_lines(m);
  std::printf("recovery   crashes=%llu restarts=%llu rollbacks=%llu "
              "(max %llu/proc/failure) restart=%.2f ms mean\n",
              (unsigned long long)m.crashes, (unsigned long long)m.restarts,
              (unsigned long long)m.rollbacks,
              (unsigned long long)m.max_rollbacks_per_process_per_failure(),
              m.restart_latency.mean() / 1000.0);
  std::printf("wire       piggyback=%.1f B/msg msg-bytes=%llu "
              "token-bytes=%llu retried=%llu\n",
              m.piggyback_per_message(),
              (unsigned long long)r.net.message_bytes,
              (unsigned long long)r.net.token_bytes,
              (unsigned long long)r.net.messages_retried);
}

void print_oracle_lines(const RunFlags& run,
                        const std::vector<std::string>& violations) {
  if (!run.oracle) return;
  std::printf("oracle     consistency=%s\n",
              violations.empty() ? "OK" : "VIOLATED");
  for (const auto& v : violations) std::printf("  !! %s\n", v.c_str());
}

}  // namespace optrec::cli
