// optrec_live — live multi-threaded experiment runner.
//
// Runs one REAL distributed computation: each process is an OS thread, the
// traffic is wire-encoded frames over in-process MPSC channels, delays and
// crashes happen in wall time. Same protocols, same workloads, same
// post-hoc validation (causality oracle + trace auditor) as optrec_sim.
//
//   optrec_live --protocol=dg --processes=8 --crashes=2 --oracle --audit
//
// Flags (all optional):
//   --protocol=NAME    damani-garg | pessimistic | coordinated |
//                      sender-based | cascading | none       [damani-garg]
//   --workload=NAME    counter | pingpong | bank | gossip    [counter]
//   --n=K | --processes=K  number of processes (threads)     [4]
//   --seed=S           deterministic fault/schedule seed     [1]
//   --intensity=K      jobs/transfers/rumors seeded          [6]
//   --depth=K          hop/round budget                      [48]
//   --crashes=K        random crashes in the first 200 ms    [0]
//   --drop=P           app-message drop probability          [0]
//   --dup=P            app-message duplicate probability     [0]
//   --partition=SPEC   scripted partition AT_MS:HEAL_MS:G0/G1 (repeatable;
//                      groups are comma-separated process ids)
//   --min-delay-us=K   injected delivery delay floor         [50]
//   --max-delay-us=K   injected delivery delay ceiling       [2000]
//   --flush-ms=K       log flush interval                    [10]
//   --ckpt-ms=K        checkpoint interval                   [50]
//   --retransmit       Remark-1 send-history retransmission
//   --stability        Remark-2 stability tracking + output commit
//   --gc               storage garbage collection (implies --stability)
//   --time-cap-ms=K    wall-time cap                         [15000]
//   --verbose          narrate crashes/restarts/rollbacks
//   --oracle           run the ground-truth consistency check
//
// Observability (docs/OBSERVABILITY.md):
//   --trace=FILE       record a structured event trace to FILE ("-" = stdout)
//   --trace-format=F   jsonl | chrome | dot                  [jsonl]
//   --audit            replay the trace through the invariant auditor;
//                      violations fail the run (implies tracing)
//   --metrics-json[=FILE]  print the full result as one JSON object (to
//                      FILE instead of stdout when given)
//
// Exit codes: the shared runner convention — see "Exit codes" in README.md
// (0 clean, 2 usage, 3 violation, 4 time cap).
//
// Note: the live runtime is non-FIFO by construction, so protocols that
// assume FIFO channels (peterson-kearns) are not meaningful here.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/harness/failure_plan.h"
#include "src/live/live_runtime.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/tools/cli.h"
#include "src/trace/trace_auditor.h"
#include "src/trace/trace_sink.h"
#include "src/util/json.h"
#include "src/util/log.h"

using namespace optrec;
using namespace optrec::cli;

namespace {

std::string result_json(const LiveConfig& config, const LiveResult& result,
                        std::size_t crashes_planned,
                        const std::vector<std::string>& violations,
                        bool audited, std::size_t audit_violations,
                        const std::vector<TraceEvent>* events) {
  std::ostringstream os;
  JsonWriter w(os);
  const Metrics& m = result.metrics;
  const Network::Stats& n = result.net;
  const double wall_s = static_cast<double>(result.wall_time) / 1e6;

  w.begin_object();
  w.key("config").begin_object();
  w.kv("backend", "live");
  w.kv("protocol", protocol_name(config.protocol));
  w.kv("workload", config.workload.name());
  w.kv("n", std::uint64_t{config.n});
  w.kv("seed", config.seed);
  w.kv("crashes_planned", std::uint64_t{crashes_planned});
  w.end_object();

  w.kv("quiesced", result.quiesced);
  w.kv("wall_time_us", result.wall_time);
  w.kv("delivered_per_second",
       wall_s > 0 ? static_cast<double>(m.messages_delivered) / wall_s : 0.0);
  w.key("delivery_latency_us").begin_object();
  w.kv("count", std::uint64_t{result.delivery_latency_us.count()});
  w.kv("p50", result.delivery_latency_us.percentile(0.50));
  w.kv("p90", result.delivery_latency_us.percentile(0.90));
  w.kv("p99", result.delivery_latency_us.percentile(0.99));
  w.end_object();
  w.key("recovery_us").begin_object();
  w.kv("count", std::uint64_t{m.restart_latency.count()});
  w.kv("mean", m.restart_latency.mean());
  w.kv("max", m.restart_latency.max());
  w.end_object();

  w.key("metrics").begin_object();
  w.kv("app_messages_sent", m.app_messages_sent);
  w.kv("control_messages_sent", m.control_messages_sent);
  w.kv("messages_delivered", m.messages_delivered);
  w.kv("messages_discarded_obsolete", m.messages_discarded_obsolete);
  w.kv("messages_discarded_duplicate", m.messages_discarded_duplicate);
  w.kv("messages_postponed", m.messages_postponed);
  w.kv("postponed_released", m.postponed_released);
  w.kv("piggyback_bytes", m.piggyback_bytes);
  w.kv("payload_bytes", m.payload_bytes);
  w.kv("piggyback_per_message", m.piggyback_per_message());
  w.kv("checkpoints_taken", m.checkpoints_taken);
  w.kv("log_flushes", m.log_flushes);
  w.kv("messages_lost_in_crash", m.messages_lost_in_crash);
  w.kv("sync_log_writes", m.sync_log_writes);
  w.kv("crashes", m.crashes);
  w.kv("restarts", m.restarts);
  w.kv("rollbacks", m.rollbacks);
  w.kv("max_rollbacks_per_process_per_failure",
       m.max_rollbacks_per_process_per_failure());
  w.kv("tokens_processed", m.tokens_processed);
  w.kv("messages_replayed", m.messages_replayed);
  w.kv("retransmissions", m.retransmissions);
  w.kv("states_rolled_back", m.states_rolled_back);
  w.end_object();

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

  w.kv("oracle_violations", std::uint64_t{violations.size()});
  if (audited) w.kv("audit_violations", std::uint64_t{audit_violations});
  // Phase-decomposed unavailability per failure — only derivable when the
  // run recorded a trace (docs/OBSERVABILITY.md).
  if (events != nullptr && !events->empty()) {
    w.key("recovery_timeline").begin_object();
    telemetry::write_recovery_timeline_fields(
        w, telemetry::analyze_recovery_timeline(*events));
    w.end_object();
  }
  w.end_object();
  os << "\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  tool_name = "optrec_live";
  LiveConfig config;
  config.n = 4;
  config.seed = 1;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.enable_oracle = false;
  config.time_cap = millis(15000);

  std::size_t crashes = 0;
  std::string value;
  std::string trace_file;
  std::string trace_format = "jsonl";
  bool audit = false;
  bool metrics_json = false;
  std::string metrics_json_file;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_flag(arg, "--protocol", &value)) {
      config.protocol = parse_protocol(value);
    } else if (parse_flag(arg, "--workload", &value)) {
      config.workload.kind = parse_workload(value);
    } else if (parse_flag(arg, "--n", &value)) {
      config.n = parse_u64(value, "--n");
    } else if (parse_flag(arg, "--processes", &value)) {
      config.n = parse_u64(value, "--processes");
    } else if (parse_flag(arg, "--seed", &value)) {
      config.seed = parse_u64(value, "--seed");
    } else if (parse_flag(arg, "--intensity", &value)) {
      config.workload.intensity =
          static_cast<std::uint32_t>(parse_u64(value, "--intensity"));
    } else if (parse_flag(arg, "--depth", &value)) {
      config.workload.depth =
          static_cast<std::uint32_t>(parse_u64(value, "--depth"));
    } else if (parse_flag(arg, "--crashes", &value)) {
      crashes = parse_u64(value, "--crashes");
    } else if (parse_flag(arg, "--drop", &value)) {
      config.faults.drop_prob = parse_double(value, "--drop");
    } else if (parse_flag(arg, "--dup", &value)) {
      config.faults.duplicate_prob = parse_double(value, "--dup");
    } else if (parse_flag(arg, "--partition", &value)) {
      try {
        config.faults.partitions.push_back(parse_partition_spec(value));
      } catch (const std::invalid_argument& e) {
        die(e.what());
      }
    } else if (parse_flag(arg, "--min-delay-us", &value)) {
      config.faults.min_delay = micros(parse_u64(value, "--min-delay-us"));
    } else if (parse_flag(arg, "--max-delay-us", &value)) {
      config.faults.max_delay = micros(parse_u64(value, "--max-delay-us"));
    } else if (parse_flag(arg, "--flush-ms", &value)) {
      config.process.flush_interval = millis(parse_u64(value, "--flush-ms"));
    } else if (parse_flag(arg, "--ckpt-ms", &value)) {
      config.process.checkpoint_interval =
          millis(parse_u64(value, "--ckpt-ms"));
    } else if (parse_flag(arg, "--retransmit", &value)) {
      config.process.retransmit_on_failure = true;
    } else if (parse_flag(arg, "--stability", &value)) {
      config.process.enable_stability_tracking = true;
    } else if (parse_flag(arg, "--gc", &value)) {
      config.process.enable_stability_tracking = true;
      config.process.enable_gc = true;
    } else if (parse_flag(arg, "--time-cap-ms", &value)) {
      config.time_cap = millis(parse_u64(value, "--time-cap-ms"));
    } else if (parse_flag(arg, "--verbose", &value)) {
      set_log_level(LogLevel::kInfo);
    } else if (parse_flag(arg, "--oracle", &value)) {
      config.enable_oracle = true;
    } else if (parse_flag(arg, "--trace-format", &value)) {
      if (value != "jsonl" && value != "chrome" && value != "dot") {
        die("--trace-format wants jsonl | chrome | dot");
      }
      trace_format = value;
    } else if (parse_flag(arg, "--trace", &value)) {
      if (value.empty()) die("--trace wants a file name (or - for stdout)");
      trace_file = value;
      config.enable_trace = true;
    } else if (parse_flag(arg, "--audit", &value)) {
      audit = true;
      config.enable_trace = true;
    } else if (parse_flag(arg, "--metrics-json", &value)) {
      metrics_json = true;
      metrics_json_file = value;
    } else {
      die(std::string("unknown flag '") + arg + "' (see header comment)");
    }
  }

  if (config.faults.min_delay > config.faults.max_delay) {
    die("--min-delay-us must be <= --max-delay-us");
  }
  if (crashes > 0) {
    Rng rng(config.seed * 977 + 3);
    const FailurePlan plan = FailurePlan::random(rng, config.n, crashes,
                                                 millis(20), millis(200));
    config.crashes = plan.crashes;
  }

  if (!metrics_json) {
    std::printf("live: protocol=%s workload=%s n=%zu seed=%llu crashes=%zu\n\n",
                protocol_name(config.protocol), config.workload.name().c_str(),
                config.n, (unsigned long long)config.seed, crashes);
  }

  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();
  const Metrics& m = result.metrics;

  std::vector<std::string> violations;
  if (config.enable_oracle && runtime.oracle() != nullptr) {
    violations = runtime.oracle()->check_consistency();
  }

  const std::vector<TraceEvent>* events = nullptr;
  if (runtime.trace() != nullptr) events = &runtime.trace()->events();

  if (!trace_file.empty() && events != nullptr) {
    std::ofstream file_out;
    if (trace_file != "-") {
      file_out.open(trace_file, std::ios::binary);
      if (!file_out) die("cannot open trace file '" + trace_file + "'");
    }
    std::ostream& out = trace_file == "-" ? std::cout : file_out;
    if (trace_format == "jsonl") {
      write_trace_jsonl(out, *events);
    } else if (trace_format == "chrome") {
      write_trace_chrome(out, *events);
    } else {
      write_trace_dot(out, *events);
    }
    if (&out == &file_out && !file_out) {
      die("failed writing trace file '" + trace_file + "'");
    }
  }

  bool audit_ok = true;
  std::size_t audit_violations = 0;
  if (audit && events != nullptr) {
    const AuditReport report = audit_trace(*events);
    audit_ok = report.ok();
    audit_violations = report.violations.size();
    if (!metrics_json) std::printf("%s\n", report.summary().c_str());
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "audit !! %s\n", v.c_str());
    }
  }

  const int exit_code = !violations.empty() || !audit_ok ? 3
                        : !result.quiesced               ? 4
                                                         : 0;
  if (metrics_json) {
    const std::string json =
        result_json(config, result, config.crashes.size(), violations, audit,
                    audit_violations, events);
    if (metrics_json_file.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(metrics_json_file, std::ios::binary);
      if (!out) die("cannot open metrics file '" + metrics_json_file + "'");
      out << json;
      if (!out) die("failed writing metrics file '" + metrics_json_file + "'");
    }
    return exit_code;
  }

  const double wall_s = static_cast<double>(result.wall_time) / 1e6;
  std::printf("quiesced                %s (t = %.2f ms wall)\n",
              result.quiesced ? "yes" : "NO", result.wall_time / 1000.0);
  std::printf("throughput %.0f delivered/s (%llu delivered in %.2f s)\n",
              wall_s > 0 ? m.messages_delivered / wall_s : 0.0,
              (unsigned long long)m.messages_delivered, wall_s);
  std::printf("latency    p50=%.0f us p90=%.0f us p99=%.0f us (n=%llu)\n",
              result.delivery_latency_us.percentile(0.50),
              result.delivery_latency_us.percentile(0.90),
              result.delivery_latency_us.percentile(0.99),
              (unsigned long long)result.delivery_latency_us.count());
  std::printf("messages   sent=%llu delivered=%llu replayed=%llu\n",
              (unsigned long long)m.app_messages_sent,
              (unsigned long long)m.messages_delivered,
              (unsigned long long)m.messages_replayed);
  std::printf("filters    obsolete=%llu duplicate=%llu postponed=%llu\n",
              (unsigned long long)m.messages_discarded_obsolete,
              (unsigned long long)m.messages_discarded_duplicate,
              (unsigned long long)m.messages_postponed);
  std::printf("recovery   crashes=%llu restarts=%llu rollbacks=%llu "
              "(max %llu/proc/failure) restart=%.2f ms mean\n",
              (unsigned long long)m.crashes, (unsigned long long)m.restarts,
              (unsigned long long)m.rollbacks,
              (unsigned long long)m.max_rollbacks_per_process_per_failure(),
              m.restart_latency.mean() / 1000.0);
  std::printf("wire       piggyback=%.1f B/msg msg-bytes=%llu "
              "token-bytes=%llu retried=%llu\n",
              m.piggyback_per_message(),
              (unsigned long long)result.net.message_bytes,
              (unsigned long long)result.net.token_bytes,
              (unsigned long long)result.net.messages_retried);
  if (config.enable_oracle) {
    std::printf("oracle     consistency=%s\n",
                violations.empty() ? "OK" : "VIOLATED");
    for (const auto& v : violations) std::printf("  !! %s\n", v.c_str());
  }
  return exit_code;
}
