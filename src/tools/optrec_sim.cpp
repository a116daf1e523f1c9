// optrec_sim — command-line experiment runner.
//
// Runs one simulated distributed computation under a chosen recovery
// protocol and prints the metrics; the quickest way to poke at the system
// without writing code.
//
//   optrec_sim --protocol=damani-garg --n=6 --workload=bank
//              --crashes=2 --seed=7 --retransmit --verbose
//
// Flags (all optional):
//   --protocol=NAME    damani-garg | pessimistic | coordinated |
//                      sender-based | cascading | none       [damani-garg]
//   --workload=NAME    counter | pingpong | bank | gossip    [counter]
//   --n=K              number of processes                   [4]
//   --seed=S           deterministic seed                    [1]
//   --intensity=K      jobs/transfers/rumors seeded          [6]
//   --depth=K          hop/round budget                      [48]
//   --crashes=K        random crashes injected               [0]
//   --concurrent       make the crashes simultaneous
//   --drop=P           app-message drop probability          [0]
//   --fifo             FIFO channels (default: arbitrary reordering)
//   --flush-ms=K       log flush interval                    [20]
//   --ckpt-ms=K        checkpoint interval                   [100]
//   --retransmit       Remark-1 send-history retransmission
//   --stability        Remark-2 stability tracking + output commit
//   --gc               storage garbage collection (implies --stability)
//   --partition=A,B    partition {0..A-1} | {A..n-1} from B ms to 4*B ms
//   --verbose          narrate crashes/restarts/rollbacks
//   --oracle           run the ground-truth consistency check (slower)
//
// Observability (docs/OBSERVABILITY.md):
//   --trace=FILE       record a structured event trace to FILE ("-" = stdout)
//   --trace-format=F   jsonl (archival, round-trips) | chrome (Perfetto) |
//                      dot (Graphviz space-time diagram)        [jsonl]
//   --audit            replay the trace through the invariant auditor;
//                      violations fail the run (implies tracing)
//   --metrics-json[=FILE]  print the full metrics as one JSON object
//                      instead of the human-readable table (to FILE
//                      instead of stdout when given)
//
// Exit codes (docs/OBSERVABILITY.md; the explorer and CI key off them):
//   0  run quiesced with no oracle/audit violation
//   2  usage error (unknown flag / bad value)
//   3  oracle or audit violation
//   4  run hit the time cap without quiescing
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "src/harness/experiment.h"
#include "src/tools/cli.h"
#include "src/trace/trace_auditor.h"
#include "src/trace/trace_sink.h"
#include "src/util/log.h"

using namespace optrec;
using namespace optrec::cli;

int main(int argc, char** argv) {
  tool_name = "optrec_sim";
  ScenarioConfig config;
  config.n = 4;
  config.seed = 1;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(20);
  config.process.checkpoint_interval = millis(100);
  config.enable_oracle = false;

  std::size_t crashes = 0;
  bool concurrent = false;
  std::string value;
  std::size_t partition_split = 0;
  SimTime partition_at = 0;
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
    } else if (parse_flag(arg, "--concurrent", &value)) {
      concurrent = true;
    } else if (parse_flag(arg, "--drop", &value)) {
      config.network.drop_prob = parse_double(value, "--drop");
    } else if (parse_flag(arg, "--fifo", &value)) {
      config.network.fifo = true;
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
    } else if (parse_flag(arg, "--partition", &value)) {
      const auto comma = value.find(',');
      if (comma == std::string::npos) die("--partition wants A,B");
      partition_split = parse_u64(value.substr(0, comma), "--partition");
      partition_at = millis(parse_u64(value.substr(comma + 1), "--partition"));
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

  if (crashes > 0) {
    Rng rng(config.seed * 977 + 3);
    config.failures = FailurePlan::random(rng, config.n, crashes, millis(20),
                                          millis(200), concurrent);
  }
  if (partition_split > 0 && partition_split < config.n) {
    PartitionEvent split;
    split.at = partition_at;
    split.heal_at = partition_at * 4;
    split.groups.resize(2);
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      split.groups[pid < partition_split ? 0 : 1].push_back(pid);
    }
    config.failures.partitions.push_back(split);
  }

  if (!metrics_json) {
    std::printf("protocol=%s workload=%s n=%zu seed=%llu crashes=%zu\n\n",
                protocol_name(config.protocol), config.workload.name().c_str(),
                config.n, (unsigned long long)config.seed, crashes);
  }

  const ExperimentResult result = run_experiment(config);
  const Metrics& m = result.metrics;

  if (!trace_file.empty()) {
    std::ofstream file_out;
    if (trace_file != "-") {
      file_out.open(trace_file, std::ios::binary);
      if (!file_out) die("cannot open trace file '" + trace_file + "'");
    }
    std::ostream& out = trace_file == "-" ? std::cout : file_out;
    if (trace_format == "jsonl") {
      write_trace_jsonl(out, result.trace);
    } else if (trace_format == "chrome") {
      write_trace_chrome(out, result.trace);
    } else {
      write_trace_dot(out, result.trace);
    }
    if (&out == &file_out && !file_out) {
      die("failed writing trace file '" + trace_file + "'");
    }
  }

  bool audit_ok = true;
  if (audit) {
    const AuditReport report = audit_trace(result.trace);
    audit_ok = report.ok();
    if (!metrics_json) std::printf("%s\n", report.summary().c_str());
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "audit !! %s\n", v.c_str());
    }
  }

  // Distinct exit codes: correctness violations (3) vs. a run that never
  // quiesced (4); usage errors exit 2 via die(). See docs/OBSERVABILITY.md.
  const int exit_code = !result.violations.empty() || !audit_ok ? 3
                        : !result.quiesced                      ? 4
                                                                : 0;
  if (metrics_json) {
    const std::string json = result_json(config, result);
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

  std::printf("quiesced                %s (t = %.2f ms simulated)\n",
              result.quiesced ? "yes" : "NO", result.end_time / 1000.0);
  std::printf("messages   sent=%llu delivered=%llu replayed=%llu\n",
              (unsigned long long)m.app_messages_sent,
              (unsigned long long)m.messages_delivered,
              (unsigned long long)m.messages_replayed);
  std::printf("filters    obsolete=%llu duplicate=%llu postponed=%llu\n",
              (unsigned long long)m.messages_discarded_obsolete,
              (unsigned long long)m.messages_discarded_duplicate,
              (unsigned long long)m.messages_postponed);
  std::printf("recovery   crashes=%llu restarts=%llu rollbacks=%llu "
              "(max %llu/proc/failure) lost=%llu\n",
              (unsigned long long)m.crashes, (unsigned long long)m.restarts,
              (unsigned long long)m.rollbacks,
              (unsigned long long)m.max_rollbacks_per_process_per_failure(),
              (unsigned long long)m.messages_lost_in_crash);
  std::printf("blocking   recovery=%.2f ms checkpoint=%.2f ms\n",
              m.recovery_blocked_time / 1000.0,
              m.checkpoint_blocked_time / 1000.0);
  std::printf("storage    checkpoints=%llu flushes=%llu sync-writes=%llu "
              "gc(ckpt=%llu log=%llu)\n",
              (unsigned long long)m.checkpoints_taken,
              (unsigned long long)m.log_flushes,
              (unsigned long long)m.sync_log_writes,
              (unsigned long long)m.gc_checkpoints_reclaimed,
              (unsigned long long)m.gc_log_entries_reclaimed);
  std::printf("wire       piggyback=%.1f B/msg control=%llu tokens=%llu "
              "retransmissions=%llu\n",
              m.piggyback_per_message(),
              (unsigned long long)m.control_messages_sent,
              (unsigned long long)result.net.tokens_sent,
              (unsigned long long)m.retransmissions);
  if (m.outputs_requested > 0) {
    std::printf("outputs    requested=%llu committed=%llu latency=%.2f ms\n",
                (unsigned long long)m.outputs_requested,
                (unsigned long long)m.outputs_committed,
                m.output_commit_latency.mean() / 1000.0);
  }
  if (config.enable_oracle) {
    std::printf("oracle     states=%zu consistency=%s\n", result.oracle_states,
                result.violations.empty() ? "OK" : "VIOLATED");
    for (const auto& v : result.violations) {
      std::printf("  !! %s\n", v.c_str());
    }
  }
  return exit_code;
}
