// optrec_sim — command-line experiment runner.
//
// Runs one simulated distributed computation under a chosen recovery
// protocol and prints the metrics; the quickest way to poke at the system
// without writing code.
//
//   optrec_sim --protocol=damani-garg --n=6 --workload=bank
//              --crashes=2 --seed=7 --retransmit --verbose
//
// Takes the shared runner flags (README.md, "Runner flags": protocol,
// workload, size, crashes, logging, checks, trace and metrics output) with
// the simulator's defaults --flush-ms=20 --ckpt-ms=100, plus its own:
//   --concurrent       make the --crashes simultaneous
//   --fifo             FIFO channels (default: arbitrary reordering)
//   --partition=A,B    partition {0..A-1} | {A..n-1} from B ms to 4*B ms
//
// Exit codes: the shared runner convention — see "Exit codes" in README.md
// (0 clean, 2 usage, 3 violation, 4 no quiescence).
#include <cstdio>
#include <string>

#include "src/harness/experiment.h"
#include "src/tools/runner.h"

using namespace optrec;
using namespace optrec::cli;

int main(int argc, char** argv) {
  tool_name = "optrec_sim";
  RunFlags run;
  run.process.flush_interval = millis(20);
  run.process.checkpoint_interval = millis(100);
  bool concurrent = false;
  bool fifo = false;
  std::size_t partition_split = 0;
  SimTime partition_at = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_run_flag(arg, run, /*wall_clock=*/false)) continue;
    std::string value;
    if (parse_flag(arg, "--concurrent", &value)) {
      concurrent = true;
    } else if (parse_flag(arg, "--fifo", &value)) {
      fifo = true;
    } else if (parse_flag(arg, "--partition", &value)) {
      const auto comma = value.find(',');
      if (comma == std::string::npos) die("--partition wants A,B");
      partition_split = parse_u64(value.substr(0, comma), "--partition");
      partition_at = millis(parse_u64(value.substr(comma + 1), "--partition"));
      if (partition_split == 0) die("--partition wants A >= 1 in A,B");
    } else {
      die(std::string("unknown flag '") + arg + "' (see README.md)");
    }
  }
  check_run(run, run.n, "process");
  if (partition_split >= run.n) {
    die("--partition=A,B splits at process A, which must be below n = " +
        std::to_string(run.n));
  }

  ScenarioConfig config;
  config.n = run.n;
  config.seed = run.seed;
  config.protocol = run.protocol;
  config.workload = run.workload;
  config.process = run.process;
  config.network.drop_prob = run.drop;
  config.network.fifo = fifo;
  config.enable_oracle = run.oracle;
  config.enable_trace = run.traced();
  config.failures = crash_plan(run, concurrent);
  if (partition_split > 0) {
    PartitionEvent split;
    split.at = partition_at;
    split.heal_at = partition_at * 4;
    split.groups.resize(2);
    for (ProcessId pid = 0; pid < config.n; ++pid) {
      split.groups[pid < partition_split ? 0 : 1].push_back(pid);
    }
    config.failures.partitions.push_back(split);
  }

  if (!run.metrics_json) print_banner("", run);

  const ExperimentResult result = run_experiment(config);
  const Metrics& m = result.metrics;

  RunOutcome outcome;
  outcome.quiesced = result.quiesced;
  outcome.violations = result.violations;
  if (config.enable_trace) outcome.events = &result.trace;
  const int exit_code = finish_run(run, outcome).exit_code;
  if (run.metrics_json) {
    emit_metrics_json(run, result_json(config, result));
    return exit_code;
  }

  std::printf("quiesced                %s (t = %.2f ms simulated)\n",
              result.quiesced ? "yes" : "NO", result.end_time / 1000.0);
  print_message_lines(m);
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
