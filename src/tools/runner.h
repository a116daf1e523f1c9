// The runner front end shared by optrec_sim, optrec_live and optrec_node:
// the flags all three accept (plus the six that only the wall-clock
// backends take), the finish step (trace file, audit, exit code), the
// --metrics-json emitter and result object of a wall-clock run, and the
// summary lines the live and TCP runners print alike. Each tool keeps its
// own flags, defaults and backend calls; the flag table is in README.md,
// "Runner flags".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/harness/failure_plan.h"
#include "src/harness/metrics.h"
#include "src/harness/protocol_factory.h"
#include "src/net/network.h"
#include "src/runtime/process_base.h"
#include "src/telemetry/histogram.h"
#include "src/tools/cli.h"
#include "src/trace/trace_event.h"
#include "src/util/json.h"

namespace optrec::cli {

/// The parsed values of the shared runner flags. Each tool sets its own
/// defaults (flush/checkpoint intervals) before parsing.
struct RunFlags {
  std::size_t n = 4;
  std::uint64_t seed = 1;
  ProtocolKind protocol = ProtocolKind::kDamaniGarg;
  WorkloadSpec workload = default_workload();
  ProcessConfig process;
  std::size_t crashes = 0;
  double drop = 0.0;
  bool oracle = false;
  bool verbose = false;

  // Wall-clock backends only (live, TCP).
  double dup = 0.0;
  std::vector<PartitionEvent> partitions;
  SimTime min_delay = micros(50);
  SimTime max_delay = millis(2);
  SimTime time_cap = millis(15000);

  // Outputs.
  std::string trace_file;
  std::string trace_format = "jsonl";
  bool audit = false;
  bool metrics_json = false;
  std::string metrics_json_file;

  /// --trace and --audit both need the event trace recorded.
  bool traced() const { return audit || !trace_file.empty(); }

  static WorkloadSpec default_workload() {
    WorkloadSpec w;
    w.intensity = 6;
    w.depth = 48;
    w.all_seed = true;
    return w;
  }
};

/// Consume `arg` when it is a shared runner flag. `wall_clock` also accepts
/// --processes, --dup, --partition=SPEC, --min/max-delay-us and
/// --time-cap-ms. False when `arg` is none of them.
bool parse_run_flag(const char* arg, RunFlags& run, bool wall_clock);

/// Checks every backend shares: at least two processes, an ordered delay
/// range, and partition groups naming only ids below `id_limit` (`unit`
/// names the ids in the error: "process" or "node").
void check_run(const RunFlags& run, std::size_t id_limit, const char* unit);

/// `run.crashes` seeded crashes over `run.n` processes (all at one instant
/// when `simultaneous`).
FailurePlan crash_plan(const RunFlags& run, bool simultaneous = false);

/// Copy the shared flags into a wall-clock backend's config (LiveConfig and
/// TcpClusterConfig name these fields alike), crash plan included.
template <class Config>
void apply_wall_clock(const RunFlags& run, Config& config) {
  config.n = run.n;
  config.seed = run.seed;
  config.protocol = run.protocol;
  config.workload = run.workload;
  config.process = run.process;
  config.faults.drop_prob = run.drop;
  config.faults.duplicate_prob = run.dup;
  config.faults.min_delay = run.min_delay;
  config.faults.max_delay = run.max_delay;
  config.faults.partitions = run.partitions;
  config.crashes = crash_plan(run).crashes;
  config.enable_oracle = run.oracle;
  config.enable_trace = run.traced();
  config.time_cap = run.time_cap;
}

/// The "<prefix>protocol=... workload=... n=... seed=... crashes=..." line
/// (plus a blank line) printed before a human-readable run.
void print_banner(const char* prefix, const RunFlags& run,
                  const std::string& extra = "");

/// A finished run as the finish step sees it.
struct RunOutcome {
  bool quiesced = false;
  /// Oracle consistency violations; empty when clean or unchecked.
  std::vector<std::string> violations;
  /// The recorded trace; null when the run was not traced.
  const std::vector<TraceEvent>* events = nullptr;
  /// Exit code of a clean run that ends by design without quiescing (a
  /// serving fleet, one node of a cluster); unset means "4 unless
  /// quiesced".
  std::optional<int> clean_exit;
};

struct RunVerdict {
  int exit_code = 0;
  std::size_t audit_violations = 0;
};

/// Write --trace in --trace-format, replay the trace through the auditor
/// under --audit (summary to stdout unless --metrics-json, violations to
/// stderr), and map the outcome to the exit code: 3 for an oracle or audit
/// violation, else `clean_exit` when set, else 4 without quiescence, else 0.
RunVerdict finish_run(const RunFlags& run, const RunOutcome& outcome);

/// Print `json` to stdout, or to FILE for --metrics-json=FILE.
void emit_metrics_json(const RunFlags& run, const std::string& json);

/// The numbers every wall-clock (live or TCP) result carries.
struct WallClockRun {
  SimTime wall_time = 0;
  const Metrics& metrics;
  const Network::Stats& net;
  const telemetry::FixedHistogram& latency;

  template <class Result>
  static WallClockRun of(const Result& r) {
    return {r.wall_time, r.metrics, r.net, r.delivery_latency_us};
  }
};

using JsonBlocks = std::function<void(JsonWriter&)>;

/// The --metrics-json object of a wall-clock run. `config_extra` adds keys
/// to the "config" block; `blocks` adds the backend's own blocks.
std::string wall_clock_json(const char* backend, const RunFlags& run,
                            const RunOutcome& outcome,
                            const RunVerdict& verdict, const WallClockRun& r,
                            const JsonBlocks& config_extra = {},
                            const JsonBlocks& blocks = {});

/// The "messages" and "filters" summary lines.
void print_message_lines(const Metrics& m);

/// The summary lines a live or TCP run prints alike, headed by `head`.
void print_wall_clock_summary(const char* head, bool quiesced,
                              const WallClockRun& r);

/// The "oracle consistency=" lines when --oracle was given.
void print_oracle_lines(const RunFlags& run,
                        const std::vector<std::string>& violations);

}  // namespace optrec::cli
