#include "src/harness/experiment.h"

#include <sstream>

#include "src/telemetry/recovery_timeline.h"
#include "src/util/json.h"

namespace optrec {

double ExperimentResult::delivered_per_sim_second() const {
  if (end_time == 0) return 0.0;
  return static_cast<double>(metrics.messages_delivered) /
         (static_cast<double>(end_time) / 1e6);
}

ExperimentResult run_experiment(const ScenarioConfig& config) {
  Scenario scenario(config);
  ExperimentResult result;
  result.quiesced = scenario.run();
  result.end_time = scenario.sim().now();
  result.metrics = scenario.metrics();
  result.net = scenario.net().stats();
  if (scenario.oracle() != nullptr) {
    result.violations = scenario.oracle()->check_consistency();
    result.oracle_states = scenario.oracle()->state_count();
  }
  if (scenario.trace() != nullptr) {
    result.trace = scenario.trace()->take();
  }
  return result;
}

namespace {
void write_running_stats(JsonWriter& w, const RunningStats& s) {
  w.begin_object();
  w.kv("count", std::uint64_t{s.count()});
  w.kv("mean", s.mean());
  w.kv("min", s.min());
  w.kv("max", s.max());
  w.kv("stddev", s.stddev());
  w.kv("sum", s.sum());
  w.end_object();
}
}  // namespace

void write_metrics_json(JsonWriter& w, const Metrics& m) {
  w.begin_object();
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
  w.kv("sends_suppressed_in_replay", m.sends_suppressed_in_replay);
  w.kv("messages_requeued_after_rollback", m.messages_requeued_after_rollback);
  w.kv("retransmissions", m.retransmissions);
  w.kv("states_rolled_back", m.states_rolled_back);
  w.kv("recovery_blocked_time_us", m.recovery_blocked_time);
  w.kv("checkpoint_blocked_time_us", m.checkpoint_blocked_time);
  w.key("restart_latency_us");
  write_running_stats(w, m.restart_latency);
  w.key("rollback_depth");
  write_running_stats(w, m.rollback_depth);
  w.kv("outputs_requested", m.outputs_requested);
  w.kv("outputs_committed", m.outputs_committed);
  w.key("output_commit_latency_us");
  write_running_stats(w, m.output_commit_latency);
  w.kv("gc_checkpoints_reclaimed", m.gc_checkpoints_reclaimed);
  w.kv("gc_log_entries_reclaimed", m.gc_log_entries_reclaimed);
  w.key("rollbacks_by_failure").begin_array();
  for (const auto& [failure, by_pid] : m.rollbacks_by_failure) {
    w.begin_object();
    w.kv("failed_pid", std::uint64_t{failure.first});
    w.kv("failed_version", std::uint64_t{failure.second});
    w.key("rollbacks_by_pid").begin_object();
    for (const auto& [pid, count] : by_pid) {
      w.kv(std::to_string(pid), count);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string result_json(const ScenarioConfig& config,
                        const ExperimentResult& result) {
  std::ostringstream os;
  JsonWriter w(os);
  const Network::Stats& n = result.net;

  w.begin_object();
  w.key("config").begin_object();
  w.kv("protocol", protocol_name(config.protocol));
  w.kv("n", std::uint64_t{config.n});
  w.kv("seed", config.seed);
  w.kv("crashes_planned", std::uint64_t{config.failures.crashes.size()});
  w.end_object();

  w.kv("quiesced", result.quiesced);
  w.kv("end_time_us", result.end_time);
  w.kv("delivered_per_sim_second", result.delivered_per_sim_second());

  w.key("metrics");
  write_metrics_json(w, result.metrics);

  w.key("network").begin_object();
  w.kv("messages_sent", n.messages_sent);
  w.kv("messages_delivered", n.messages_delivered);
  w.kv("app_messages_sent", n.app_messages_sent);
  w.kv("app_messages_delivered", n.app_messages_delivered);
  w.kv("messages_dropped", n.messages_dropped);
  w.kv("messages_retried", n.messages_retried);
  w.kv("tokens_sent", n.tokens_sent);
  w.kv("tokens_delivered", n.tokens_delivered);
  w.kv("token_broadcasts", n.token_broadcasts);
  w.kv("message_bytes", n.message_bytes);
  w.kv("token_bytes", n.token_bytes);
  w.end_object();

  w.key("oracle").begin_object();
  w.kv("states", std::uint64_t{result.oracle_states});
  w.key("violations").begin_array();
  for (const std::string& v : result.violations) w.value(v);
  w.end_array();
  w.end_object();

  w.kv("trace_events", std::uint64_t{result.trace.size()});
  // Phase-decomposed unavailability per failure — only derivable when the
  // run recorded a trace (docs/OBSERVABILITY.md).
  if (!result.trace.empty()) {
    w.key("recovery_timeline").begin_object();
    telemetry::write_recovery_timeline_fields(
        w, telemetry::analyze_recovery_timeline(result.trace));
    w.end_object();
  }
  w.end_object();
  os << '\n';
  return os.str();
}

}  // namespace optrec
