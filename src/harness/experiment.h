// One-shot experiment runner: build a Scenario, run to quiescence, collect
// the numbers every bench and integration test wants.
#pragma once

#include <string>
#include <vector>

#include "src/harness/scenario.h"

namespace optrec {

class JsonWriter;

struct ExperimentResult {
  bool quiesced = false;
  SimTime end_time = 0;
  Metrics metrics;
  Network::Stats net;
  /// Oracle consistency violations (empty when the surviving global state is
  /// consistent); empty as well when the oracle was disabled.
  std::vector<std::string> violations;
  std::size_t oracle_states = 0;
  /// Structured protocol event trace; populated iff `config.enable_trace`.
  std::vector<TraceEvent> trace;

  /// Wall-clock-free "goodput": app messages delivered (first time, not
  /// replay) per simulated second.
  double delivered_per_sim_second() const;
};

ExperimentResult run_experiment(const ScenarioConfig& config);

/// Write every Metrics field as one JSON object: the "metrics" block that
/// optrec_sim, optrec_live and optrec_node print with --metrics-json.
void write_metrics_json(JsonWriter& w, const Metrics& m);

/// Serialize the full run outcome — Metrics (including RunningStats), network
/// stats, quiescence, oracle verdict — as one JSON object (newline-terminated
/// single line; pipe through `python3 -m json.tool` to pretty-print).
std::string result_json(const ScenarioConfig& config,
                        const ExperimentResult& result);

}  // namespace optrec
