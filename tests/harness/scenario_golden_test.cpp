// Golden test: seeded simulator runs emit byte-identical metrics JSON.
//
// The simulator is deterministic for a given config and seed, so any change
// to what a run emits is a behaviour change. Every protocol runs at two
// seeds under a crash schedule (the no-recovery reference runs failure-free),
// plus Damani-Garg with crashes, Remark-1 retransmission and Remark-2
// stability + GC on. Each run's result_json line must match the committed
// file tests/harness/golden/scenario_metrics.jsonl exactly.
//
// After an intended behaviour change, the test writes the lines it got to
// scenario_metrics.actual.jsonl in its working directory; review the diff
// and copy that file over the golden one.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace optrec {
namespace {

ScenarioConfig golden_config(ProtocolKind protocol, std::uint64_t seed) {
  ScenarioConfig config;
  config.n = 4;
  config.seed = seed;
  config.protocol = protocol;
  config.workload.kind = WorkloadKind::kCounter;
  config.workload.intensity = 4;
  config.workload.depth = 32;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(20);
  config.process.checkpoint_interval = millis(100);
  // Peterson-Kearns assumes FIFO channels.
  config.network.fifo = protocol == ProtocolKind::kPetersonKearns;
  if (protocol != ProtocolKind::kPlain) {
    config.failures.crashes = {{millis(30), 1}, {millis(70), 3}};
  }
  return config;
}

std::vector<ScenarioConfig> golden_configs() {
  std::vector<ScenarioConfig> configs;
  for (ProtocolKind protocol :
       {ProtocolKind::kDamaniGarg, ProtocolKind::kPessimistic,
        ProtocolKind::kCoordinated, ProtocolKind::kSenderBased,
        ProtocolKind::kCascading, ProtocolKind::kPetersonKearns,
        ProtocolKind::kPlain}) {
    for (std::uint64_t seed : {1, 2}) {
      configs.push_back(golden_config(protocol, seed));
    }
  }
  for (std::uint64_t seed : {3, 4}) {
    ScenarioConfig config = golden_config(ProtocolKind::kDamaniGarg, seed);
    config.failures.crashes = {{millis(30), 1}, {millis(30), 2},
                               {millis(90), 0}};
    config.network.drop_prob = 0.05;
    config.process.retransmit_on_failure = true;
    config.process.enable_stability_tracking = true;
    config.process.stability_gossip_interval = millis(20);
    config.process.enable_gc = true;
    configs.push_back(config);
  }
  return configs;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ScenarioGolden, SeededMetricsJsonIsByteIdentical) {
  std::vector<std::string> actual;
  for (const ScenarioConfig& config : golden_configs()) {
    std::string line = result_json(config, run_experiment(config));
    if (!line.empty() && line.back() == '\n') line.pop_back();
    actual.push_back(std::move(line));
  }
  const std::vector<std::string> golden =
      read_lines(OPTREC_GOLDEN_DIR "/scenario_metrics.jsonl");

  bool same = golden.size() == actual.size();
  for (std::size_t i = 0; same && i < golden.size(); ++i) {
    same = golden[i] == actual[i];
  }
  if (!same) {
    std::ofstream out("scenario_metrics.actual.jsonl");
    for (const std::string& line : actual) out << line << '\n';
  }
  ASSERT_EQ(golden.size(), actual.size())
      << "wrote scenario_metrics.actual.jsonl";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i], actual[i])
        << "run " << i << " differs; wrote scenario_metrics.actual.jsonl";
  }
}

}  // namespace
}  // namespace optrec
