// Tests for the experiment harness itself: failure plans, the scenario
// quiescence detector, the metrics helpers, the table printer — plus a
// parameterized cross-protocol sanity sweep.
#include <gtest/gtest.h>

#include <sstream>

#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"

namespace optrec {
namespace {

TEST(FailurePlanTest, SingleCrash) {
  const auto plan = FailurePlan::single(2, millis(40));
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].pid, 2u);
  EXPECT_EQ(plan.crashes[0].at, millis(40));
}

TEST(FailurePlanTest, RandomPlanWithinWindow) {
  Rng rng(5);
  const auto plan = FailurePlan::random(rng, 6, 10, millis(10), millis(90));
  ASSERT_EQ(plan.crashes.size(), 10u);
  SimTime prev = 0;
  for (const auto& c : plan.crashes) {
    EXPECT_LT(c.pid, 6u);
    EXPECT_GE(c.at, millis(10));
    EXPECT_LE(c.at, millis(90));
    EXPECT_GE(c.at, prev) << "crashes sorted by time";
    prev = c.at;
  }
}

TEST(FailurePlanTest, ConcurrentPlanSharesInstant) {
  Rng rng(7);
  const auto plan =
      FailurePlan::random(rng, 4, 3, millis(10), millis(90), true);
  ASSERT_EQ(plan.crashes.size(), 3u);
  EXPECT_EQ(plan.crashes[0].at, plan.crashes[1].at);
  EXPECT_EQ(plan.crashes[1].at, plan.crashes[2].at);
}

// perfbench/src/crash_sim.cpp keeps its own copy of the seeded draw (two
// simultaneous crashes, then two apart, n = 8); these are the plans that
// copy draws for four unit seeds. The shared helper must draw the same.
TEST(FailurePlanTest, SeededPlanMatchesTheBenchmarkDraw) {
  const std::vector<std::pair<std::uint64_t, std::vector<CrashEvent>>> golden =
      {{1, {{90248, 7}, {90248, 1}, {104751, 6}, {132856, 2}}},
       {7, {{71254, 4}, {153809, 6}, {186598, 0}, {186598, 0}}},
       {1000003, {{37920, 6}, {111115, 0}, {193426, 1}, {193426, 5}}},
       {2000013, {{30522, 7}, {30522, 1}, {140804, 1}, {170871, 5}}}};
  for (const auto& [seed, crashes] : golden) {
    const FailurePlan plan = FailurePlan::seeded(seed, 8, 2, 2);
    ASSERT_EQ(plan.crashes.size(), crashes.size()) << "seed " << seed;
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      EXPECT_EQ(plan.crashes[i].at, crashes[i].at) << "seed " << seed;
      EXPECT_EQ(plan.crashes[i].pid, crashes[i].pid) << "seed " << seed;
    }
  }
}

TEST(FailurePlanTest, SeededSimultaneousCrashesShareOneInstant) {
  const FailurePlan plan = FailurePlan::seeded(11, 6, 0, 3);
  ASSERT_EQ(plan.crashes.size(), 3u);
  for (const CrashEvent& c : plan.crashes) {
    EXPECT_EQ(c.at, plan.crashes[0].at);
    EXPECT_GE(c.at, millis(20));
    EXPECT_LE(c.at, millis(200));
  }
  EXPECT_TRUE(FailurePlan::seeded(11, 6, 0).crashes.empty());
}

TEST(FailurePlanTest, EmptyPlans) {
  Rng rng(9);
  EXPECT_TRUE(FailurePlan::random(rng, 0, 5, 0, 1).crashes.empty());
  EXPECT_TRUE(FailurePlan::random(rng, 4, 0, 0, 1).crashes.empty());
  EXPECT_TRUE(FailurePlan::none().crashes.empty());
}

TEST(MetricsTest, RollbackAttribution) {
  Metrics m;
  m.count_rollback({1, 0}, 2);
  m.count_rollback({1, 0}, 3);
  m.count_rollback({1, 0}, 3);  // P3 rolled back twice for the same failure
  m.count_rollback({4, 2}, 0);
  EXPECT_EQ(m.rollbacks, 4u);
  EXPECT_EQ(m.max_rollbacks_per_process_per_failure(), 2u);
}

TEST(MetricsTest, PiggybackAverage) {
  Metrics m;
  EXPECT_EQ(m.piggyback_per_message(), 0.0);
  m.app_messages_sent = 4;
  m.piggyback_bytes = 100;
  EXPECT_DOUBLE_EQ(m.piggyback_per_message(), 25.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long-header", "c"});
  table.add_row({"xxxxxx", "1", "2"});
  table.add_row({"y"});  // short rows padded
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx"), std::string::npos);
  // Every line of the body is at least as wide as the widest row.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

TEST(ScenarioTest, RejectsTooFewProcesses) {
  ScenarioConfig config;
  config.n = 1;
  EXPECT_THROW(Scenario scenario(config), std::invalid_argument);
}

TEST(ScenarioTest, DgAccessorChecksProtocol) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kPessimistic;
  Scenario scenario(config);
  EXPECT_THROW(scenario.dg(0), std::logic_error);
}

TEST(ScenarioTest, RunForAllowsMidRunInspection) {
  ScenarioConfig config;
  config.workload.intensity = 4;
  config.workload.depth = 64;
  Scenario scenario(config);
  scenario.run_for(millis(5));
  const auto early = scenario.metrics().messages_delivered;
  scenario.run_for(millis(200));
  EXPECT_GT(scenario.metrics().messages_delivered, early);
}

TEST(ScenarioTest, TimeCapReportsNonQuiescence) {
  ScenarioConfig config;
  config.workload.intensity = 8;
  config.workload.depth = 2000;  // far more work than the cap allows
  config.workload.all_seed = true;
  config.time_cap = millis(50);
  Scenario scenario(config);
  EXPECT_FALSE(scenario.run());
}

TEST(ExperimentTest, GoodputComputation) {
  ExperimentResult result;
  result.end_time = seconds(2);
  result.metrics.messages_delivered = 500;
  EXPECT_DOUBLE_EQ(result.delivered_per_sim_second(), 250.0);
}

// Parameterized cross-protocol smoke sweep: every protocol must quiesce
// consistently on every workload, failure-free.
struct ProtocolWorkload {
  ProtocolKind protocol;
  WorkloadKind workload;
};

class CrossProtocolSweep : public ::testing::TestWithParam<ProtocolWorkload> {};

TEST_P(CrossProtocolSweep, FailureFreeQuiescesConsistently) {
  const auto& p = GetParam();
  ScenarioConfig config;
  config.protocol = p.protocol;
  config.workload.kind = p.workload;
  config.workload.intensity = 3;
  config.workload.depth = 16;
  config.seed = 99;
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_GT(result.metrics.messages_delivered, 0u);
}

std::vector<ProtocolWorkload> cross_product() {
  std::vector<ProtocolWorkload> out;
  for (ProtocolKind protocol :
       {ProtocolKind::kDamaniGarg, ProtocolKind::kPessimistic,
        ProtocolKind::kCoordinated, ProtocolKind::kSenderBased,
        ProtocolKind::kCascading, ProtocolKind::kPetersonKearns,
        ProtocolKind::kPlain}) {
    for (WorkloadKind workload :
         {WorkloadKind::kCounter, WorkloadKind::kPingPong, WorkloadKind::kBank,
          WorkloadKind::kGossip}) {
      out.push_back({protocol, workload});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CrossProtocolSweep, ::testing::ValuesIn(cross_product()),
    [](const ::testing::TestParamInfo<ProtocolWorkload>& info) {
      WorkloadSpec spec;
      spec.kind = info.param.workload;
      std::string name = protocol_name(info.param.protocol);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + spec.name();
    });

}  // namespace
}  // namespace optrec
