// Trace auditor tests.
//
// Positive direction: seeded Damani-Garg multi-crash runs must audit clean,
// and the counters the auditor recomputes from the trace must agree with
// the Metrics the protocol counted live. Negative direction: the cascading
// baseline must FAIL the <=1-rollback budget (that asymmetry is the whole
// point of Table 1), and hand-built traces must trip each individual check.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/trace/trace_auditor.h"

namespace optrec {
namespace {

ScenarioConfig base_config(ProtocolKind protocol, std::uint64_t seed,
                           std::size_t n, std::size_t crashes) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.n = n;
  config.seed = seed;
  config.workload.kind = WorkloadKind::kCounter;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.enable_oracle = false;
  config.enable_trace = true;
  config.failures = FailurePlan::seeded(seed, n, crashes);
  return config;
}

void expect_counters_match(const AuditReport& report, const Metrics& m) {
  EXPECT_EQ(report.sends, m.app_messages_sent);
  EXPECT_EQ(report.deliveries, m.messages_delivered);
  EXPECT_EQ(report.replays, m.messages_replayed);
  EXPECT_EQ(report.obsolete_discards, m.messages_discarded_obsolete);
  EXPECT_EQ(report.duplicate_discards, m.messages_discarded_duplicate);
  EXPECT_EQ(report.postponements, m.messages_postponed);
  EXPECT_EQ(report.crashes, m.crashes);
  EXPECT_EQ(report.restarts, m.restarts);
  EXPECT_EQ(report.rollbacks, m.rollbacks);
  EXPECT_EQ(report.tokens_processed, m.tokens_processed);
  EXPECT_EQ(report.checkpoints, m.checkpoints_taken);
  EXPECT_EQ(report.max_rollbacks_per_process_per_failure,
            m.max_rollbacks_per_process_per_failure());
}

TEST(TraceAuditorDgTest, MultiCrashRunAuditsClean) {
  for (const std::uint64_t seed : {7u, 11u, 23u}) {
    const ScenarioConfig config =
        base_config(ProtocolKind::kDamaniGarg, seed, 4, 2);
    const ExperimentResult result = run_experiment(config);
    ASSERT_TRUE(result.quiesced);
    ASSERT_GE(result.metrics.crashes, 1u);

    const AuditReport report = audit_trace(result.trace);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    EXPECT_LE(report.max_rollbacks_per_process_per_failure, 1u)
        << "Damani-Garg exceeded the paper's rollback budget";
    expect_counters_match(report, result.metrics);
  }
}

TEST(TraceAuditorDgTest, FullFeatureRunAuditsClean) {
  // Retransmission + stability/output-commit + GC light up every event type.
  ScenarioConfig config = base_config(ProtocolKind::kDamaniGarg, 13, 5, 3);
  config.process.retransmit_on_failure = true;
  config.process.enable_stability_tracking = true;
  config.process.enable_gc = true;
  const ExperimentResult result = run_experiment(config);
  ASSERT_TRUE(result.quiesced);

  const AuditReport report = audit_trace(result.trace);
  EXPECT_TRUE(report.ok()) << report.summary();
  expect_counters_match(report, result.metrics);
}

TEST(TraceAuditorBaselineTest, CascadingFailsRollbackBudget) {
  // FIFO channels + deep dependency chains + two crashes reliably produce
  // the Strom-Yemini domino effect at this seed.
  ScenarioConfig config = base_config(ProtocolKind::kCascading, 1, 6, 2);
  config.network.fifo = true;
  config.workload.depth = 64;
  const ExperimentResult result = run_experiment(config);

  const AuditReport report = audit_trace(result.trace);
  EXPECT_FALSE(report.ok())
      << "expected the cascading baseline to violate the rollback budget";
  EXPECT_GT(report.max_rollbacks_per_process_per_failure, 1u);
  bool saw_budget_violation = false;
  for (const std::string& v : report.violations) {
    if (v.find("rollback budget exceeded") != std::string::npos) {
      saw_budget_violation = true;
    }
  }
  EXPECT_TRUE(saw_budget_violation);
  // The live metrics agree with the trace about how bad it was.
  EXPECT_EQ(report.max_rollbacks_per_process_per_failure,
            result.metrics.max_rollbacks_per_process_per_failure());
}

TEST(TraceAuditorBaselineTest, PessimisticNeverRollsBack) {
  const ScenarioConfig config =
      base_config(ProtocolKind::kPessimistic, 7, 4, 2);
  const ExperimentResult result = run_experiment(config);
  const AuditReport report = audit_trace(result.trace);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.rollbacks, 0u);
}

// --- synthetic traces: each invariant check must actually fire ------------

TraceEvent make(TraceEventType type, ProcessId pid, std::uint64_t seq) {
  TraceEvent e;
  e.type = type;
  e.pid = pid;
  e.seq = seq;
  return e;
}

TEST(TraceAuditorSyntheticTest, EmptyTraceIsClean) {
  const AuditReport report = audit_trace({});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.max_rollbacks_per_process_per_failure, 0u);
}

TEST(TraceAuditorSyntheticTest, DetectsRepeatedRollbackForOneFailure) {
  std::vector<TraceEvent> events;
  TraceEvent broadcast = make(TraceEventType::kTokenBroadcast, 0, 0);
  broadcast.ref = {0, 5};
  broadcast.origin = 0;
  events.push_back(broadcast);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    TraceEvent token = make(TraceEventType::kTokenProcess, 1, 2 * i - 1);
    token.peer = 0;
    token.ref = {0, 5};
    token.origin = 0;
    events.push_back(token);
    TraceEvent rollback = make(TraceEventType::kRollback, 1, 2 * i);
    rollback.peer = 0;
    rollback.ref = {0, 5};
    rollback.origin = 0;
    rollback.origin_ver = 0;
    events.push_back(rollback);
  }
  const AuditReport report = audit_trace(events);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.max_rollbacks_per_process_per_failure, 2u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("rollback budget exceeded"),
            std::string::npos);
}

TEST(TraceAuditorSyntheticTest, DetectsObsoleteDelivery) {
  std::vector<TraceEvent> events;
  // P1 logs a token invalidating P0 states (v0, ts > 3)...
  TraceEvent token = make(TraceEventType::kTokenProcess, 1, 0);
  token.peer = 0;
  token.ref = {0, 3};
  events.push_back(token);
  // ...then delivers a message depending on P0 (v0, ts 7): Lemma 4 broken.
  TraceEvent deliver = make(TraceEventType::kDeliver, 1, 1);
  deliver.peer = 0;
  deliver.msg_id = 9;
  deliver.count = 1;
  deliver.mclock = {{0, 7}, {0, 1}};
  events.push_back(deliver);

  const AuditReport report = audit_trace(events);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("obsolete delivery"), std::string::npos);
}

TEST(TraceAuditorSyntheticTest, DeliveryBeforeTokenIsNotObsolete) {
  // Delivery first, announcement second: the receiver could not have known,
  // so check 2 (obsolete delivery) must NOT fire — but the delivered state
  // is now an orphan, and surviving uncorrected to the end of the trace it
  // trips check 3 instead.
  std::vector<TraceEvent> events;
  TraceEvent deliver = make(TraceEventType::kDeliver, 1, 0);
  deliver.peer = 0;
  deliver.msg_id = 9;
  deliver.count = 1;
  deliver.mclock = {{0, 7}, {0, 1}};
  events.push_back(deliver);
  TraceEvent broadcast = make(TraceEventType::kTokenBroadcast, 0, 1);
  broadcast.ref = {0, 3};
  events.push_back(broadcast);

  const AuditReport report = audit_trace(events);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("orphan state survived"),
            std::string::npos);
}

TEST(TraceAuditorSyntheticTest, RollbackExtinguishesOrphan) {
  // As above, but P1 processes the token and rolls back past the orphaned
  // delivery before the trace ends: all checks green.
  std::vector<TraceEvent> events;
  TraceEvent deliver = make(TraceEventType::kDeliver, 1, 0);
  deliver.peer = 0;
  deliver.msg_id = 9;
  deliver.count = 1;
  deliver.mclock = {{0, 7}, {0, 1}};
  events.push_back(deliver);
  TraceEvent broadcast = make(TraceEventType::kTokenBroadcast, 0, 1);
  broadcast.ref = {0, 3};
  events.push_back(broadcast);
  TraceEvent token = make(TraceEventType::kTokenProcess, 1, 2);
  token.peer = 0;
  token.ref = {0, 3};
  events.push_back(token);
  TraceEvent rollback = make(TraceEventType::kRollback, 1, 3);
  rollback.peer = 0;
  rollback.ref = {0, 3};
  rollback.origin = 0;
  rollback.count = 0;  // nothing survives
  events.push_back(rollback);

  const AuditReport report = audit_trace(events);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(TraceAuditorSyntheticTest, CrashExtinguishesVolatileOrphan) {
  // The orphaned delivery was never logged (crash count = 0 recoverable), so
  // the crash itself removes it.
  std::vector<TraceEvent> events;
  TraceEvent deliver = make(TraceEventType::kDeliver, 1, 0);
  deliver.peer = 0;
  deliver.msg_id = 9;
  deliver.count = 1;
  deliver.mclock = {{0, 7}, {0, 1}};
  events.push_back(deliver);
  TraceEvent broadcast = make(TraceEventType::kTokenBroadcast, 0, 1);
  broadcast.ref = {0, 3};
  events.push_back(broadcast);
  TraceEvent crash = make(TraceEventType::kCrash, 1, 2);
  crash.count = 0;
  events.push_back(crash);
  events.push_back(make(TraceEventType::kRestart, 1, 3));

  const AuditReport report = audit_trace(events);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(TraceAuditorSyntheticTest, DetectsRollbackWithoutToken) {
  TraceEvent rollback = make(TraceEventType::kRollback, 1, 0);
  rollback.peer = 0;  // claims a token from P0 it never processed
  rollback.ref = {0, 3};
  rollback.origin = 0;
  const AuditReport report = audit_trace({rollback});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("rollback without token"),
            std::string::npos);
}

TEST(TraceAuditorSyntheticTest, DetectsUnrecoveredCrashAndStrayRestart) {
  const AuditReport crashed =
      audit_trace({make(TraceEventType::kCrash, 2, 0)});
  ASSERT_EQ(crashed.violations.size(), 1u);
  EXPECT_NE(crashed.violations[0].find("ended the trace crashed"),
            std::string::npos);

  const AuditReport stray =
      audit_trace({make(TraceEventType::kRestart, 2, 0)});
  ASSERT_EQ(stray.violations.size(), 1u);
  EXPECT_NE(stray.violations[0].find("restart without crash"),
            std::string::npos);
}

TEST(TraceAuditorSyntheticTest, SummaryReflectsVerdict) {
  AuditReport report = audit_trace({});
  EXPECT_NE(report.summary().find("audit: OK"), std::string::npos);
  report.violations.push_back("x");
  EXPECT_NE(report.summary().find("audit: VIOLATED"), std::string::npos);
}

}  // namespace
}  // namespace optrec
