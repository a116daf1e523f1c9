// Trace sink tests: JSONL lossless round-trip, golden-stable chrome/DOT
// exports, and structural checks on each format.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/harness/experiment.h"
#include "src/trace/trace_sink.h"
#include "src/util/json.h"

namespace optrec {
namespace {

ScenarioConfig traced_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.n = 4;
  config.seed = seed;
  config.workload.kind = WorkloadKind::kCounter;
  config.workload.intensity = 4;
  config.workload.depth = 24;
  config.workload.all_seed = true;
  config.enable_oracle = false;
  config.enable_trace = true;
  config.failures = FailurePlan::seeded(seed, config.n, 2, 0, millis(120));
  return config;
}

TEST(TraceJsonlTest, RealRunRoundTripsLosslessly) {
  const ExperimentResult result = run_experiment(traced_config(7));
  ASSERT_FALSE(result.trace.empty());

  std::ostringstream os;
  write_trace_jsonl(os, result.trace);
  std::istringstream is(os.str());
  const auto reread = read_trace_jsonl(is);

  ASSERT_EQ(reread.size(), result.trace.size());
  for (std::size_t i = 0; i < reread.size(); ++i) {
    ASSERT_EQ(reread[i], result.trace[i]) << "event #" << i << " diverged: "
                                          << result.trace[i].describe();
  }
}

TEST(TraceJsonlTest, AllFieldsSurviveRoundTrip) {
  // A synthetic event exercising every field, including values the writer
  // normally omits as defaults.
  TraceEvent e;
  e.seq = 3;
  e.at = micros(1234567);
  e.type = TraceEventType::kRollback;
  e.pid = 2;
  e.clock = {4, 99};
  e.peer = 1;
  e.msg_id = 77;
  e.send_seq = 11;
  e.msg_version = 5;
  e.ref = {3, 42};
  e.origin = 0;
  e.origin_ver = 6;
  e.count = 1000;
  e.detail = 13;
  e.mclock = {{0, 0}, {1, 2}, {4, 99}};

  std::ostringstream os;
  write_trace_jsonl(os, {e, TraceEvent{}});
  std::istringstream is(os.str());
  const auto reread = read_trace_jsonl(is);
  ASSERT_EQ(reread.size(), 2u);
  EXPECT_EQ(reread[0], e);
  EXPECT_EQ(reread[1], TraceEvent{});
}

TEST(TraceJsonlTest, MalformedLineThrows) {
  std::istringstream is("{\"seq\":0,\"t\":0,\"type\":\"send\"\n");
  EXPECT_THROW(read_trace_jsonl(is), std::runtime_error);
  std::istringstream bad_type(
      "{\"seq\":0,\"t\":0,\"type\":\"warp\",\"pid\":0,\"v\":0,\"ts\":0}\n");
  EXPECT_THROW(read_trace_jsonl(bad_type), std::runtime_error);
}

TEST(TraceSinkGoldenTest, IdenticalRunsExportByteIdentically) {
  const ExperimentResult a = run_experiment(traced_config(11));
  const ExperimentResult b = run_experiment(traced_config(11));
  ASSERT_EQ(a.trace, b.trace) << "simulation itself is not deterministic";

  std::ostringstream ja, jb, ca, cb, da, db;
  write_trace_jsonl(ja, a.trace);
  write_trace_jsonl(jb, b.trace);
  EXPECT_EQ(ja.str(), jb.str());
  write_trace_chrome(ca, a.trace);
  write_trace_chrome(cb, b.trace);
  EXPECT_EQ(ca.str(), cb.str());
  write_trace_dot(da, a.trace);
  write_trace_dot(db, b.trace);
  EXPECT_EQ(da.str(), db.str());
}

TEST(TraceChromeTest, EmitsValidJsonWithPerProcessTracks) {
  const ExperimentResult result = run_experiment(traced_config(7));
  std::ostringstream os;
  write_trace_chrome(os, result.trace);

  const JsonValue doc = JsonValue::parse(os.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->as_array().empty());

  std::size_t name_tracks = 0;
  std::size_t instants = 0;
  std::size_t flows = 0;
  std::size_t downtime = 0;
  for (const JsonValue& ev : events->as_array()) {
    const std::string& ph = ev.find("ph")->as_string();
    if (ph == "M") {
      if (ev.find("name")->as_string() == "thread_name") ++name_tracks;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "s" || ph == "f") {
      ++flows;
    } else if (ph == "X") {
      ++downtime;
    }
  }
  EXPECT_EQ(name_tracks, 4u) << "one named track per process";
  EXPECT_GT(instants, 0u);
  EXPECT_GT(flows, 0u);
  EXPECT_GT(downtime, 0u) << "two crashes should produce downtime slices";
}

TEST(TraceDotTest, SpaceTimeDiagramStructure) {
  const ExperimentResult result = run_experiment(traced_config(7));
  std::ostringstream os;
  write_trace_dot(os, result.trace);
  const std::string dot = os.str();

  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (int p = 0; p < 4; ++p) {
    EXPECT_NE(dot.find("subgraph cluster_p" + std::to_string(p)),
              std::string::npos)
        << "missing lane for P" << p;
  }
  // Crashes (tag 'F') are drawn, and every brace closes.
  EXPECT_NE(dot.find("[label=\"F ("), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(TraceDisabledTest, NoEventsWithoutOptIn) {
  ScenarioConfig config = traced_config(7);
  config.enable_trace = false;
  const ExperimentResult result = run_experiment(config);
  EXPECT_TRUE(result.trace.empty());
}

}  // namespace
}  // namespace optrec
