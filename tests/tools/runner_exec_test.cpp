// Runs the real optrec_sim, optrec_live and optrec_node binaries and checks
// what scripts and CI key off: the simulator's --metrics-json bytes, the
// key paths of the wall-clock runners' --metrics-json, and the exit codes
// (2 usage, 3 violation, 4 time cap). The goldens under tests/tools/golden/
// were printed by the runners before they shared one front end.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace optrec {
namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string output;
};

/// Run `bin args` through the shell; `output` is its stdout (plus stderr
/// when `merge_stderr`, which is discarded otherwise).
ToolRun run_tool(const std::string& bin, const std::string& args,
             bool merge_stderr = false) {
  const std::string cmd =
      bin + " " + args + (merge_stderr ? " 2>&1" : " 2>/dev/null");
  ToolRun r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, got);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

/// The non-comment lines of a golden file.
std::vector<std::string> golden_lines(const std::string& name) {
  std::ifstream in(std::string(OPTREC_RUNNER_GOLDEN_DIR) + "/" + name);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

void collect_paths(const JsonValue& v, const std::string& prefix,
                   std::set<std::string>& out) {
  if (v.kind() == JsonValue::Kind::kObject) {
    for (const auto& [key, child] : v.as_object()) {
      const std::string path = prefix.empty() ? key : prefix + "." + key;
      out.insert(path);
      collect_paths(child, path, out);
    }
  } else if (v.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& child : v.as_array()) {
      collect_paths(child, prefix + "[]", out);
    }
  }
}

/// Every key path the golden lists must appear in `bin`'s --metrics-json.
void expect_golden_keys(const std::string& bin, const std::string& golden) {
  const std::vector<std::string> lines = golden_lines(golden);
  ASSERT_GE(lines.size(), 2u) << golden;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("optrec_runner_keys_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string args = lines[0];
  const std::size_t at = args.find("DIR");
  if (at != std::string::npos) args.replace(at, 3, (dir / "data").string());

  const ToolRun r = run_tool(bin, args + " --metrics-json");
  fs::remove_all(dir);
  ASSERT_EQ(r.exit_code, 0) << args;
  std::set<std::string> paths;
  collect_paths(JsonValue::parse(r.output), "", paths);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(paths.count(lines[i]) == 1) << "missing key " << lines[i];
  }
}

TEST(RunnerExec, SimMetricsJsonIsByteIdentical) {
  const std::vector<std::string> lines =
      golden_lines("optrec_sim_metrics.txt");
  ASSERT_EQ(lines.size(), 8u);
  for (std::size_t i = 0; i + 1 < lines.size(); i += 2) {
    const ToolRun r = run_tool(OPTREC_SIM_BIN, lines[i] + " --metrics-json");
    EXPECT_EQ(r.exit_code, 0) << lines[i];
    EXPECT_EQ(r.output, lines[i + 1] + "\n") << lines[i];
  }
}

TEST(RunnerExec, SimAuditViolationExitsThree) {
  EXPECT_EQ(run_tool(OPTREC_SIM_BIN,
                "--protocol=cascading --crashes=2 --seed=1 --audit")
                .exit_code,
            3);
}

TEST(RunnerExec, WallClockTimeCapExitsFour) {
  const std::string args = "--depth=100000 --intensity=50 --time-cap-ms=300";
  EXPECT_EQ(run_tool(OPTREC_LIVE_BIN, args).exit_code, 4);
  EXPECT_EQ(run_tool(OPTREC_NODE_BIN, args).exit_code, 4);
}

TEST(RunnerExec, LiveMetricsJsonKeepsEveryKey) {
  expect_golden_keys(OPTREC_LIVE_BIN, "optrec_live_keys.txt");
}

TEST(RunnerExec, NodeMetricsJsonKeepsEveryKey) {
  expect_golden_keys(OPTREC_NODE_BIN, "optrec_node_keys.txt");
}

/// A config the backend cannot run is a usage error: exit 2 with a
/// "<tool>: " message, never an abort and never a silent run.
void expect_usage_error(const std::string& bin, const std::string& tool,
                        const std::string& args, const std::string& says) {
  const ToolRun r = run_tool(bin, args, /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 2) << tool << " " << args << "\n" << r.output;
  EXPECT_NE(r.output.find(tool + ": "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(says), std::string::npos) << r.output;
}

TEST(RunnerExec, SimTooFewProcessesExitsTwo) {
  expect_usage_error(OPTREC_SIM_BIN, "optrec_sim", "--n=1", "n must be >= 2");
}

TEST(RunnerExec, LiveTooFewProcessesExitsTwo) {
  expect_usage_error(OPTREC_LIVE_BIN, "optrec_live", "--n=0",
                     "n must be >= 2");
}

TEST(RunnerExec, NodePartitionNamingUnknownNodeExitsTwo) {
  expect_usage_error(OPTREC_NODE_BIN, "optrec_node",
                     "--n=3 --tcp-nodes=2 --partition=10:50:0/7",
                     "unknown node 7");
}

TEST(RunnerExec, LivePartitionNamingUnknownProcessExitsTwo) {
  expect_usage_error(OPTREC_LIVE_BIN, "optrec_live",
                     "--n=4 --partition=10:50:0,1/9", "unknown process 9");
}

TEST(RunnerExec, SimPartitionSplitPastLastProcessExitsTwo) {
  expect_usage_error(OPTREC_SIM_BIN, "optrec_sim", "--n=4 --partition=4,50",
                     "must be below n = 4");
}

}  // namespace
}  // namespace optrec
