// optrec_live — live multi-threaded experiment runner.
//
// Runs one REAL distributed computation: each process is an OS thread, the
// traffic is wire-encoded frames over in-process MPSC channels, delays and
// crashes happen in wall time. Same protocols, same workloads, same
// post-hoc validation (causality oracle + trace auditor) as optrec_sim.
//
//   optrec_live --protocol=dg --processes=8 --crashes=2 --oracle --audit
//
// Takes the shared runner flags and the wall-clock flags (README.md,
// "Runner flags") with the wall-clock defaults --flush-ms=10 --ckpt-ms=50;
// --partition groups name process ids. It has no flags of its own.
//
// Exit codes: the shared runner convention — see "Exit codes" in README.md
// (0 clean, 2 usage, 3 violation, 4 time cap).
//
// Note: the live runtime is non-FIFO by construction, so protocols that
// assume FIFO channels (peterson-kearns) are not meaningful here.
#include <cstdio>
#include <string>

#include "src/live/live_runtime.h"
#include "src/tools/runner.h"

using namespace optrec;
using namespace optrec::cli;

int main(int argc, char** argv) {
  tool_name = "optrec_live";
  RunFlags run;
  run.process.flush_interval = millis(10);
  run.process.checkpoint_interval = millis(50);
  for (int i = 1; i < argc; ++i) {
    if (!parse_run_flag(argv[i], run, /*wall_clock=*/true)) {
      die(std::string("unknown flag '") + argv[i] + "' (see README.md)");
    }
  }
  check_run(run, run.n, "process");
  LiveConfig config;
  apply_wall_clock(run, config);

  if (!run.metrics_json) print_banner("live: ", run);

  LiveRuntime runtime(config);
  const LiveResult result = runtime.run();

  RunOutcome outcome;
  outcome.quiesced = result.quiesced;
  if (runtime.oracle() != nullptr) {
    outcome.violations = runtime.oracle()->check_consistency();
  }
  if (runtime.trace() != nullptr) outcome.events = &runtime.trace()->events();
  const RunVerdict verdict = finish_run(run, outcome);
  const WallClockRun report = WallClockRun::of(result);
  if (run.metrics_json) {
    emit_metrics_json(run,
                      wall_clock_json("live", run, outcome, verdict, report));
    return verdict.exit_code;
  }
  print_wall_clock_summary("live", result.quiesced, report);
  print_oracle_lines(run, outcome.violations);
  return verdict.exit_code;
}
