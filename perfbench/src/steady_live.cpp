// steady_live: the failure-free data plane of the threaded live runtime.
//
// Four worker threads run Damani-Garg on the counter workload with every
// process seeding, a closed loop of intensity x n jobs, zero injected delay,
// and retransmission and garbage collection off. Each unit is one
// LiveRuntime run to quiescence; the run repeats units until its time is up
// and reports medians over them.
#include <algorithm>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "src/core/dg_process.h"
#include "src/live/live_runtime.h"
#include "src/trace/trace_auditor.h"
#include "src/wire/frame_buf.h"

namespace perfbench {

using namespace optrec;

namespace {

struct UnitResult {
  LiveResult result;
  double setup_s = 0;
  double cpu_s = 0;  // process CPU seconds spent in LiveRuntime::run
};

LiveConfig unit_config(const Options& opts, std::uint64_t unit,
                       ProtocolKind protocol) {
  LiveConfig c;
  c.n = 4;
  c.seed = opts.seed * 1000003 + unit;
  c.protocol = protocol;
  c.workload.kind = WorkloadKind::kCounter;
  c.workload.all_seed = true;
  c.workload.intensity = 8;
  c.workload.depth = opts.tiny ? 200 : 4000;
  c.faults.min_delay = 0;
  c.faults.max_delay = 0;
  c.process.flush_interval = millis(10);
  c.process.checkpoint_interval = millis(50);
  c.enable_oracle = false;
  c.enable_trace = false;
  c.time_cap = seconds(60);
  // The supervisor polls for quiescence once per settle slice, so the
  // measured wall time overshoots the last delivery by one to two slices.
  c.settle_slice = millis(2);
  return c;
}

std::uint64_t expected_deliveries(const LiveConfig& c, const Options& opts) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(c.n * c.workload.intensity *
                                (std::uint64_t{c.workload.depth} + 1)) +
      opts.expect_delta);
}

void check_deliveries(const LiveConfig& c, const LiveResult& r,
                      const Options& opts, Outcome& out) {
  const std::uint64_t expected = expected_deliveries(c, opts);
  out.check(r.quiesced && r.metrics.messages_delivered == expected,
            std::string("steady_live ") + protocol_name(c.protocol) +
                " seed " + std::to_string(c.seed) +
                ": quiesced=" + std::to_string(r.quiesced) + " delivered=" +
                std::to_string(r.metrics.messages_delivered) +
                " expected=" + std::to_string(expected));
}

UnitResult run_unit(const LiveConfig& config, const Options& opts,
                    Outcome& out) {
  UnitResult u;
  const double t0 = now_s();
  LiveRuntime runtime(config);
  u.setup_s = now_s() - t0;
  const double c0 = cpu_seconds();
  u.result = runtime.run();
  u.cpu_s = cpu_seconds() - c0;
  check_deliveries(config, u.result, opts, out);
  return u;
}

}  // namespace

Outcome run_steady_live(const Options& opts, SpanRecorder* spans) {
  Outcome out;
  const LiveConfig base = unit_config(opts, 0, ProtocolKind::kDamaniGarg);
  out.config = {{"backend", "live"},
                {"protocol", "damani-garg"},
                {"n", std::to_string(base.n)},
                {"workers", std::to_string(base.n)},
                {"workload", "counter, all processes seed"},
                {"intensity", std::to_string(base.workload.intensity)},
                {"depth", std::to_string(base.workload.depth)},
                {"injected_delay_us", "0"},
                {"flush_ms", "10"},
                {"checkpoint_ms", "50"},
                {"retransmit", "off"},
                {"gc", "off"},
                {"expected_deliveries_per_unit",
                 std::to_string(expected_deliveries(base, opts))}};

  // Untraced units. The traced invocation spends half its time here and
  // alternates with the `none` protocol for the failure-free overhead ratio.
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const double deadline = now_s() + budget;
  std::vector<UnitResult> dg, none;
  std::uint64_t unit = 0;
  do {
    dg.push_back(
        run_unit(unit_config(opts, unit, ProtocolKind::kDamaniGarg), opts, out));
    if (opts.trace) {
      none.push_back(
          run_unit(unit_config(opts, unit, ProtocolKind::kPlain), opts, out));
    }
    ++unit;
  } while (now_s() < deadline);

  Percentiles setup, rate, cpu, p50, p99;
  for (const UnitResult& u : dg) {
    setup.add(u.setup_s);
    rate.add(static_cast<double>(u.result.metrics.messages_delivered) /
             u.cpu_s);
    cpu.add(u.cpu_s);
    p50.add(u.result.delivery_latency_us.percentile(0.5) / 1e3);
    p99.add(u.result.delivery_latency_us.percentile(0.99) / 1e3);
  }
  out.config["units"] = std::to_string(dg.size());
  if (!opts.trace) {
    out.set("setup_s", setup.median(), "s");
    out.set("deliveries_per_cpu_s", rate.median(), "1/s");
    return out;
  }

  // Send-to-handler delivery latency, medians over the untraced units.
  out.set("e2e.latency_p50_ms", p50.median(), "ms");
  out.set("e2e.latency_p99_ms", p99.median(), "ms");
  Percentiles none_cpu;
  for (const UnitResult& u : none) none_cpu.add(u.cpu_s);
  out.set("core.overhead_vs_none", cpu.median() / none_cpu.median(), "x");

  // Traced run: unit 0 again with the trace recorder and the oracle on.
  ScopedSpan root(spans, "traced_run");
  LiveConfig traced = unit_config(opts, 0, ProtocolKind::kDamaniGarg);
  traced.enable_trace = true;
  traced.enable_oracle = true;
  LiveRuntime runtime(traced);
  const FramePool::Stats pool0 = FramePool::global().stats();
  LiveResult r;
  double traced_cpu = 0;
  {
    ScopedSpan s(spans, "runtime");
    const double c0 = cpu_seconds();
    r = runtime.run();
    traced_cpu = cpu_seconds() - c0;
  }
  const FramePool::Stats pool1 = FramePool::global().stats();
  check_deliveries(traced, r, opts, out);
  {
    ScopedSpan s(spans, "trace");
    const auto violations = runtime.oracle()->check_consistency();
    out.check(violations.empty(),
              "steady_live traced run: oracle " +
                  (violations.empty() ? std::string() : violations.front()));
    const AuditReport audit = audit_trace(runtime.trace()->events());
    out.check(audit.ok(), "steady_live traced run: audit " +
                              (audit.ok() ? std::string()
                                          : audit.violations.front()));
  }

  const std::vector<TraceEvent>& events = runtime.trace()->events();
  LayerLedger ledger;
  const std::vector<Delivery> deliveries = captured_deliveries(events, traced.n);
  time_clocks(deliveries, traced.n, ledger, spans);
  time_history(
      deliveries,
      [&runtime](ProcessId pid) -> const History* {
        auto* p = dynamic_cast<DamaniGargProcess*>(&runtime.process(pid));
        return p == nullptr ? nullptr : &p->history();
      },
      traced.n, ledger, spans);
  const Metrics& m = r.metrics;
  const std::size_t payload =
      m.app_messages_sent == 0 ? 0 : m.payload_bytes / m.app_messages_sent;
  time_wire(events, payload, ledger, spans);
  std::vector<const StableStorage*> storages;
  for (ProcessId pid = 0; pid < traced.n; ++pid) {
    storages.push_back(&runtime.process(pid).storage());
  }
  time_storage(storages, ledger, spans);
  report_layers(ledger, out);

  out.set("core.postponed", static_cast<double>(m.messages_postponed), "count");
  out.set("storage.checkpoints", static_cast<double>(m.checkpoints_taken),
          "count");
  out.set("storage.log_flushes", static_cast<double>(m.log_flushes), "count");
  out.set("storage.gc_reclaimed_bytes",
          static_cast<double>(m.gc_reclaimed_bytes), "B");
  const std::uint64_t takes = (pool1.hits - pool0.hits) +
                              (pool1.misses - pool0.misses);
  out.set("live.frame_pool_miss_frac",
          takes == 0 ? 0.0
                     : static_cast<double>(pool1.misses - pool0.misses) /
                           static_cast<double>(takes),
          "frac");
  std::size_t high_water = 0;
  for (ProcessId pid = 0; pid < traced.n; ++pid) {
    high_water =
        std::max(high_water, runtime.transport().channel(pid).ring_high_water());
  }
  out.set("live.ring_high_water", static_cast<double>(high_water), "frames");
  out.set("trace.overhead_frac", traced_cpu / cpu.median() - 1.0, "frac");
  return out;
}

}  // namespace perfbench
