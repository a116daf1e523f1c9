// kv_service: the client-facing path over real sockets.
//
// An in-process TcpCluster (2 nodes x 2 processes, Damani-Garg, zero
// injected delay) serves the replicated KV/bank service over loopback, with
// durable WAL storage in a temporary data directory and every reply behind the
// output-commit gate. The open-loop client in kv_client.h drives it at fixed
// offered rates with the loadgen's default mix. Each cluster lifetime is one
// unit: build and connect (set-up), check the seeded accounts, load, audit.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/kv_client.h"
#include "perfbench/src/layers.h"
#include "src/tcp/tcp_cluster.h"
#include "src/trace/trace_auditor.h"

namespace perfbench {

using namespace optrec;

namespace {

/// Nominal offered rate, requests per second; latency is reported here. On
/// a 4-vCPU host the service's latency climbs out of the gate's fixed wait
/// between 77k and 102k req/s. At this rate per-request work is about half
/// of the cluster's CPU or more; at 12.8k req/s, CPU per delivery was
/// bimodal from run to run (see perfbench/README.md).
constexpr double kNominalRps = 3200;
/// The offered rates of the SLO ladder, as multiples of the nominal one;
/// the top rung is past the service's capacity on that host.
constexpr double kLadder[] = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32};
/// p99 limit of the SLO: three times the gate's own p99 wait (flush interval
/// plus a stability gossip round plus the WAL fsync), so a miss marks
/// queueing rather than one slow gossip round.
constexpr double kSloP99Ms = 100;
/// Generator lateness beyond which the client, not the service, fell behind.
constexpr double kMaxLateP99Ms = 50;
/// Cluster lifetime around the load: set-up allowance before, drain and
/// audit allowance after. The ladder ends past capacity, so its lifetime
/// leaves a backlog room to drain before the audit.
constexpr double kSetupBudgetS = 1.0;
constexpr double kTailS = 1.0;
constexpr double kLadderTailS = 4.0;

struct Lifetime {
  double setup_s = 0;
  std::vector<PhaseResult> phases;
  double load_cpu_s = 0;        // cluster CPU seconds during the load
  std::uint64_t delivered = 0;  // app deliveries during the load
  TcpClusterResult result;
  // Read from the node registries after the run (traced lifetime only).
  telemetry::FixedHistogram wal_flush_us;
  telemetry::FixedHistogram gate_us;
  std::vector<TraceEvent> events;
  std::vector<Bytes> requests;
  std::vector<service::Response> replies;
};

TcpClusterConfig cluster_config(const Options& opts, std::uint64_t unit,
                                double cap_s, bool traced) {
  TcpClusterConfig c;
  c.n = 4;
  c.nodes = 2;
  c.seed = opts.seed * 1000003 + unit;
  c.protocol = ProtocolKind::kDamaniGarg;
  c.workload.kind = WorkloadKind::kService;
  c.process.flush_interval = millis(10);
  c.process.checkpoint_interval = millis(50);
  c.process.enable_stability_tracking = true;
  c.process.stability_gossip_interval = millis(20);
  c.process.enable_gc = true;
  c.faults.min_delay = 0;
  c.faults.max_delay = 0;
  c.time_cap = static_cast<SimTime>(cap_s * 1e6);
  c.enable_oracle = false;  // injected requests have no oracle send records
  c.enable_trace = traced;
  c.data_dir = opts.data_dir + "/kv-seed" + std::to_string(opts.seed) + "-" +
               std::to_string(unit) + (traced ? "-traced" : "");
  c.serve = true;
  return c;
}

double late_p99_ms(const PhaseResult& p) { return tail_percentile(p.late_ms); }

std::string rate_name(const PhaseResult& p) {
  return std::to_string(static_cast<long>(p.rate)) + " req/s";
}

/// The SLO at one offered rate: every request answered correctly, p99 within
/// the limit, no backlog left past the limit, and the generator on time.
bool meets_slo(const PhaseResult& p) {
  return p.failed == 0 && p.timeouts == 0 &&
         tail_quantile_for(p.latency_ms.count()) > 0 &&
         tail_percentile(p.latency_ms) <= kSloP99Ms &&
         p.drain_s * 1e3 <= kSloP99Ms && late_p99_ms(p) <= kMaxLateP99Ms;
}

void log_phase(const PhaseResult& p) {
  std::fprintf(stderr,
               "kv_service: %s: %llu requests, p50 %.2f ms, p99 %.2f ms, "
               "generator late p99 %.2f ms, drain %.1f ms, %llu timeouts, "
               "%llu wrong, cluster cpu %.2f s, SLO %s\n",
               rate_name(p).c_str(),
               static_cast<unsigned long long>(p.attempted),
               p.latency_ms.median(), tail_percentile(p.latency_ms),
               late_p99_ms(p), p.drain_s * 1e3,
               static_cast<unsigned long long>(p.timeouts),
               static_cast<unsigned long long>(p.failed), p.cpu_s,
               meets_slo(p) ? "met" : "missed");
}

std::uint64_t delivered_now(TcpCluster& cluster, std::size_t nodes) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    sum += cluster.node(i).stats_block().delivered;
  }
  return sum;
}

Lifetime run_lifetime(const Options& opts, std::uint64_t unit,
                      const std::vector<double>& rates, double step_s,
                      double tail_s, bool traced, SpanRecorder* spans,
                      Outcome& out) {
  Lifetime life;
  const double cap_s =
      kSetupBudgetS + step_s * static_cast<double>(rates.size()) + tail_s;
  const TcpClusterConfig cfg = cluster_config(opts, unit, cap_s, traced);

  const double t0 = now_s();
  TcpCluster cluster(cfg);
  const double cap_end = t0 + cap_s;
  std::thread runner([&cluster, &life] { life.result = cluster.run(); });

  KvClientConfig kc;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    kc.node_ports.push_back(cluster.node(i).service_port());
  }
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    kc.node_of_pid.push_back(cluster.topology().node_of(pid));
  }
  kc.seed = cfg.seed;
  KvClient client(kc);
  const bool connected = client.connect(t0 + kSetupBudgetS);
  // Set-up ends with the client connected. Reading the seeded accounts back
  // is a check, not set-up: its time is one wait at the output-commit gate,
  // whose length is set by where the flush and gossip timers happen to be.
  life.setup_s = now_s() - t0;
  const bool ready =
      connected && client.sweep_balances(t0 + kSetupBudgetS, true);
  out.check(ready, "kv_service: cluster not serving the seeded accounts within " +
                       std::to_string(kSetupBudgetS) + " s");

  if (ready) {
    client.set_capture(traced);
    const std::uint64_t d0 = delivered_now(cluster, cfg.nodes);
    {
      ScopedSpan s(spans, "runtime");
      // The ladder stops at the first rate that misses the SLO; pushing
      // harder only grows a backlog the audit would then wait out.
      for (double rate : rates) {
        life.phases.push_back(client.run_phase(rate, step_s, cap_end - 1.0));
        log_phase(life.phases.back());
        if (rate != kNominalRps && !meets_slo(life.phases.back())) break;
      }
    }
    for (const PhaseResult& p : life.phases) life.load_cpu_s += p.cpu_s;
    life.delivered = delivered_now(cluster, cfg.nodes) - d0;
    out.check(client.sweep_balances(cap_end - 0.3, false),
              "kv_service: conservation sweep");
  }
  runner.join();

  for (const std::string& v : client.violations()) out.fail("kv_service: " + v);
  const TcpClusterResult& r = life.result;
  out.check(r.exit_code == 0,
            "kv_service: cluster exit code " + std::to_string(r.exit_code));
  std::uint64_t gated = 0, released = 0, errors = r.tcp.protocol_errors;
  for (const TcpNodeResult& node : r.per_node) {
    gated += node.service.replies_gated;
    released += node.service.replies_released;
    errors += node.service.protocol_errors + node.service.wrong_node;
  }
  out.check(gated == released, "kv_service: replies gated " +
                                   std::to_string(gated) + " != released " +
                                   std::to_string(released));
  out.check(errors == 0, "kv_service: " + std::to_string(errors) +
                             " protocol errors or wrong-node replies");
  for (const PhaseResult& p : life.phases) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    if (p.failed != 0) out.fail("kv_service: wrong replies at " + rate_name(p));
    // Past the nominal rate the ladder looks for the service's limit, where
    // timeouts and a late generator are outcomes, not failures.
    if (p.rate != kNominalRps) continue;
    out.failed += p.timeouts;
    if (p.timeouts != 0) {
      out.fail("kv_service: " + std::to_string(p.timeouts) +
               " requests unanswered within the timeout at " + rate_name(p));
    }
    const double late = late_p99_ms(p);
    out.check(late <= kMaxLateP99Ms,
              "kv_service: generator ran " + std::to_string(late) +
                  " ms late at the tail; the client, not the service, fell "
                  "behind");
  }

  if (traced) {
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      telemetry::MetricsRegistry& reg = cluster.node(i).registry();
      life.gate_us.merge_from(
          reg.histogram("optrec_output_gate_latency_us", "").snapshot());
      for (ProcessId pid : cluster.topology().node(i).processes) {
        life.wal_flush_us.merge_from(
            reg.histogram("optrec_wal_flush_latency_us", "",
                          {{"pid", std::to_string(pid)}})
                .snapshot());
      }
    }
    life.events = cluster.trace()->take();
    life.requests = client.captured_requests();
    life.replies = client.captured_replies();
  }
  return life;
}

/// Time Request::decode and Response::encode on the captured traffic.
double codec_ns(const Lifetime& life, SpanRecorder* spans) {
  ScopedSpan s(spans, "service");
  if (life.requests.empty() || life.replies.empty()) return 0;
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (const Bytes& body : life.requests) sink += service::Request::decode(body).seq;
  const double decode = static_cast<double>(now_ns() - t0);
  t0 = now_ns();
  for (const service::Response& r : life.replies) sink += r.encode().size();
  const double encode = static_cast<double>(now_ns() - t0);
  static volatile std::uint64_t g_sink = 0;
  g_sink = g_sink + sink;
  return decode / static_cast<double>(life.requests.size()) +
         encode / static_cast<double>(life.replies.size());
}

}  // namespace

Outcome run_kv_service(const Options& opts, SpanRecorder* spans) {
  Outcome out;
  out.config = {{"backend", "tcp loopback, in-process cluster"},
                {"protocol", "damani-garg"},
                {"n", "4"},
                {"nodes", "2"},
                {"storage", "durable WAL"},
                {"output_commit_gate", "on"},
                {"injected_delay_us", "0"},
                {"flush_ms", "10"},
                {"checkpoint_ms", "50"},
                {"stability_gossip_ms", "20"},
                {"gc", "on"},
                {"client", "open loop, 1 thread, 1 connection per node"},
                {"mix_put_get_transfer_balance", "40:40:15:5"},
                {"keys", "64"},
                {"accounts", "64"},
                {"nominal_rps", std::to_string(kNominalRps)},
                {"slo_p99_ms", std::to_string(kSloP99Ms)},
                {"max_generator_late_p99_ms", std::to_string(kMaxLateP99Ms)}};

  if (!opts.trace) {
    // Five lifetimes, so set-up, peak memory and the delivery rate are each
    // measured five times and reported as medians.
    const int lifetimes = opts.tiny ? 1 : 5;
    const double step =
        std::max(0.5, opts.seconds / lifetimes - kSetupBudgetS - kTailS);
    out.config["load_s_per_lifetime"] = std::to_string(step);
    Percentiles setup, rss, rate;
    bool rss_per_lifetime = true;
    for (int k = 0; k < lifetimes; ++k) {
      // Each lifetime's peak on its own: hand the last lifetime's freed
      // heap back first, so its fragmentation does not carry over.
      malloc_trim(0);
      rss_per_lifetime = reset_peak_rss() && rss_per_lifetime;
      const Lifetime life = run_lifetime(opts, static_cast<std::uint64_t>(k),
                                         {kNominalRps}, step, kTailS, false,
                                         nullptr, out);
      setup.add(life.setup_s);
      rss.add(peak_rss_mb());
      rate.add(life.load_cpu_s > 0
                   ? static_cast<double>(life.delivered) / life.load_cpu_s
                   : 0.0);
    }
    out.set("setup_s", setup.median(), "s");
    if (rss_per_lifetime) out.set("peak_rss_mb", rss.median(), "MB");
    out.set("deliveries_per_cpu_s", rate.median(), "1/s");
    return out;
  }

  // Untraced SLO ladder, then the nominal rate once more with tracing on.
  std::vector<double> rates;
  for (double m : kLadder) rates.push_back(m * kNominalRps);
  const double budget = opts.seconds / 2 - kSetupBudgetS - kLadderTailS;
  const double step =
      std::max(0.5, budget / static_cast<double>(rates.size()));
  out.config["ladder_step_s"] = std::to_string(step);
  const Lifetime ladder =
      run_lifetime(opts, 0, rates, step, kLadderTailS, false, nullptr, out);

  double slo = 0;
  double untraced_cpu_per_req = 0;
  double late_p99 = 0;
  for (const PhaseResult& p : ladder.phases) {
    if (meets_slo(p)) slo = std::max(slo, p.rate);
    if (p.rate == kNominalRps) {
      untraced_cpu_per_req = p.cpu_s / static_cast<double>(p.attempted);
      late_p99 = late_p99_ms(p);
      // Due-to-reply request latency at the nominal rate.
      out.set("e2e.latency_p50_ms", p.latency_ms.median(), "ms");
      out.set("e2e.latency_p99_ms", tail_percentile(p.latency_ms), "ms");
    }
  }

  ScopedSpan root(spans, "traced_run");
  const Lifetime traced =
      run_lifetime(opts, 1, {kNominalRps}, step, kTailS, true, spans, out);
  {
    ScopedSpan s(spans, "trace");
    const AuditReport audit = audit_trace(traced.events);
    out.check(audit.ok(), "kv_service traced run: audit " +
                              (audit.ok() ? std::string()
                                          : audit.violations.front()));
  }
  LayerLedger ledger;
  time_clocks(captured_deliveries(traced.events, 4), 4, ledger, spans);
  const Metrics& m = traced.result.metrics;
  time_wire(traced.events,
            m.app_messages_sent == 0 ? 0 : m.payload_bytes / m.app_messages_sent,
            ledger, spans);
  report_layers(ledger, out);

  const PhaseResult& tp = traced.phases.empty() ? PhaseResult{} : traced.phases[0];
  const double requests = std::max<double>(1.0, static_cast<double>(tp.attempted));
  const TcpTransport::TcpStats& tcp = traced.result.tcp;
  out.set("tcp.frames_per_writev",
          tcp.writev_calls == 0 ? 0.0
                                : static_cast<double>(tcp.frames_tx) /
                                      static_cast<double>(tcp.writev_calls),
          "frames");
  out.set("tcp.bytes_per_request", static_cast<double>(tcp.bytes_tx) / requests,
          "B");
  out.set("tcp.disconnects", static_cast<double>(tcp.disconnects), "count");
  std::uint64_t fsyncs = 0, wal_bytes = 0, stable = 0, gated = 0, released = 0;
  for (const TcpNodeResult& node : traced.result.per_node) {
    fsyncs += node.durable.fsyncs;
    wal_bytes += node.durable.wal_bytes_written;
    stable += node.durable.disk_stable_bytes;
    gated += node.service.replies_gated;
    released += node.service.replies_released;
  }
  out.set("durable.fsyncs_per_request", static_cast<double>(fsyncs) / requests,
          "count");
  out.set("durable.wal_bytes_per_request",
          static_cast<double>(wal_bytes) / requests, "B");
  out.set("durable.wal_flush_p50_us", traced.wal_flush_us.percentile(0.5), "us");
  out.set("durable.wal_flush_p99_us", traced.wal_flush_us.percentile(0.99),
          "us");
  out.set("storage.stable_bytes", static_cast<double>(stable), "B");
  out.set("storage.checkpoints", static_cast<double>(m.checkpoints_taken),
          "count");
  out.set("storage.log_flushes", static_cast<double>(m.log_flushes), "count");
  out.set("storage.gc_reclaimed_bytes",
          static_cast<double>(m.gc_reclaimed_bytes), "B");
  out.set("service.gate_p50_ms", traced.gate_us.percentile(0.5) / 1e3, "ms");
  out.set("service.gate_p99_ms", traced.gate_us.percentile(0.99) / 1e3, "ms");
  out.set("service.gated_frac",
          released == 0 ? 0.0
                        : static_cast<double>(gated) /
                              static_cast<double>(released),
          "frac");
  out.set("service.codec_ns", codec_ns(traced, spans), "ns");
  out.set("service.slo_rps", slo, "1/s");
  out.set("client.late_p99_ms", late_p99, "ms");
  out.set("core.postponed", static_cast<double>(m.messages_postponed), "count");
  const double traced_cpu_per_req = tp.cpu_s / requests;
  out.set("trace.overhead_frac",
          untraced_cpu_per_req > 0
              ? traced_cpu_per_req / untraced_cpu_per_req - 1.0
              : 0.0,
          "frac");
  return out;
}

}  // namespace perfbench
