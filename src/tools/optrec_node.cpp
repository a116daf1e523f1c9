// optrec_node — TCP cluster node runner and loopback fleet harness.
//
// Runs the recovery protocols over REAL sockets (src/tcp/): every node is
// an OS process hosting a share of the protocol processes, traffic is
// length-delimited wire frames over nonblocking TCP, and the cluster
// settles through the gossip quiescence protocol (node 0 coordinates).
//
// Three modes:
//
//   --node=all   (default) whole fleet in this process, loopback sockets,
//                ephemeral ports, shared causality oracle + trace auditor.
//                  optrec_node --processes=8 --tcp-nodes=4 --crashes=2
//                      --oracle --audit
//
//   --node=K     one node of a real cluster. Describe the cluster either
//                with --topology=FILE (JSON, see docs/TCP_TRANSPORT.md) or
//                with --tcp-nodes=K --base-port=P (loopback, fixed ports —
//                every node must be started with identical flags).
//                  optrec_node --node=1 --topology=cluster.json
//
//   --spawn      multi-process harness: forks one child per node (each a
//                real `optrec_node --node=K`), optionally SIGKILLs and
//                respawns children mid-run, and folds their exit codes.
//                  optrec_node --spawn --processes=8 --tcp-nodes=4
//                      --retransmit --data-dir=/tmp/fleet --kill=1:400:900
//                (the respawned child runs --recover=warm: it rebuilds from
//                DIR/node-1 and announces its failure at the restored point)
//
// Flags shared with optrec_live (same spelling, same defaults):
//   --protocol=NAME --workload=NAME --n=K|--processes=K --seed=S
//   --intensity=K --depth=K --crashes=K --drop=P --dup=P
//   --partition=AT_MS:HEAL_MS:G0/G1 (groups are NODE ids here)
//   --min-delay-us=K --max-delay-us=K --flush-ms=K --ckpt-ms=K
//   --retransmit --stability --gc --time-cap-ms=K --verbose --oracle
//   --trace=FILE --trace-format=jsonl|chrome|dot --audit
//   --metrics-json[=FILE]  (FILE form writes the JSON there instead of
//                      stdout; --spawn derives FILE.nodeK per child)
//
// Telemetry flags (docs/OBSERVABILITY.md):
//   --telemetry        serve /metrics, /metrics.json, /cluster, /healthz
//                      from each node's IO thread
//   --telemetry-port=P     (--node=K) this node's endpoint port
//   --telemetry-base-port=P  loopback topologies: node i serves on P+i
//                      (forwarded to --spawn children)
//   --stats[=HOST:PORT]    client mode: scrape the coordinator's /cluster
//                      table and print it; target defaults to node 0 of
//                      the topology (needs its telemetry_port, e.g. from
//                      --telemetry-base-port or a topology file)
//   --timeline=FILE    write the recovery-phase timeline JSON extracted
//                      from the run's trace (implies tracing; --node=all
//                      and --node=K only — merge --spawn traces with
//                      optrec_trace_merge --timeline instead)
//   --trace-dir=DIR    (--spawn) hand each child --trace=DIR/node-K.jsonl
//                      so per-node traces land ready for optrec_trace_merge
//
// TCP-specific flags:
//   --tcp-nodes=K      nodes in a generated loopback topology      [2]
//   --base-port=P      first loopback listen port (0 = ephemeral, only
//                      valid for --node=all; --spawn picks one itself)
//   --topology=FILE    JSON topology (overrides --tcp-nodes/--base-port)
//   --node=K|all       which node this process runs               [all]
//   --data-dir=DIR     durable stable storage (docs/DURABILITY.md): each
//                      local process persists its WAL + checkpoints under
//                      DIR/p<pid>; --spawn derives DIR/node-K per child
//   --recover[=cold]   this node replaces a killed incarnation. With a
//                      data dir every local process is rebuilt from disk
//                      (latest checkpoint + WAL replay) and announces its
//                      failure at the restored point; `=cold` — or no
//                      data dir — wipes instead and crash-announces every
//                      local process right after start, the version-0
//                      "lost everything" failure
//   --settle-ms=K      quiescence settle window                   [150]
//   --status-ms=K      status gossip period                       [25]
//   --kill=N:AT:RESP   (--spawn) SIGKILL node N's child AT ms into the
//                      run, respawn it with --recover at RESP ms; AT-only
//                      form kills without respawn; repeatable
//   --print-topology   print the effective topology JSON and exit
//
// Fleet-scale flags (docs/SCALING.md):
//   --delta-piggyback  delta-compress message clock piggybacks per TCP
//                      connection (topology.scale.delta_piggyback)
//   --token-fanout=K   hierarchical failure-token dissemination with k-ary
//                      relay subtrees (K >= 2; 0 = flat broadcast)
//   --gc-level=L       Remark-2 GC aggressiveness: off | conservative |
//                      standard | aggressive (implies --stability --gc)
//
// With --topology=FILE these flags override the file's "scale" block; the
// merged config must be identical on every node of a real cluster.
//
// Client service flags (docs/SERVICE.md):
//   --serve            serve the client-facing replicated KV service from
//                      each node's IO thread; replies release strictly
//                      after the output-commit point. Serving nodes never
//                      settle — the run ends 0 at the time cap.
//   --service-port=P       (--node=K) this node's service port
//   --service-base-port=P  loopback topologies: node i serves on P+i
//                      (forwarded to --spawn children; --spawn carves a
//                      block above the telemetry ports when unset)
//   --write-topology=FILE  write the effective topology JSON (with the
//                      carved service/telemetry ports) to FILE before the
//                      run starts, so optrec_loadgen can route requests
//
// --oracle and --audit need every process in one address space, so they
// are valid only with --node=all.
//
// Exit codes: the shared runner convention — see "Exit codes" in README.md
// (0 clean, 2 usage, 3 violation, 4 time cap). --spawn returns the worst
// child's code.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/harness/failure_plan.h"
#include "src/tcp/tcp_cluster.h"
#include "src/telemetry/http_endpoint.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/tools/cli.h"
#include "src/trace/trace_auditor.h"
#include "src/trace/trace_sink.h"
#include "src/util/json.h"
#include "src/util/log.h"

using namespace optrec;
using namespace optrec::cli;

namespace {

struct KillSpec {
  std::uint32_t node = 0;
  std::uint64_t at_ms = 0;
  std::uint64_t respawn_ms = 0;  // 0 = never respawn
};

KillSpec parse_kill_spec(const std::string& value) {
  KillSpec spec;
  const std::size_t c1 = value.find(':');
  if (c1 == std::string::npos) die("--kill wants NODE:AT_MS[:RESPAWN_MS]");
  const std::size_t c2 = value.find(':', c1 + 1);
  spec.node = static_cast<std::uint32_t>(
      parse_u64(value.substr(0, c1), "--kill node"));
  const std::string at = c2 == std::string::npos
                             ? value.substr(c1 + 1)
                             : value.substr(c1 + 1, c2 - c1 - 1);
  spec.at_ms = parse_u64(at, "--kill at_ms");
  if (c2 != std::string::npos) {
    spec.respawn_ms = parse_u64(value.substr(c2 + 1), "--kill respawn_ms");
    if (spec.respawn_ms <= spec.at_ms) {
      die("--kill respawn_ms must be > at_ms");
    }
  }
  return spec;
}

std::string result_json(const TcpClusterConfig& config, const char* mode,
                        std::uint32_t node, int exit_code, bool quiesced,
                        SimTime wall_time, const Metrics& m,
                        const Network::Stats& n,
                        const TcpTransport::TcpStats& t,
                        const telemetry::FixedHistogram& latency,
                        std::size_t oracle_violations, bool audited,
                        std::size_t audit_violations,
                        const telemetry::RecoveryTimelineReport* timeline,
                        const TcpNodeResult::DurableSummary* durable,
                        const TcpNodeResult::ServiceSummary* service) {
  std::ostringstream os;
  JsonWriter w(os);
  const double wall_s = static_cast<double>(wall_time) / 1e6;

  w.begin_object();
  w.key("config").begin_object();
  w.kv("backend", "tcp");
  w.kv("mode", mode);
  if (std::strcmp(mode, "node") == 0) w.kv("node", node);
  w.kv("protocol", protocol_name(config.protocol));
  w.kv("workload", config.workload.name());
  w.kv("n", std::uint64_t{config.n});
  w.kv("tcp_nodes", std::uint64_t{config.nodes});
  w.kv("seed", config.seed);
  w.kv("crashes_planned", std::uint64_t{config.crashes.size()});
  w.end_object();

  w.kv("exit_code", std::uint64_t(exit_code));
  w.kv("quiesced", quiesced);
  w.kv("wall_time_us", wall_time);
  w.kv("delivered_per_second",
       wall_s > 0 ? static_cast<double>(m.messages_delivered) / wall_s : 0.0);
  w.key("delivery_latency_us").begin_object();
  w.kv("count", std::uint64_t{latency.count()});
  w.kv("p50", latency.percentile(0.50));
  w.kv("p90", latency.percentile(0.90));
  w.kv("p99", latency.percentile(0.99));
  w.end_object();

  if (timeline != nullptr) {
    w.key("recovery_timeline").begin_object();
    telemetry::write_recovery_timeline_fields(w, *timeline);
    w.end_object();
  }

  if (durable != nullptr && durable->enabled) {
    w.key("durable").begin_object();
    w.kv("warm_recovered", std::uint64_t{durable->warm_recovered});
    w.kv("recovered_delivered", durable->recovered_delivered);
    w.kv("replayed_msgs", durable->replayed_messages);
    w.kv("replayed_tokens", durable->replayed_tokens);
    w.kv("recovered_checkpoints", durable->recovered_checkpoints);
    w.kv("torn_bytes", durable->torn_bytes);
    w.kv("fsyncs", durable->fsyncs);
    w.kv("wal_bytes_written", durable->wal_bytes_written);
    w.kv("disk_stable_bytes", durable->disk_stable_bytes);
    w.kv("memory_stable_bytes", durable->memory_stable_bytes);
    w.kv("snapshot_writes", durable->snapshot_writes);
    w.kv("manifest_writes", durable->manifest_writes);
    w.kv("compactions", durable->compactions);
    w.kv("recovery_us", durable->recovery_us);
    w.end_object();
  }

  if (service != nullptr && service->enabled) {
    w.key("service").begin_object();
    w.kv("connections", service->connections);
    w.kv("requests", service->requests);
    w.kv("injected", service->injected);
    w.kv("replies_sent", service->replies_sent);
    w.kv("replies_dropped", service->replies_dropped);
    w.kv("wrong_node", service->wrong_node);
    w.kv("protocol_errors", service->protocol_errors);
    w.kv("replies_gated", service->replies_gated);
    w.kv("replies_released", service->replies_released);
    w.end_object();
  }

  w.key("metrics").begin_object();
  w.kv("app_messages_sent", m.app_messages_sent);
  w.kv("messages_delivered", m.messages_delivered);
  w.kv("messages_discarded_obsolete", m.messages_discarded_obsolete);
  w.kv("messages_discarded_duplicate", m.messages_discarded_duplicate);
  w.kv("piggyback_bytes", m.piggyback_bytes);
  w.kv("piggyback_per_message", m.piggyback_per_message());
  w.kv("crashes", m.crashes);
  w.kv("restarts", m.restarts);
  w.kv("rollbacks", m.rollbacks);
  w.kv("max_rollbacks_per_process_per_failure",
       m.max_rollbacks_per_process_per_failure());
  w.kv("tokens_processed", m.tokens_processed);
  w.kv("messages_replayed", m.messages_replayed);
  w.kv("retransmissions", m.retransmissions);
  w.end_object();

  w.key("net").begin_object();
  w.kv("messages_sent", n.messages_sent);
  w.kv("messages_delivered", n.messages_delivered);
  w.kv("messages_dropped", n.messages_dropped);
  w.kv("messages_retried", n.messages_retried);
  w.kv("tokens_sent", n.tokens_sent);
  w.kv("tokens_delivered", n.tokens_delivered);
  w.kv("message_bytes", n.message_bytes);
  w.kv("token_bytes", n.token_bytes);
  w.end_object();

  w.key("tcp").begin_object();
  w.kv("connects", t.connects);
  w.kv("accepts", t.accepts);
  w.kv("disconnects", t.disconnects);
  w.kv("frames_tx", t.frames_tx);
  w.kv("frames_rx", t.frames_rx);
  w.kv("bytes_tx", t.bytes_tx);
  w.kv("bytes_rx", t.bytes_rx);
  w.kv("acks_rx", t.acks_rx);
  w.kv("token_retries", t.token_retries);
  w.kv("dup_tokens_dropped", t.dup_tokens_dropped);
  w.kv("backpressure_drops", t.backpressure_drops);
  w.kv("protocol_errors", t.protocol_errors);
  w.kv("delta_frames_tx", t.delta_frames_tx);
  w.kv("delta_bytes_tx", t.delta_bytes_tx);
  w.kv("delta_flat_bytes", t.delta_flat_bytes);
  w.kv("delta_resyncs", t.delta_resyncs);
  w.kv("relays_tx", t.relays_tx);
  w.kv("relay_splits", t.relay_splits);
  w.end_object();

  w.kv("oracle_violations", std::uint64_t{oracle_violations});
  if (audited) w.kv("audit_violations", std::uint64_t{audit_violations});
  w.end_object();
  os << "\n";
  return os.str();
}

void print_summary(const char* head, bool quiesced, SimTime wall_time,
                   const Metrics& m, const Network::Stats& n,
                   const TcpTransport::TcpStats& t,
                   const telemetry::FixedHistogram& latency,
                   const TcpNodeResult::DurableSummary* durable = nullptr) {
  const double wall_s = static_cast<double>(wall_time) / 1e6;
  std::printf("%s quiesced=%s (t = %.2f ms wall)\n", head,
              quiesced ? "yes" : "NO", wall_time / 1000.0);
  std::printf("throughput %.0f delivered/s (%llu delivered in %.2f s)\n",
              wall_s > 0 ? m.messages_delivered / wall_s : 0.0,
              (unsigned long long)m.messages_delivered, wall_s);
  std::printf("latency    p50=%.0f us p90=%.0f us p99=%.0f us (n=%llu)\n",
              latency.percentile(0.50), latency.percentile(0.90),
              latency.percentile(0.99),
              (unsigned long long)latency.count());
  std::printf("recovery   crashes=%llu restarts=%llu rollbacks=%llu "
              "(max %llu/proc/failure)\n",
              (unsigned long long)m.crashes, (unsigned long long)m.restarts,
              (unsigned long long)m.rollbacks,
              (unsigned long long)m.max_rollbacks_per_process_per_failure());
  std::printf("wire       piggyback=%.1f B/msg msg-bytes=%llu "
              "token-bytes=%llu retried=%llu\n",
              m.piggyback_per_message(),
              (unsigned long long)n.message_bytes,
              (unsigned long long)n.token_bytes,
              (unsigned long long)n.messages_retried);
  std::printf("sockets    connects=%llu accepts=%llu disconnects=%llu "
              "frames tx/rx=%llu/%llu token-retries=%llu dup-dropped=%llu\n",
              (unsigned long long)t.connects, (unsigned long long)t.accepts,
              (unsigned long long)t.disconnects,
              (unsigned long long)t.frames_tx, (unsigned long long)t.frames_rx,
              (unsigned long long)t.token_retries,
              (unsigned long long)t.dup_tokens_dropped);
  if (durable != nullptr && durable->enabled) {
    std::printf("durable    warm=%u recovered-delivered=%llu replayed=%llu "
                "fsyncs=%llu wal-bytes=%llu disk-bytes=%llu torn=%llu\n",
                durable->warm_recovered,
                (unsigned long long)durable->recovered_delivered,
                (unsigned long long)durable->replayed_messages,
                (unsigned long long)durable->fsyncs,
                (unsigned long long)durable->wal_bytes_written,
                (unsigned long long)durable->disk_stable_bytes,
                (unsigned long long)durable->torn_bytes);
  }
}

void print_service_summary(const TcpNodeResult::ServiceSummary& s) {
  if (!s.enabled) return;
  std::printf("service    conns=%llu requests=%llu injected=%llu "
              "gated=%llu released=%llu sent=%llu dropped=%llu "
              "wrong-node=%llu proto-errors=%llu\n",
              (unsigned long long)s.connections,
              (unsigned long long)s.requests,
              (unsigned long long)s.injected,
              (unsigned long long)s.replies_gated,
              (unsigned long long)s.replies_released,
              (unsigned long long)s.replies_sent,
              (unsigned long long)s.replies_dropped,
              (unsigned long long)s.wrong_node,
              (unsigned long long)s.protocol_errors);
}

void write_trace(const std::string& trace_file, const std::string& format,
                 const std::vector<TraceEvent>& events) {
  std::ofstream file_out;
  if (trace_file != "-") {
    file_out.open(trace_file, std::ios::binary);
    if (!file_out) die("cannot open trace file '" + trace_file + "'");
  }
  std::ostream& out = trace_file == "-" ? std::cout : file_out;
  if (format == "jsonl") {
    write_trace_jsonl(out, events);
  } else if (format == "chrome") {
    write_trace_chrome(out, events);
  } else {
    write_trace_dot(out, events);
  }
  if (&out == &file_out && !file_out) {
    die("failed writing trace file '" + trace_file + "'");
  }
}

/// Write --metrics-json output: stdout when `file` is empty, FILE otherwise.
void emit_metrics_json(const std::string& file, const std::string& json) {
  if (file.empty()) {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::ofstream out(file, std::ios::binary);
  if (!out) die("cannot open metrics file '" + file + "'");
  out << json;
  if (!out) die("failed writing metrics file '" + file + "'");
}

void write_timeline_file(const std::string& file,
                         const telemetry::RecoveryTimelineReport& report) {
  std::ofstream out(file, std::ios::binary);
  if (!out) die("cannot open timeline file '" + file + "'");
  telemetry::write_recovery_timeline_json(out, report);
  if (!out) die("failed writing timeline file '" + file + "'");
}

/// --stats: scrape HOST:PORT/cluster and print the live table.
int run_stats_client(const std::string& host, std::uint16_t port) {
  std::string body;
  try {
    body = telemetry::http_get(host, port, "/cluster");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "optrec_node: --stats: %s\n", e.what());
    return 1;
  }
  JsonValue doc;
  try {
    doc = JsonValue::parse(body);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "optrec_node: --stats: bad /cluster JSON: %s\n",
                 e.what());
    return 1;
  }
  std::printf("cluster @ %s:%u  (answering node %llu%s)\n", host.c_str(), port,
              (unsigned long long)doc.u64_or("node", 0),
              doc.find("coordinator") != nullptr &&
                      doc.find("coordinator")->as_bool()
                  ? ", coordinator"
                  : "");
  std::printf(
      "%4s %-5s %8s %9s %9s %8s %8s %6s %7s %7s %7s %5s %10s %8s %8s\n",
      "node", "quiet", "age_ms", "sent", "delivered", "orphaned", "rollbk",
      "crash", "restart", "tokens", "replay", "ckpt", "tx_bytes", "p50_us",
      "p99_us");
  const JsonValue* rows = doc.find("rows");
  if (rows != nullptr) {
    for (const JsonValue& r : rows->as_array()) {
      const JsonValue* quiet = r.find("quiet");
      std::printf("%4llu %-5s %8.1f %9llu %9llu %8llu %8llu %6llu %7llu "
                  "%7llu %7llu %5llu %10llu %8llu %8llu\n",
                  (unsigned long long)r.u64_or("node", 0),
                  quiet != nullptr && quiet->as_bool() ? "yes" : "no",
                  static_cast<double>(r.u64_or("age_us", 0)) / 1000.0,
                  (unsigned long long)r.u64_or("app_sent", 0),
                  (unsigned long long)r.u64_or("delivered", 0),
                  (unsigned long long)r.u64_or("orphaned", 0),
                  (unsigned long long)r.u64_or("rollbacks", 0),
                  (unsigned long long)r.u64_or("crashes", 0),
                  (unsigned long long)r.u64_or("restarts", 0),
                  (unsigned long long)r.u64_or("tokens", 0),
                  (unsigned long long)r.u64_or("replayed", 0),
                  (unsigned long long)r.u64_or("checkpoints", 0),
                  (unsigned long long)r.u64_or("bytes_tx", 0),
                  (unsigned long long)r.u64_or("latency_p50_us", 0),
                  (unsigned long long)r.u64_or("latency_p99_us", 0));
    }
  }
  return 0;
}

/// Micros since the Unix epoch; anchors per-node traces on a shared clock.
std::uint64_t unix_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// --spawn: fork a child running `--node=K` with the given base argv plus
/// per-node extras (trace file, metrics file).
pid_t spawn_child(const std::vector<std::string>& base_args,
                  std::uint32_t node, bool recover, bool recover_cold,
                  const std::vector<std::string>& extra) {
  std::vector<std::string> args = base_args;
  args.push_back("--node=" + std::to_string(node));
  if (recover) args.push_back(recover_cold ? "--recover=cold" : "--recover");
  args.insert(args.end(), extra.begin(), extra.end());
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::perror("optrec_node: execv");
    ::_exit(2);
  }
  return pid;
}

int run_spawn_harness(const std::vector<std::string>& base_args,
                      std::size_t tcp_nodes, std::vector<KillSpec> kills,
                      bool verbose, bool recover_cold,
                      const std::vector<std::vector<std::string>>& extra) {
  std::vector<pid_t> child(tcp_nodes, -1);
  for (std::uint32_t k = 0; k < tcp_nodes; ++k) {
    child[k] = spawn_child(base_args, k, /*recover=*/false, recover_cold,
                           extra[k]);
  }

  // Apply the kill/respawn schedule in event-time order.
  struct HarnessEvent {
    std::uint64_t at_ms = 0;
    std::uint32_t node = 0;
    bool respawn = false;
  };
  std::vector<HarnessEvent> events;
  for (const KillSpec& kill : kills) {
    if (kill.node >= tcp_nodes) die("--kill names unknown node");
    events.push_back({kill.at_ms, kill.node, false});
    if (kill.respawn_ms > 0) events.push_back({kill.respawn_ms, kill.node, true});
  }
  std::sort(events.begin(), events.end(),
            [](const HarnessEvent& a, const HarnessEvent& b) {
              return a.at_ms < b.at_ms;
            });

  const auto start = std::chrono::steady_clock::now();
  for (const HarnessEvent& event : events) {
    std::this_thread::sleep_until(start +
                                  std::chrono::milliseconds(event.at_ms));
    if (event.respawn) {
      if (verbose) {
        std::fprintf(stderr, "harness: respawning node %u (--recover)\n",
                     event.node);
      }
      child[event.node] =
          spawn_child(base_args, event.node, /*recover=*/true, recover_cold,
                      extra[event.node]);
    } else {
      if (verbose) {
        std::fprintf(stderr, "harness: SIGKILL node %u (pid %d)\n", event.node,
                     (int)child[event.node]);
      }
      ::kill(child[event.node], SIGKILL);
      int status = 0;
      ::waitpid(child[event.node], &status, 0);
      child[event.node] = -1;
    }
  }

  int worst = 0;
  for (std::uint32_t k = 0; k < tcp_nodes; ++k) {
    if (child[k] < 0) continue;  // killed without respawn — expected
    int status = 0;
    if (::waitpid(child[k], &status, 0) < 0) die("waitpid failed");
    int code = 1;
    if (WIFEXITED(status)) code = WEXITSTATUS(status);
    if (verbose || code != 0) {
      std::fprintf(stderr, "harness: node %u exited %d\n", k, code);
    }
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  tool_name = "optrec_node";
  TcpClusterConfig config;
  config.n = 4;
  config.nodes = 2;
  config.seed = 1;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.enable_oracle = false;
  config.time_cap = millis(15000);

  std::size_t crashes = 0;
  std::string value;
  std::string trace_file;
  std::string trace_format = "jsonl";
  std::string topology_file;
  std::string node_arg = "all";
  std::uint16_t base_port = 0;
  bool recover = false;
  bool recover_cold = false;
  std::string data_dir;
  bool spawn = false;
  bool audit = false;
  bool metrics_json = false;
  std::string metrics_json_file;
  bool verbose = false;
  bool print_topology = false;
  bool enable_trace = false;
  bool telemetry = false;
  std::uint16_t telemetry_port = 0;
  std::uint16_t telemetry_base_port = 0;
  bool stats_mode = false;
  std::string stats_target;
  std::string timeline_file;
  std::string trace_dir;
  bool serve = false;
  std::uint16_t service_port = 0;
  std::uint16_t service_base_port = 0;
  std::string write_topology_file;
  std::vector<KillSpec> kills;
  /// Flags forwarded verbatim to --spawn children (everything except the
  /// harness-only flags and --node itself).
  std::vector<std::string> child_args;
  child_args.push_back("optrec_node");

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool forward = true;
    if (parse_flag(arg, "--protocol", &value)) {
      config.protocol = parse_protocol(value);
    } else if (parse_flag(arg, "--workload", &value)) {
      config.workload.kind = parse_workload(value);
    } else if (parse_flag(arg, "--n", &value)) {
      config.n = parse_u64(value, "--n");
    } else if (parse_flag(arg, "--processes", &value)) {
      config.n = parse_u64(value, "--processes");
    } else if (parse_flag(arg, "--seed", &value)) {
      config.seed = parse_u64(value, "--seed");
    } else if (parse_flag(arg, "--intensity", &value)) {
      config.workload.intensity =
          static_cast<std::uint32_t>(parse_u64(value, "--intensity"));
    } else if (parse_flag(arg, "--depth", &value)) {
      config.workload.depth =
          static_cast<std::uint32_t>(parse_u64(value, "--depth"));
    } else if (parse_flag(arg, "--crashes", &value)) {
      crashes = parse_u64(value, "--crashes");
    } else if (parse_flag(arg, "--drop", &value)) {
      config.faults.drop_prob = parse_double(value, "--drop");
    } else if (parse_flag(arg, "--dup", &value)) {
      config.faults.duplicate_prob = parse_double(value, "--dup");
    } else if (parse_flag(arg, "--partition", &value)) {
      try {
        config.faults.partitions.push_back(parse_partition_spec(value));
      } catch (const std::invalid_argument& e) {
        die(e.what());
      }
    } else if (parse_flag(arg, "--min-delay-us", &value)) {
      config.faults.min_delay = micros(parse_u64(value, "--min-delay-us"));
    } else if (parse_flag(arg, "--max-delay-us", &value)) {
      config.faults.max_delay = micros(parse_u64(value, "--max-delay-us"));
    } else if (parse_flag(arg, "--flush-ms", &value)) {
      config.process.flush_interval = millis(parse_u64(value, "--flush-ms"));
    } else if (parse_flag(arg, "--ckpt-ms", &value)) {
      config.process.checkpoint_interval =
          millis(parse_u64(value, "--ckpt-ms"));
    } else if (parse_flag(arg, "--retransmit", &value)) {
      config.process.retransmit_on_failure = true;
    } else if (parse_flag(arg, "--stability", &value)) {
      config.process.enable_stability_tracking = true;
    } else if (parse_flag(arg, "--gc", &value)) {
      config.process.enable_stability_tracking = true;
      config.process.enable_gc = true;
    } else if (parse_flag(arg, "--gc-level", &value)) {
      config.process.enable_stability_tracking = true;
      config.process.enable_gc = true;
      try {
        config.process.gc.level = scale::parse_gc_level(value);
      } catch (const std::invalid_argument& e) {
        die(e.what());
      }
    } else if (parse_flag(arg, "--delta-piggyback", &value)) {
      config.scale.delta_piggyback = true;
    } else if (parse_flag(arg, "--token-fanout", &value)) {
      config.scale.token_fanout =
          static_cast<std::uint32_t>(parse_u64(value, "--token-fanout"));
      if (config.scale.token_fanout == 1) {
        die("--token-fanout wants 0 (flat) or >= 2");
      }
    } else if (parse_flag(arg, "--time-cap-ms", &value)) {
      config.time_cap = millis(parse_u64(value, "--time-cap-ms"));
    } else if (parse_flag(arg, "--settle-ms", &value)) {
      config.settle = millis(parse_u64(value, "--settle-ms"));
    } else if (parse_flag(arg, "--status-ms", &value)) {
      config.status_interval = millis(parse_u64(value, "--status-ms"));
    } else if (parse_flag(arg, "--verbose", &value)) {
      set_log_level(LogLevel::kInfo);
      verbose = true;
    } else if (parse_flag(arg, "--oracle", &value)) {
      config.enable_oracle = true;
      forward = false;
    } else if (parse_flag(arg, "--trace-format", &value)) {
      if (value != "jsonl" && value != "chrome" && value != "dot") {
        die("--trace-format wants jsonl | chrome | dot");
      }
      trace_format = value;
    } else if (parse_flag(arg, "--trace", &value)) {
      if (value.empty()) die("--trace wants a file name (or - for stdout)");
      trace_file = value;
      enable_trace = true;
      forward = false;  // children would clobber one another's file
    } else if (parse_flag(arg, "--audit", &value)) {
      audit = true;
      enable_trace = true;
      forward = false;
    } else if (parse_flag(arg, "--metrics-json", &value)) {
      metrics_json = true;
      metrics_json_file = value;
      forward = false;  // --spawn derives a per-child FILE.nodeK instead
    } else if (parse_flag(arg, "--telemetry-port", &value)) {
      telemetry_port =
          static_cast<std::uint16_t>(parse_u64(value, "--telemetry-port"));
      forward = false;  // one port cannot serve every child
    } else if (parse_flag(arg, "--telemetry-base-port", &value)) {
      telemetry_base_port = static_cast<std::uint16_t>(
          parse_u64(value, "--telemetry-base-port"));
    } else if (parse_flag(arg, "--telemetry", &value)) {
      telemetry = true;
    } else if (parse_flag(arg, "--stats", &value)) {
      stats_mode = true;
      stats_target = value;
      forward = false;
    } else if (parse_flag(arg, "--timeline", &value)) {
      if (value.empty()) die("--timeline wants a file name");
      timeline_file = value;
      enable_trace = true;
      forward = false;
    } else if (parse_flag(arg, "--trace-dir", &value)) {
      if (value.empty()) die("--trace-dir wants a directory");
      trace_dir = value;
      forward = false;  // --spawn derives a per-child --trace file instead
    } else if (parse_flag(arg, "--tcp-nodes", &value)) {
      config.nodes = parse_u64(value, "--tcp-nodes");
    } else if (parse_flag(arg, "--base-port", &value)) {
      base_port = static_cast<std::uint16_t>(parse_u64(value, "--base-port"));
      forward = false;  // --spawn re-adds the port it actually picked
    } else if (parse_flag(arg, "--topology", &value)) {
      topology_file = value;
    } else if (parse_flag(arg, "--node", &value)) {
      node_arg = value;
      forward = false;
    } else if (parse_flag(arg, "--recover", &value)) {
      recover = true;
      if (value == "cold") {
        recover_cold = true;
      } else if (!value.empty() && value != "warm") {
        die("--recover wants no value, =warm, or =cold");
      }
      forward = false;
    } else if (parse_flag(arg, "--data-dir", &value)) {
      if (value.empty()) die("--data-dir wants a directory");
      data_dir = value;
      forward = false;  // --spawn derives a per-child DIR/node-K instead
    } else if (parse_flag(arg, "--spawn", &value)) {
      spawn = true;
      forward = false;
    } else if (parse_flag(arg, "--kill", &value)) {
      kills.push_back(parse_kill_spec(value));
      forward = false;
    } else if (parse_flag(arg, "--print-topology", &value)) {
      print_topology = true;
      forward = false;
    } else if (parse_flag(arg, "--serve", &value)) {
      serve = true;
    } else if (parse_flag(arg, "--service-port", &value)) {
      service_port =
          static_cast<std::uint16_t>(parse_u64(value, "--service-port"));
      forward = false;  // one port cannot serve every child
    } else if (parse_flag(arg, "--service-base-port", &value)) {
      service_base_port = static_cast<std::uint16_t>(
          parse_u64(value, "--service-base-port"));
    } else if (parse_flag(arg, "--write-topology", &value)) {
      if (value.empty()) die("--write-topology wants a file name");
      write_topology_file = value;
      forward = false;
    } else {
      die(std::string("unknown flag '") + arg + "' (see header comment)");
    }
    if (forward) child_args.push_back(arg);
  }

  if (config.faults.min_delay > config.faults.max_delay) {
    die("--min-delay-us must be <= --max-delay-us");
  }
  config.enable_trace = enable_trace;
  if (crashes > 0) {
    Rng rng(config.seed * 977 + 3);
    const FailurePlan plan = FailurePlan::random(rng, config.n, crashes,
                                                 millis(20), millis(200));
    config.crashes = plan.crashes;
  }

  // Resolve the topology every mode agrees on.
  TcpTopology topo;
  if (!topology_file.empty()) {
    std::ifstream in(topology_file, std::ios::binary);
    if (!in) die("cannot open topology file '" + topology_file + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
      topo = TcpTopology::parse(text.str());
    } catch (const std::exception& e) {
      die(std::string("bad topology: ") + e.what());
    }
    topo.faults.partitions.insert(topo.faults.partitions.end(),
                                  config.faults.partitions.begin(),
                                  config.faults.partitions.end());
    config.n = topo.n;
    config.nodes = topo.nodes.size();
  } else {
    try {
      topo = TcpTopology::loopback(config.n, config.nodes, base_port,
                                   "loopback", telemetry_base_port,
                                   service_base_port);
    } catch (const std::invalid_argument& e) {
      die(e.what());
    }
    topo.faults = config.faults;
  }
  // Merge the fleet-scale knobs: CLI flags override a topology file's
  // "scale" block, and the merged result feeds both --node=K (topo) and
  // --node=all / --spawn (config) paths identically.
  if (config.scale.delta_piggyback) topo.scale.delta_piggyback = true;
  if (config.scale.token_fanout != 0) {
    topo.scale.token_fanout = config.scale.token_fanout;
  }
  config.scale = topo.scale;
  if (serve && config.enable_oracle) {
    die("--serve and --oracle are incompatible (injected client requests "
        "have no oracle send records; optrec_loadgen checks consistency "
        "from the client side instead)");
  }

  // ---- --stats: scrape the coordinator's /cluster table ---------------
  if (stats_mode) {
    std::string host;
    std::uint16_t port = 0;
    if (!stats_target.empty()) {
      const std::size_t colon = stats_target.rfind(':');
      if (colon == std::string::npos) die("--stats wants HOST:PORT");
      host = stats_target.substr(0, colon);
      port = static_cast<std::uint16_t>(
          parse_u64(stats_target.substr(colon + 1), "--stats port"));
    } else {
      const TcpNodeSpec& coord = topo.node(0);
      host = coord.host;
      port = coord.telemetry_port;
      if (port == 0) {
        die("--stats needs an explicit HOST:PORT, a topology that assigns "
            "node 0 a telemetry_port, or --telemetry-base-port");
      }
    }
    return run_stats_client(host, port);
  }

  if (print_topology) {
    std::fputs(topo.to_json().c_str(), stdout);
    return 0;
  }

  // ---- --spawn: multi-process harness --------------------------------
  if (spawn) {
    if (node_arg != "all") die("--spawn and --node are mutually exclusive");
    if (config.enable_oracle || audit) {
      die("--oracle/--audit need one address space; use --node=all");
    }
    if (!timeline_file.empty()) {
      die("--timeline needs one trace; collect per-node traces with "
          "--trace-dir and run optrec_trace_merge --timeline instead");
    }
    if (topology_file.empty() && base_port == 0) {
      // Children must all compute identical fixed ports; derive a block
      // from the harness pid and hand it down explicitly.
      base_port = static_cast<std::uint16_t>(
          20000 + (static_cast<std::uint32_t>(::getpid()) * 131) % 20000);
    }
    if (topology_file.empty()) {
      child_args.push_back("--base-port=" + std::to_string(base_port));
    }
    if (telemetry && telemetry_base_port == 0 && topology_file.empty()) {
      // The children's scrape ports must be knowable; carve a block right
      // above the data ports.
      telemetry_base_port =
          static_cast<std::uint16_t>(base_port + config.nodes);
      child_args.push_back("--telemetry-base-port=" +
                           std::to_string(telemetry_base_port));
    }
    if (telemetry && verbose && telemetry_base_port != 0) {
      std::fprintf(stderr,
                   "harness: telemetry on 127.0.0.1:%u..%u (/metrics)\n",
                   telemetry_base_port,
                   telemetry_base_port + (unsigned)config.nodes - 1);
    }
    if (serve && service_base_port == 0 && topology_file.empty()) {
      // Clients must be able to compute every node's service port; carve a
      // block above the telemetry ports (data, telemetry, service).
      service_base_port =
          static_cast<std::uint16_t>(base_port + 2 * config.nodes);
      child_args.push_back("--service-base-port=" +
                           std::to_string(service_base_port));
    }
    if (serve && verbose && service_base_port != 0) {
      std::fprintf(stderr, "harness: service on 127.0.0.1:%u..%u\n",
                   service_base_port,
                   service_base_port + (unsigned)config.nodes - 1);
    }
    if (!write_topology_file.empty()) {
      // Re-resolve with the carved port blocks so clients read real ports.
      if (topology_file.empty()) {
        topo = TcpTopology::loopback(config.n, config.nodes, base_port,
                                     "loopback", telemetry_base_port,
                                     service_base_port);
        topo.faults = config.faults;
      }
      std::ofstream out(write_topology_file, std::ios::binary);
      if (!out) die("cannot open '" + write_topology_file + "'");
      out << topo.to_json();
      if (!out) die("failed writing '" + write_topology_file + "'");
    }
    if (!trace_dir.empty()) {
      if (::mkdir(trace_dir.c_str(), 0777) != 0 && errno != EEXIST) {
        die("cannot create --trace-dir '" + trace_dir + "'");
      }
    }
    if (!data_dir.empty()) {
      if (::mkdir(data_dir.c_str(), 0777) != 0 && errno != EEXIST) {
        die("cannot create --data-dir '" + data_dir + "'");
      }
    }
    if (metrics_json && metrics_json_file.empty()) {
      die("--spawn needs --metrics-json=FILE (children would interleave "
          "one stdout)");
    }
    std::vector<std::vector<std::string>> extra(config.nodes);
    for (std::uint32_t k = 0; k < config.nodes; ++k) {
      if (!trace_dir.empty()) {
        extra[k].push_back("--trace=" + trace_dir + "/node-" +
                           std::to_string(k) + ".jsonl");
      }
      if (!data_dir.empty()) {
        extra[k].push_back("--data-dir=" + data_dir + "/node-" +
                           std::to_string(k));
      }
      if (metrics_json) {
        extra[k].push_back("--metrics-json=" + metrics_json_file + ".node" +
                           std::to_string(k));
      }
    }
    return run_spawn_harness(child_args, config.nodes, kills, verbose,
                             recover_cold, extra);
  }

  if (!write_topology_file.empty()) {
    std::ofstream out(write_topology_file, std::ios::binary);
    if (!out) die("cannot open '" + write_topology_file + "'");
    out << topo.to_json();
    if (!out) die("failed writing '" + write_topology_file + "'");
  }

  // ---- --node=K: one node of the cluster -----------------------------
  if (node_arg != "all") {
    const std::uint32_t node =
        static_cast<std::uint32_t>(parse_u64(node_arg, "--node"));
    if (node >= topo.nodes.size()) die("--node out of range");
    if (config.enable_oracle || audit) {
      die("--oracle/--audit need one address space; use --node=all");
    }
    if (topology_file.empty() && base_port == 0) {
      die("--node=K needs --topology=FILE or a fixed --base-port");
    }

    TcpNodeConfig nc;
    nc.topology = topo;
    nc.node = node;
    nc.seed = config.seed;
    nc.protocol = config.protocol;
    nc.workload = config.workload;
    nc.process = config.process;
    // A recovered incarnation announces its own failure; the scheduled
    // crash plan belonged to the incarnation the kill replaced.
    if (!recover) nc.crashes = config.crashes;
    nc.recover = recover;
    nc.data_dir = data_dir;
    nc.recover_cold = recover_cold;
    nc.time_cap = config.time_cap;
    nc.settle = config.settle;
    nc.status_interval = config.status_interval;
    nc.max_block = config.max_block;
    nc.telemetry = telemetry;
    nc.telemetry_port = telemetry_port;
    nc.serve = serve;
    nc.service_port = service_port;
    std::unique_ptr<TraceRecorder> trace;
    if (enable_trace) {
      trace = std::make_unique<TraceRecorder>();
      nc.trace = trace.get();
    }

    TcpNode runner(std::move(nc));
    if (trace != nullptr) {
      // Stamp every event with this node's id and a wall-clock origin so
      // per-node JSONL files merge (optrec_trace_merge) on a shared axis.
      trace->set_origin(node, unix_micros() - runner.clock().now());
    }
    if (verbose && runner.telemetry_port() != 0) {
      std::fprintf(stderr, "node %u: telemetry on %s:%u\n", node,
                   topo.node(node).host.c_str(), runner.telemetry_port());
    }
    if (verbose && runner.service_port() != 0) {
      std::fprintf(stderr, "node %u: service on %s:%u\n", node,
                   topo.node(node).host.c_str(), runner.service_port());
    }
    const TcpNodeResult result = runner.run();
    if (trace != nullptr && !trace_file.empty()) {
      write_trace(trace_file, trace_format, trace->events());
    }
    telemetry::RecoveryTimelineReport timeline;
    if (trace != nullptr) {
      timeline = telemetry::analyze_recovery_timeline(trace->events());
      if (!timeline_file.empty()) write_timeline_file(timeline_file, timeline);
    }
    if (metrics_json) {
      emit_metrics_json(
          metrics_json_file,
          result_json(config, "node", node, result.exit_code, result.quiesced,
                      result.wall_time, result.metrics, result.net, result.tcp,
                      result.delivery_latency_us, 0, false, 0,
                      trace != nullptr ? &timeline : nullptr,
                      &result.durable, &result.service));
    } else {
      char head[64];
      std::snprintf(head, sizeof head, "node %u", node);
      print_summary(head, result.quiesced, result.wall_time, result.metrics,
                    result.net, result.tcp, result.delivery_latency_us,
                    &result.durable);
      print_service_summary(result.service);
    }
    return result.exit_code;
  }

  // ---- --node=all: whole fleet in-process ----------------------------
  if (recover) die("--recover only makes sense with --node=K");
  if (!topology_file.empty()) {
    die("--node=all generates its own loopback topology; run per-node "
        "processes for --topology");
  }
  if (!trace_dir.empty()) die("--trace-dir is for --spawn; use --trace=FILE");
  config.telemetry = telemetry;
  config.telemetry_base_port = telemetry_base_port;
  config.serve = serve;
  config.service_base_port = service_base_port;
  if (!data_dir.empty()) {
    if (::mkdir(data_dir.c_str(), 0777) != 0 && errno != EEXIST) {
      die("cannot create --data-dir '" + data_dir + "'");
    }
    config.data_dir = data_dir;
  }

  if (!metrics_json) {
    std::printf(
        "tcp: protocol=%s workload=%s n=%zu nodes=%zu seed=%llu crashes=%zu\n\n",
        protocol_name(config.protocol), config.workload.name().c_str(),
        config.n, config.nodes, (unsigned long long)config.seed, crashes);
  }

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();

  std::vector<std::string> violations;
  if (config.enable_oracle && cluster.oracle() != nullptr) {
    violations = cluster.oracle()->check_consistency();
  }
  const std::vector<TraceEvent>* events = nullptr;
  if (cluster.trace() != nullptr) events = &cluster.trace()->events();
  if (!trace_file.empty() && events != nullptr) {
    write_trace(trace_file, trace_format, *events);
  }
  telemetry::RecoveryTimelineReport timeline;
  if (events != nullptr) {
    timeline = telemetry::analyze_recovery_timeline(*events);
    if (!timeline_file.empty()) write_timeline_file(timeline_file, timeline);
  }

  bool audit_ok = true;
  std::size_t audit_violations = 0;
  if (audit && events != nullptr) {
    const AuditReport report = audit_trace(*events);
    audit_ok = report.ok();
    audit_violations = report.violations.size();
    if (!metrics_json) std::printf("%s\n", report.summary().c_str());
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "audit !! %s\n", v.c_str());
    }
  }

  // Serving fleets never quiesce (the cap is their scheduled end); take the
  // nodes' own verdict instead of recomputing 4 from !quiesced.
  const int exit_code = !violations.empty() || !audit_ok ? 3
                        : serve                          ? result.exit_code
                        : !result.quiesced               ? 4
                                                         : 0;
  // Cluster-wide durable totals (in-process runs always start fresh, so
  // this is the write-path footprint, not a recovery report).
  TcpNodeResult::DurableSummary durable;
  TcpNodeResult::ServiceSummary service;
  for (const TcpNodeResult& nr : result.per_node) {
    if (nr.service.enabled) {
      service.enabled = true;
      service.connections += nr.service.connections;
      service.requests += nr.service.requests;
      service.injected += nr.service.injected;
      service.replies_sent += nr.service.replies_sent;
      service.replies_dropped += nr.service.replies_dropped;
      service.wrong_node += nr.service.wrong_node;
      service.protocol_errors += nr.service.protocol_errors;
      service.replies_gated += nr.service.replies_gated;
      service.replies_released += nr.service.replies_released;
    }
    if (!nr.durable.enabled) continue;
    durable.enabled = true;
    durable.fsyncs += nr.durable.fsyncs;
    durable.wal_bytes_written += nr.durable.wal_bytes_written;
    durable.disk_stable_bytes += nr.durable.disk_stable_bytes;
    durable.memory_stable_bytes += nr.durable.memory_stable_bytes;
    durable.snapshot_writes += nr.durable.snapshot_writes;
    durable.manifest_writes += nr.durable.manifest_writes;
    durable.compactions += nr.durable.compactions;
  }
  if (metrics_json) {
    emit_metrics_json(
        metrics_json_file,
        result_json(config, "all", 0, exit_code, result.quiesced,
                    result.wall_time, result.metrics, result.net, result.tcp,
                    result.delivery_latency_us, violations.size(), audit,
                    audit_violations, events != nullptr ? &timeline : nullptr,
                    &durable, &service));
    return exit_code;
  }

  print_summary("cluster", result.quiesced, result.wall_time, result.metrics,
                result.net, result.tcp, result.delivery_latency_us, &durable);
  print_service_summary(service);
  if (config.enable_oracle) {
    std::printf("oracle     consistency=%s\n",
                violations.empty() ? "OK" : "VIOLATED");
    for (const auto& v : violations) std::printf("  !! %s\n", v.c_str());
  }
  return exit_code;
}
