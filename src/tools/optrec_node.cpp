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
// Takes the shared runner flags and the wall-clock flags (README.md,
// "Runner flags") with the wall-clock defaults --flush-ms=10 --ckpt-ms=50;
// --partition groups name NODE ids here. --metrics-json=FILE under --spawn
// derives FILE.nodeK per child. Its own flags follow.
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
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/tcp/tcp_cluster.h"
#include "src/telemetry/http_endpoint.h"
#include "src/telemetry/recovery_timeline.h"
#include "src/tools/runner.h"
#include "src/util/json.h"

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

/// The TCP backend's own --metrics-json blocks.
void write_tcp_blocks(JsonWriter& w, const TcpTransport::TcpStats& t,
                      const TcpNodeResult::DurableSummary& durable,
                      const TcpNodeResult::ServiceSummary& service) {
  if (durable.enabled) {
    w.key("durable").begin_object();
    w.kv("warm_recovered", std::uint64_t{durable.warm_recovered});
    w.kv("recovered_delivered", durable.recovered_delivered);
    w.kv("replayed_msgs", durable.replayed_messages);
    w.kv("replayed_tokens", durable.replayed_tokens);
    w.kv("recovered_checkpoints", durable.recovered_checkpoints);
    w.kv("torn_bytes", durable.torn_bytes);
    w.kv("fsyncs", durable.fsyncs);
    w.kv("wal_bytes_written", durable.wal_bytes_written);
    w.kv("disk_stable_bytes", durable.disk_stable_bytes);
    w.kv("memory_stable_bytes", durable.memory_stable_bytes);
    w.kv("snapshot_writes", durable.snapshot_writes);
    w.kv("manifest_writes", durable.manifest_writes);
    w.kv("compactions", durable.compactions);
    w.kv("recovery_us", durable.recovery_us);
    w.end_object();
  }
  if (service.enabled) {
    w.key("service").begin_object();
    w.kv("connections", service.connections);
    w.kv("requests", service.requests);
    w.kv("injected", service.injected);
    w.kv("replies_sent", service.replies_sent);
    w.kv("replies_dropped", service.replies_dropped);
    w.kv("wrong_node", service.wrong_node);
    w.kv("protocol_errors", service.protocol_errors);
    w.kv("replies_gated", service.replies_gated);
    w.kv("replies_released", service.replies_released);
    w.end_object();
  }
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
}

/// The TCP backend's own summary lines, after the shared ones.
void print_tcp_summary(const TcpTransport::TcpStats& t,
                       const TcpNodeResult::DurableSummary& durable,
                       const TcpNodeResult::ServiceSummary& s) {
  std::printf("sockets    connects=%llu accepts=%llu disconnects=%llu "
              "frames tx/rx=%llu/%llu token-retries=%llu dup-dropped=%llu\n",
              (unsigned long long)t.connects, (unsigned long long)t.accepts,
              (unsigned long long)t.disconnects,
              (unsigned long long)t.frames_tx, (unsigned long long)t.frames_rx,
              (unsigned long long)t.token_retries,
              (unsigned long long)t.dup_tokens_dropped);
  if (durable.enabled) {
    std::printf("durable    warm=%u recovered-delivered=%llu replayed=%llu "
                "fsyncs=%llu wal-bytes=%llu disk-bytes=%llu torn=%llu\n",
                durable.warm_recovered,
                (unsigned long long)durable.recovered_delivered,
                (unsigned long long)durable.replayed_messages,
                (unsigned long long)durable.fsyncs,
                (unsigned long long)durable.wal_bytes_written,
                (unsigned long long)durable.disk_stable_bytes,
                (unsigned long long)durable.torn_bytes);
  }
  if (s.enabled) {
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
}

/// --timeline: the recovery-phase timeline of the run's trace, to FILE.
void write_timeline_file(const std::string& file,
                         const std::vector<TraceEvent>* events) {
  if (file.empty() || events == nullptr) return;
  std::ofstream out(file, std::ios::binary);
  if (!out) die("cannot open timeline file '" + file + "'");
  telemetry::write_recovery_timeline_json(
      out, telemetry::analyze_recovery_timeline(*events));
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
  // Apply the kill/respawn schedule in event-time order; it is checked
  // before any child starts, so a usage error leaves no orphans behind.
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

  std::vector<pid_t> child(tcp_nodes, -1);
  for (std::uint32_t k = 0; k < tcp_nodes; ++k) {
    child[k] = spawn_child(base_args, k, /*recover=*/false, recover_cold,
                           extra[k]);
  }

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
  RunFlags run;
  run.process.flush_interval = millis(10);
  run.process.checkpoint_interval = millis(50);
  TcpClusterConfig config;  // the TCP-only fields; the rest comes from `run`

  std::string value;
  std::string topology_file;
  std::string node_arg = "all";
  std::uint16_t base_port = 0;
  bool recover = false;
  bool recover_cold = false;
  std::string data_dir;
  bool spawn = false;
  bool print_topology = false;
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
    if (parse_run_flag(arg, run, /*wall_clock=*/true)) {
      // Checks and outputs of one address space stay with the harness:
      // children would clobber one another's trace file, and --spawn hands
      // each child its own FILE.nodeK for --metrics-json.
      forward = !is_flag(arg, "--oracle") && !is_flag(arg, "--trace") &&
                !is_flag(arg, "--audit") && !is_flag(arg, "--metrics-json");
    } else if (parse_flag(arg, "--gc-level", &value)) {
      run.process.enable_stability_tracking = true;
      run.process.enable_gc = true;
      try {
        run.process.gc.level = scale::parse_gc_level(value);
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
    } else if (parse_flag(arg, "--settle-ms", &value)) {
      config.settle = millis(parse_u64(value, "--settle-ms"));
    } else if (parse_flag(arg, "--status-ms", &value)) {
      config.status_interval = millis(parse_u64(value, "--status-ms"));
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
      die(std::string("unknown flag '") + arg + "' (see README.md)");
    }
    if (forward) child_args.push_back(arg);
  }

  // The crash plan is drawn over the flags' n, before a topology file can
  // change it.
  apply_wall_clock(run, config);
  config.enable_trace = run.traced() || !timeline_file.empty();

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
  run.n = config.n;
  check_run(run, config.nodes, "node");
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
    if (run.oracle || run.audit) {
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
    if (telemetry && run.verbose && telemetry_base_port != 0) {
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
    if (serve && run.verbose && service_base_port != 0) {
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
    if (run.metrics_json && run.metrics_json_file.empty()) {
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
      if (run.metrics_json) {
        extra[k].push_back("--metrics-json=" + run.metrics_json_file + ".node" +
                           std::to_string(k));
      }
    }
    return run_spawn_harness(child_args, config.nodes, kills, run.verbose,
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
    if (run.oracle || run.audit) {
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
    if (config.enable_trace) {
      trace = std::make_unique<TraceRecorder>();
      nc.trace = trace.get();
    }

    TcpNode runner(std::move(nc));
    if (trace != nullptr) {
      // Stamp every event with this node's id and a wall-clock origin so
      // per-node JSONL files merge (optrec_trace_merge) on a shared axis.
      trace->set_origin(node, unix_micros() - runner.clock().now());
    }
    if (run.verbose && runner.telemetry_port() != 0) {
      std::fprintf(stderr, "node %u: telemetry on %s:%u\n", node,
                   topo.node(node).host.c_str(), runner.telemetry_port());
    }
    if (run.verbose && runner.service_port() != 0) {
      std::fprintf(stderr, "node %u: service on %s:%u\n", node,
                   topo.node(node).host.c_str(), runner.service_port());
    }
    const TcpNodeResult result = runner.run();
    RunOutcome outcome;
    outcome.quiesced = result.quiesced;
    outcome.clean_exit = result.exit_code;
    if (trace != nullptr) outcome.events = &trace->events();
    const RunVerdict verdict = finish_run(run, outcome);
    write_timeline_file(timeline_file, outcome.events);
    const WallClockRun report = WallClockRun::of(result);
    if (run.metrics_json) {
      emit_metrics_json(
          run, wall_clock_json(
                   "tcp", run, outcome, verdict, report,
                   [&](JsonWriter& w) {
                     w.kv("mode", "node");
                     w.kv("node", node);
                     w.kv("tcp_nodes", std::uint64_t{config.nodes});
                   },
                   [&](JsonWriter& w) {
                     write_tcp_blocks(w, result.tcp, result.durable,
                                      result.service);
                   }));
    } else {
      const std::string head = "node " + std::to_string(node);
      print_wall_clock_summary(head.c_str(), result.quiesced, report);
      print_tcp_summary(result.tcp, result.durable, result.service);
    }
    return verdict.exit_code;
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

  if (!run.metrics_json) {
    print_banner("tcp: ", run, " nodes=" + std::to_string(config.nodes));
  }

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();

  RunOutcome outcome;
  outcome.quiesced = result.quiesced;
  if (cluster.oracle() != nullptr) {
    outcome.violations = cluster.oracle()->check_consistency();
  }
  if (cluster.trace() != nullptr) outcome.events = &cluster.trace()->events();
  // Serving fleets never quiesce (the cap is their scheduled end); take the
  // nodes' own verdict instead of recomputing 4 from !quiesced.
  if (serve) outcome.clean_exit = result.exit_code;
  const RunVerdict verdict = finish_run(run, outcome);
  write_timeline_file(timeline_file, outcome.events);

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
  const WallClockRun report = WallClockRun::of(result);
  if (run.metrics_json) {
    emit_metrics_json(run, wall_clock_json(
                               "tcp", run, outcome, verdict, report,
                               [&](JsonWriter& w) {
                                 w.kv("mode", "all");
                                 w.kv("tcp_nodes", std::uint64_t{config.nodes});
                               },
                               [&](JsonWriter& w) {
                                 write_tcp_blocks(w, result.tcp, durable,
                                                  service);
                               }));
    return verdict.exit_code;
  }
  print_wall_clock_summary("cluster", result.quiesced, report);
  print_tcp_summary(result.tcp, durable, service);
  print_oracle_lines(run, outcome.violations);
  return verdict.exit_code;
}
