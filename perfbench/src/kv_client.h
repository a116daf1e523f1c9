// Open-loop client and client-side oracle for the replicated KV service.
//
// One thread, one nonblocking connection per node. Requests are due on a
// fixed schedule (one every 1/rate seconds) and are sent when due whether or
// not earlier ones were answered; each is timed from its due time, so a
// stall also counts against the requests queued behind it. A request is
// carried by a virtual client that has nothing else outstanding, so every
// (client_id, seq) stream stays sequential the way the service's
// exactly-once table expects; a new virtual client is opened whenever all
// existing ones are busy.
//
// The oracle checks what the output-commit gate promises:
//   * kver is monotonic per key for every virtual client (strictly, after
//     its own PUT), so a key it has seen written never reads as not found;
//   * one value per (key, kver) across all clients;
//   * every reply seen for one (client_id, seq) is byte-equal;
//   * balances: every account starts at the initial balance, and a final
//     sweep finds the bank total conserved.
// A wrong status or any oracle miss fails the request; one unanswered
// within the timeout is counted apart, since past the service's capacity
// that is the expected outcome rather than a bug.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/service/service_msg.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace perfbench {

struct KvClientConfig {
  /// Loopback service port of every node, by node id.
  std::vector<std::uint16_t> node_ports;
  /// Node hosting each process id.
  std::vector<std::uint32_t> node_of_pid;
  std::uint64_t seed = 1;
};

struct PhaseResult {
  double rate = 0;
  double duration_s = 0;
  /// Due-to-reply latency of every request answered correctly, ms.
  optrec::Percentiles latency_ms;
  /// How late the generator sent each request, ms.
  optrec::Percentiles late_ms;
  /// Seconds from the last due time until the last reply.
  double drain_s = 0;
  std::uint64_t attempted = 0;
  /// Answered with a reply the oracle rejects.
  std::uint64_t failed = 0;
  /// Not answered within the timeout (or not sent before the stop time).
  std::uint64_t timeouts = 0;
  /// CPU seconds the cluster spent during the phase: the process's CPU
  /// time minus the client thread's own.
  double cpu_s = 0;
};

class KvClient {
 public:
  explicit KvClient(KvClientConfig config);
  ~KvClient();
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Dial every node, retrying until `deadline_s` (steady clock seconds).
  bool connect(double deadline_s);
  /// Send `rate` requests per second for `duration_s`, then wait for the
  /// replies (at most the timeout). Stops issuing and waiting at
  /// `stop_at_s` (steady clock seconds).
  PhaseResult run_phase(double rate, double duration_s, double stop_at_s);
  /// Read every account balance once per sweep until the total equals
  /// accounts * initial_balance or `deadline_s` passes. With
  /// `expect_initial`, every single balance must equal the initial one.
  bool sweep_balances(double deadline_s, bool expect_initial);

  /// Keep the encoded request bodies and the decoded replies of later
  /// phases, so the codec can be timed on them.
  void set_capture(bool on) { capture_ = on; }
  const std::vector<optrec::Bytes>& captured_requests() const {
    return cap_requests_;
  }
  const std::vector<optrec::service::Response>& captured_replies() const {
    return cap_replies_;
  }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct Conn {
    int fd = -1;
    optrec::Bytes rx;
    std::size_t rx_pos = 0;
    optrec::Bytes tx;
    std::size_t tx_pos = 0;
  };
  /// A client session with at most one request outstanding. One whose
  /// request timed out is never reused: its stream's state is unknown.
  struct VClient {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    /// Highest kver seen per key (0 = never seen written).
    std::vector<std::uint64_t> kver_floor;
  };
  struct Pending {
    optrec::service::Request req;
    std::size_t vclient = 0;
    double due = 0;
    bool measured = false;  // counts toward the phase's latency samples
  };
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (client_id, seq)

  optrec::service::Request next_request();
  void submit(optrec::service::Request req, double due, bool measured);
  /// Wait up to `wait_s` for socket activity and process it.
  void pump(double wait_s);
  void flush(Conn& c);
  void drain(Conn& c);
  void on_reply(const optrec::Bytes& body);
  bool verify(const Pending& p, const optrec::service::Response& r);
  /// Fail every request unanswered for longer than the timeout.
  void expire(double now);
  void violate(const std::string& what);

  KvClientConfig config_;
  optrec::Rng rng_;
  std::vector<Conn> conns_;
  std::vector<VClient> vclients_;
  std::vector<std::size_t> idle_;  // vclients with nothing outstanding
  std::map<Key, Pending> pending_;
  std::map<Key, optrec::Bytes> replies_;  // completed request -> reply bytes
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> kv_seen_;
  std::vector<std::string> violations_;
  // Sink for the phase in progress (null between phases).
  PhaseResult* phase_ = nullptr;
  // Balance sweep in progress: account -> balance read.
  std::map<std::uint64_t, std::uint64_t>* sweep_ = nullptr;
  std::uint64_t sweep_errors_ = 0;
  bool capture_ = false;
  std::vector<optrec::Bytes> cap_requests_;
  std::vector<optrec::service::Response> cap_replies_;
};

}  // namespace perfbench
