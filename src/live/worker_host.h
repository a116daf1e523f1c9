// WorkerHost: recovery processes on real OS threads, for any channel-backed
// transport.
//
// LiveRuntime (in-process LiveTransport) and TcpNode (TcpTransport) both
// host their processes here. Each worker owns its process object, a private
// timer queue, a private Metrics block, a latency histogram and the
// consumer end of its LiveChannel. The worker loop fires due timers, pops
// the next ready frame, and:
//   * kStop   — exits the thread;
//   * kCrash  — calls ProcessBase::crash() and EXITS THE THREAD; the
//               supervisor joins it and spawns a fresh one, which fires the
//               pending restart timer (genuine thread death and rebirth);
//   * kWire   — parks the frame for retry while the process is down (the
//               reliable transport of the paper's model), else decodes and
//               delivers it, counting the delivery only AFTER the handler
//               ran so its sends are already in flight.
// After every step the worker publishes up/pending/signature mirrors as
// atomics, so the supervisor never touches process internals while threads
// run.
//
// The quiet rule, the same on every backend (Scenario included): no planned
// crash still pending, every worker running and up with nothing held, and
// no application work in flight on the transport — app messages and tokens
// (plus, on TCP, outbound app frames, unacked tokens and relays). Control
// traffic such as the Remark-2 stability gossip is protocol background,
// not work: counting it would let a process that gossips every few
// milliseconds hold the settle window open forever. SettleDetector then
// requires the progress signature to hold still for a whole window.
//
// The transport type needs: channel(pid), note_retry(bool),
// note_delivered_message(bool), note_delivered_token(),
// faults().retry_interval, work_in_flight() and stats().messages_dropped.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/durable/durable_storage.h"
#include "src/harness/metrics.h"
#include "src/harness/protocol_factory.h"
#include "src/live/live_channel.h"
#include "src/live/live_clock.h"
#include "src/live/worker_timers.h"
#include "src/runtime/process_base.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/wiring.h"
#include "src/trace/trace_event.h"
#include "src/wire/wire_codec.h"

namespace optrec {

/// Settle window: a system is quiescent once it is quiet and its progress
/// signature has held still for `window`. Any non-quiet observation or
/// signature change restarts the window.
class SettleDetector {
 public:
  explicit SettleDetector(SimTime window) : window_(window) {}

  /// Feed one observation; true once the window has elapsed.
  bool observe(SimTime now, bool quiet, std::uint64_t signature) {
    if (!quiet) {
      have_sig_ = false;
      return false;
    }
    if (!have_sig_ || signature != last_sig_) {
      have_sig_ = true;
      last_sig_ = signature;
      since_ = now;
      return false;
    }
    return now - since_ >= window_;
  }

 private:
  SimTime window_;
  bool have_sig_ = false;
  std::uint64_t last_sig_ = 0;
  SimTime since_ = 0;
};

enum class WorkerState : int { kRunning = 0, kExitedCrash, kExitedStop };

struct HostedWorker {
  explicit HostedWorker(std::uint64_t rng_seed) : rng(rng_seed) {}

  ProcessId pid = 0;
  std::unique_ptr<WorkerTimers> timers;
  std::unique_ptr<ProcessBase> proc;
  Metrics metrics;                       // worker-private; merged post-join
  telemetry::FixedHistogram latency_us;  // worker-private; merged post-join
  Rng rng;                               // channel-pick randomness
  std::thread thread;
  bool started = false;  // proc started (spawn/join handoff)
  bool joined = true;    // supervisor-side bookkeeping

  // Node extras, left null/false by the live runtime. Registry mirrors:
  // the gauges take the private Metrics on every sync and the atomic
  // histogram each delivery latency, so mid-run scrapes never touch
  // worker-private state.
  std::unique_ptr<telemetry::ProcessGauges> gauges;
  telemetry::AtomicHistogram* latency_live = nullptr;  // registry-owned
  /// File-backed persistence; its counters are atomics the scrape reads.
  std::unique_ptr<DurableBackend> durable;
  /// Storage was restored from disk: boot through start_recovered().
  bool warm = false;
  /// In-memory stable_bytes(), mirrored each sync when `durable` is set.
  std::atomic<std::uint64_t> stable_mem{0};

  // Supervisor-visible mirrors, refreshed by the worker after each step.
  std::atomic<bool> up{false};
  std::atomic<std::uint64_t> pending{0};
  std::atomic<std::uint64_t> signature{0};
  std::atomic<WorkerState> state{WorkerState::kRunning};
};

template <class TransportT>
class WorkerHost {
 public:
  WorkerHost(LiveClock& clock, TransportT& transport, SimTime max_block)
      : clock_(clock), transport_(transport), max_block_(max_block) {}

  /// Emergency shutdown for runs abandoned mid-flight.
  ~WorkerHost() { stop_all(); }

  WorkerHost(const WorkerHost&) = delete;
  WorkerHost& operator=(const WorkerHost&) = delete;

  /// Build the process for `pid` on this host (before start()).
  HostedWorker& add(ProcessId pid, std::uint64_t rng_seed,
                    ProtocolKind protocol, std::size_t n,
                    std::unique_ptr<App> app, const ProcessConfig& config,
                    CausalityOracle* oracle, TraceRecorder* trace) {
    auto w = std::make_unique<HostedWorker>(rng_seed);
    w->pid = pid;
    w->timers = std::make_unique<WorkerTimers>(clock_);
    w->proc = make_protocol_process(
        protocol, RuntimeEnv(clock_, *w->timers, transport_), pid, n,
        std::move(app), config, w->metrics, oracle);
    w->proc->set_trace(trace);
    workers_.push_back(std::move(w));
    return *workers_.back();
  }

  const std::vector<std::unique_ptr<HostedWorker>>& workers() const {
    return workers_;
  }

  /// Queue a crash of `pid` at runtime `at`; quiet() stays false until
  /// its worker consumed it.
  void plan_crash(ProcessId pid, SimTime at) {
    crashes_pending_.fetch_add(1, std::memory_order_acq_rel);
    LiveFrame f;
    f.kind = LiveFrame::Kind::kCrash;
    f.not_before = at;
    f.sent_at = at;
    transport_.channel(pid).push(std::move(f));
  }

  void start() {
    for (auto& w : workers_) spawn(*w);
  }

  /// Wait up to `wait` for worker exits, then join them; crashed workers
  /// are respawned when `respawn_crashed`.
  void drain_exited(bool respawn_crashed, SimTime wait) {
    std::vector<HostedWorker*> batch;
    {
      std::unique_lock<std::mutex> lock(exit_mu_);
      if (exited_.empty() && wait > 0) {
        exit_cv_.wait_for(lock, std::chrono::microseconds(wait),
                          [this] { return !exited_.empty(); });
      }
      batch.swap(exited_);
    }
    for (HostedWorker* w : batch) {
      if (w->thread.joinable()) w->thread.join();
      w->joined = true;
      if (respawn_crashed && w->state.load(std::memory_order_acquire) ==
                                 WorkerState::kExitedCrash) {
        spawn(*w);
      }
    }
  }

  /// Stop every worker and join it; crashed workers stay down. Idempotent.
  void stop_all() {
    for (auto& w : workers_) {
      if (w->joined) continue;
      LiveFrame f;
      f.kind = LiveFrame::Kind::kStop;
      transport_.channel(w->pid).push(std::move(f));
    }
    for (;;) {
      const bool all_joined =
          std::all_of(workers_.begin(), workers_.end(),
                      [](const auto& w) { return w->joined; });
      if (all_joined) return;
      drain_exited(/*respawn_crashed=*/false, millis(50));
    }
  }

  /// The quiet rule (see the header comment).
  bool quiet() const {
    if (crashes_pending_.load(std::memory_order_acquire) != 0) return false;
    if (transport_.work_in_flight() != 0) return false;
    for (const auto& w : workers_) {
      if (w->state.load(std::memory_order_acquire) != WorkerState::kRunning) {
        return false;
      }
      if (!w->up.load(std::memory_order_acquire)) return false;
      if (w->pending.load(std::memory_order_acquire) != 0) return false;
    }
    return true;
  }

  /// Every worker's progress signature folded, plus transport drops.
  std::uint64_t signature() const {
    std::uint64_t sig = 0;
    for (const auto& w : workers_) {
      sig = mix_signature(sig, w->signature.load(std::memory_order_acquire));
    }
    return mix_signature(sig, transport_.stats().messages_dropped);
  }

  /// Post-join: fold every worker's metrics and latency samples.
  void merge_into(Metrics& metrics,
                  telemetry::FixedHistogram& latency_us) const {
    for (const auto& w : workers_) {
      metrics.merge_from(w->metrics);
      latency_us.merge_from(w->latency_us);
    }
  }

 private:
  void spawn(HostedWorker& w) {
    w.joined = false;
    w.state.store(WorkerState::kRunning, std::memory_order_release);
    w.thread = std::thread([this, &w] { worker_main(w); });
  }

  void exit_as(HostedWorker& w, WorkerState state) {
    w.state.store(state, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(exit_mu_);
      exited_.push_back(&w);
    }
    exit_cv_.notify_all();
  }

  void sync_mirrors(HostedWorker& w) {
    const bool up = w.proc->is_up();
    w.up.store(up, std::memory_order_release);
    w.pending.store(w.proc->pending_count(), std::memory_order_release);
    w.signature.store(progress_signature(w.metrics),
                      std::memory_order_release);
    if (w.gauges != nullptr) {
      w.gauges->update(w.metrics);
      w.gauges->set_up(up);
    }
    if (w.durable != nullptr) {
      w.stable_mem.store(w.proc->storage().stable_bytes(),
                         std::memory_order_relaxed);
    }
  }

  void worker_main(HostedWorker& w) {
    if (!w.started) {
      if (w.warm) {
        w.proc->start_recovered();
      } else {
        w.proc->start();
      }
      w.started = true;
      sync_mirrors(w);
    }
    LiveChannel& channel = transport_.channel(w.pid);
    for (;;) {
      w.timers->fire_due();
      sync_mirrors(w);
      const SimTime wait_until =
          std::min(w.timers->next_deadline(), clock_.now() + max_block_);
      std::optional<LiveFrame> frame =
          channel.pop_ready(clock_, wait_until, w.rng);
      if (!frame) continue;

      if (frame->kind == LiveFrame::Kind::kStop) {
        exit_as(w, WorkerState::kExitedStop);
        return;
      }
      if (frame->kind == LiveFrame::Kind::kCrash) {
        crashes_pending_.fetch_sub(1, std::memory_order_acq_rel);
        if (!w.proc->is_up()) continue;  // crash() would no-op while down
        w.proc->crash();  // wipes volatile state, schedules the restart
        sync_mirrors(w);
        exit_as(w, WorkerState::kExitedCrash);
        return;  // genuine thread death; the supervisor respawns us
      }

      // kWire. While down, park the frame and retry later.
      if (!w.proc->is_up()) {
        transport_.note_retry(frame->token);
        frame->not_before =
            clock_.now() + transport_.faults().retry_interval;
        channel.push(std::move(*frame));
        continue;
      }
      const Frame decoded = decode_frame(frame->wire.bytes());
      const double latency = static_cast<double>(clock_.now() - frame->sent_at);
      w.latency_us.observe(latency);
      if (w.latency_live != nullptr) w.latency_live->observe(latency);
      if (decoded.type == FrameType::kMessage) {
        w.proc->on_message(decoded.message);
        transport_.note_delivered_message(decoded.message.kind ==
                                          MessageKind::kApp);
      } else {
        w.proc->on_token(decoded.token);
        transport_.note_delivered_token();
      }
      sync_mirrors(w);
    }
  }

  LiveClock& clock_;
  TransportT& transport_;
  const SimTime max_block_;
  std::vector<std::unique_ptr<HostedWorker>> workers_;
  std::atomic<std::uint64_t> crashes_pending_{0};

  std::mutex exit_mu_;
  std::condition_variable exit_cv_;
  std::vector<HostedWorker*> exited_;
};

}  // namespace optrec
