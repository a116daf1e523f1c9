#include "src/live/live_runtime.h"

#include <stdexcept>
#include <utility>

namespace optrec {

LiveRuntime::LiveRuntime(LiveConfig config)
    : config_(config),
      transport_(clock_, config.n, config.seed, config.faults),
      host_(clock_, transport_, config.max_block) {
  if (config_.n < 2) throw std::invalid_argument("LiveRuntime: n must be >= 2");
  if (config_.enable_oracle) oracle_ = std::make_unique<CausalityOracle>();
  if (config_.enable_trace) {
    trace_ = std::make_unique<TraceRecorder>();
    transport_.set_trace(trace_.get());
  }
  const AppFactory factory = config_.workload.make_factory();
  Rng seeder(config_.seed ^ 0x9e3779b97f4a7c15ull);
  for (ProcessId pid = 0; pid < config_.n; ++pid) {
    host_.add(pid, seeder.next_u64(), config_.protocol, config_.n,
              factory(pid, config_.n), config_.process, oracle_.get(),
              trace_.get());
  }
}

LiveResult LiveRuntime::run() {
  if (ran_) throw std::logic_error("LiveRuntime::run: may only be called once");
  ran_ = true;

  for (const CrashEvent& c : config_.crashes) host_.plan_crash(c.pid, c.at);
  host_.start();

  bool quiesced = false;
  SettleDetector settle(config_.settle_slice);
  for (;;) {
    host_.drain_exited(/*respawn_crashed=*/true, config_.settle_slice);
    const SimTime now = clock_.now();
    if (now >= config_.time_cap) break;
    const bool quiet = host_.quiet();
    if (settle.observe(now, quiet, quiet ? host_.signature() : 0)) {
      quiesced = true;
      break;
    }
  }
  host_.stop_all();

  LiveResult result;
  result.quiesced = quiesced;
  result.wall_time = clock_.now();
  host_.merge_into(result.metrics, result.delivery_latency_us);
  result.net = transport_.stats();
  return result;
}

}  // namespace optrec
