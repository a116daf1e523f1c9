// Shared plumbing of the optrec benchmark: options, statistics, the span
// recorder of the traced run, the result record and the layer ledger that
// every workload fills.
//
// Every timing here is measured by the benchmark around calls into the
// library's public functions; nothing inside the program is instrumented.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes that still exercise every code path (self-test).
  bool tiny = false;
  /// Negative control: add this to the expected delivery count, so a
  /// correct program must fail the steady_live gate.
  std::int64_t expect_delta = 0;
  /// Where the traced run writes its span file (empty = do not write).
  std::string out_dir;
  /// Directory for durable storage (inside the checkout).
  std::string data_dir;
  /// Commit the benchmark was built from ("unknown" outside git).
  std::string commit = "unknown";
};

// --- clocks and process counters ------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double now_s() { return static_cast<double>(now_ns()) / 1e9; }

/// Peak resident set of this process so far, MiB (VmHWM; unlike
/// ru_maxrss it does not carry over the peak of the process that exec'd us).
double peak_rss_mb();
/// Restart the peak above at the current resident set; false when the
/// kernel does not allow it.
bool reset_peak_rss();

/// CPU seconds consumed by the calling thread so far.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// User + system CPU seconds consumed by this process so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// System-wide CPU ticks from /proc/stat: all of them, and those the
/// hypervisor gave to other guests (steal).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
/// Share of the CPU time between `a` and `b` that other guests took.
inline double steal_frac(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

// --- statistics -------------------------------------------------------------

/// Highest percentile among {p99, p90, p50} that leaves at least ten samples
/// above it, as a fraction (0.99, 0.9, 0.5); 0 when there are too few.
double tail_quantile_for(std::size_t samples);
/// The tail_quantile_for() percentile of `p`.
inline double tail_percentile(const optrec::Percentiles& p) {
  return p.percentile(tail_quantile_for(p.count()));
}

// --- spans of the traced run ------------------------------------------------

/// In-memory span log: name, start, end and parent of every timed call into
/// a layer. Written out as JSON when the benchmark ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  /// Open a span as a child of the innermost open one; returns its id.
  int begin(const std::string& name);
  void end(int id);

  /// Self time per span name, ms: duration minus the part of it that the
  /// span's children cover.
  std::map<std::string, double> self_ms() const;
  /// Write {"spans": [...]} to `path`; returns false on an IO error.
  bool write_json(const std::string& path, const std::string& context) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec == nullptr ? -1 : rec->begin(name)) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, the attempted and
/// failed operation counts, and the metrics by name.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Workload configuration, stamped into the run context.
  std::map<std::string, std::string> config;
  /// Human-readable reasons for every failed check (stderr).
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record one correctness check; a miss fails the run.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    if (failures.size() < 32) failures.push_back(what);
  }
  void fail(const std::string& what) {
    correct = false;
    if (failures.size() < 32) failures.push_back(what);
  }
};

/// Run context line: commit, host, nproc, build type, seed and config.
std::string context_json(const Options& opts, const Outcome& out);

/// The required last stdout line.
std::string result_json(const Outcome& out);

// --- workloads --------------------------------------------------------------

Outcome run_steady_live(const Options& opts, SpanRecorder* spans);
Outcome run_crash_sim(const Options& opts, SpanRecorder* spans);
Outcome run_kv_service(const Options& opts, SpanRecorder* spans);

}  // namespace perfbench
