#include "perfbench/src/bench.h"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM (Linux 4.0 and later)
  clear.flush();
  return static_cast<bool>(clear);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double tail_quantile_for(std::size_t samples) {
  // In whole percent: 100 * (1 - 0.9) is not exactly 10 in floating point.
  for (std::size_t pct : {99, 90, 50}) {
    if (samples * (100 - pct) >= 1000) return static_cast<double>(pct) / 100.0;
  }
  return 0.0;
}

int SpanRecorder::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_ms() const {
  // Children of one span run one after another (the traced run is single
  // threaded at this level), so their durations add without overlap.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    out[spans_[i].name] += std::max(0.0, dur - child_ns[i]) / 1e6;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path,
                              const std::string& context) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"context\": " << context << ", \"spans\": [";
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
      << s.name << "\", \"start_ns\": " << (s.start_ns - t0)
      << ", \"end_ns\": " << (s.end_ns - t0) << ", \"parent\": " << s.parent
      << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

std::string context_json(const Options& opts, const Outcome& out) {
  char host[256] = {0};
  if (gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  std::ostringstream os;
  optrec::JsonWriter w(os);
  w.begin_object();
  w.kv("commit", opts.commit);
  w.kv("host", std::string(host));
  w.kv("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("workload", opts.workload);
  w.kv("seed", opts.seed);
  w.kv("seconds", opts.seconds);
  w.kv("trace", opts.trace);
  w.kv("tiny", opts.tiny);
  w.key("config").begin_object();
  for (const auto& [k, v] : out.config) w.kv(k, v);
  w.end_object();
  w.end_object();
  return os.str();
}

std::string result_json(const Outcome& out) {
  std::ostringstream os;
  optrec::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", out.correct);
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : out.metrics) {
    w.key(name).begin_object();
    w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace perfbench
