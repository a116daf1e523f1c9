#include "src/harness/failure_plan.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace optrec {

namespace {

std::uint64_t parse_number(const std::string& text, const char* what) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument(std::string("partition spec: bad ") + what +
                                " '" + text + "'");
  }
  return v;
}

}  // namespace

FailurePlan FailurePlan::single(ProcessId pid, SimTime at) {
  FailurePlan plan;
  plan.crashes.push_back({at, pid});
  return plan;
}

FailurePlan FailurePlan::random(Rng& rng, std::size_t n, std::size_t count,
                                SimTime window_start, SimTime window_end,
                                bool concurrent) {
  FailurePlan plan;
  if (n == 0 || count == 0) return plan;
  const SimTime concurrent_at =
      rng.uniform_range(window_start, window_end);
  for (std::size_t k = 0; k < count; ++k) {
    CrashEvent event;
    event.pid = static_cast<ProcessId>(rng.uniform(n));
    event.at = concurrent ? concurrent_at
                          : rng.uniform_range(window_start, window_end);
    plan.crashes.push_back(event);
  }
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

PartitionEvent parse_partition_spec(const std::string& spec) {
  const std::size_t first = spec.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos : spec.find(':', first + 1);
  if (second == std::string::npos) {
    throw std::invalid_argument(
        "partition spec wants AT_MS:HEAL_MS:G0/G1, got '" + spec + "'");
  }
  PartitionEvent event;
  event.at = millis(parse_number(spec.substr(0, first), "start time"));
  event.heal_at =
      millis(parse_number(spec.substr(first + 1, second - first - 1),
                          "heal time"));
  if (event.heal_at <= event.at) {
    throw std::invalid_argument("partition spec: heal must be after start");
  }
  std::string groups = spec.substr(second + 1);
  std::size_t pos = 0;
  while (pos <= groups.size()) {
    const std::size_t slash = groups.find('/', pos);
    const std::string group_text =
        groups.substr(pos, slash == std::string::npos ? std::string::npos
                                                      : slash - pos);
    std::vector<ProcessId> group;
    std::size_t id_pos = 0;
    while (id_pos <= group_text.size()) {
      const std::size_t comma = group_text.find(',', id_pos);
      const std::string id_text =
          group_text.substr(id_pos, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - id_pos);
      if (id_text.empty()) {
        throw std::invalid_argument("partition spec: empty id in '" + spec +
                                    "'");
      }
      group.push_back(
          static_cast<ProcessId>(parse_number(id_text, "group id")));
      if (comma == std::string::npos) break;
      id_pos = comma + 1;
    }
    event.groups.push_back(std::move(group));
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  if (event.groups.size() < 2) {
    throw std::invalid_argument(
        "partition spec wants at least two groups, got '" + spec + "'");
  }
  return event;
}

FailurePlan FailurePlan::seeded(std::uint64_t seed, std::size_t n,
                                std::size_t apart, std::size_t simultaneous,
                                SimTime window_end) {
  Rng rng(seed * 977 + 3);
  FailurePlan plan =
      random(rng, n, simultaneous, millis(20), window_end, /*concurrent=*/true);
  const FailurePlan rest = random(rng, n, apart, millis(20), window_end);
  if (plan.crashes.empty()) return rest;
  if (rest.crashes.empty()) return plan;
  plan.crashes.insert(plan.crashes.end(), rest.crashes.begin(),
                      rest.crashes.end());
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

}  // namespace optrec
