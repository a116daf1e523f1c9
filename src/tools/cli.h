// Command-line helpers shared by every optrec tool: `--name` /
// `--name=VALUE` flag matching, checked number and name parsing, and the
// usage-error exit. Every usage error prints "<tool>: <message>" to stderr
// and exits with code 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/app/workload.h"
#include "src/harness/protocol_factory.h"

namespace optrec::cli {

/// Prefix of every usage error; each tool sets it first thing in main().
inline const char* tool_name = "optrec";

[[noreturn]] inline void die(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool_name, message.c_str());
  std::exit(2);
}

/// True when `arg` is `name` (value becomes "") or `name=VALUE`.
inline bool parse_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// True when `arg` is flag `name` in either form.
inline bool is_flag(const char* arg, const char* name) {
  std::string value;
  return parse_flag(arg, name, &value);
}

inline std::uint64_t parse_u64(const std::string& value, const char* flag) {
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    die(std::string("bad value for ") + flag + ": '" + value + "'");
  }
  return parsed;
}

inline double parse_double(const std::string& value, const char* flag) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    die(std::string("bad value for ") + flag + ": '" + value + "'");
  }
  return parsed;
}

inline ProtocolKind parse_protocol(const std::string& name) {
  try {
    return protocol_from_name(name);
  } catch (const std::invalid_argument&) {
    die("unknown protocol '" + name + "'");
  }
}

inline WorkloadKind parse_workload(const std::string& name) {
  try {
    return workload_from_name(name);
  } catch (const std::invalid_argument&) {
    die("unknown workload '" + name + "'");
  }
}

}  // namespace optrec::cli
