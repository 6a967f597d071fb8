// Minimal flag parsing shared by the bench binaries. Supports
// "--name value" and "--name=value"; unknown flags are ignored so each
// bench reads only the flags it understands. A flag present with no usable
// value (bare at argv's end, or followed by / set to another "--flag") is
// reported loudly and treated as its fallback — never as absent, which
// used to make a bare "--threads" silently run scalability's full sweep.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/campaign.h"

namespace scout::bench {

// Presence of a bare boolean flag, e.g. --paper.
inline bool bool_flag(int argc, char** argv, std::string_view name) {
  const std::string token = "--" + std::string{name};
  for (int i = 1; i < argc; ++i) {
    if (token == argv[i]) return true;
  }
  return false;
}

// Lookup of "--name value" / "--name=value" that distinguishes an absent
// flag from one present without a usable value. A value that itself starts
// with "--" is rejected: it is almost certainly the next flag, not a value
// (no bench flag takes a negative or flag-shaped argument). A repeated
// flag follows the usual last-wins convention, so appended overrides
// ("scalability --threads 2 $EXTRA") behave as scripts expect.
struct FlagLookup {
  bool present = false;
  const char* value = nullptr;  // non-null only when a usable value exists
};

inline FlagLookup find_flag(int argc, char** argv, std::string_view name) {
  const std::string prefix = "--" + std::string{name};
  const std::string prefix_eq = prefix + "=";
  FlagLookup found;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const char* value = nullptr;
    if (arg == prefix) {
      if (i + 1 < argc) value = argv[i + 1];
    } else if (arg.rfind(prefix_eq, 0) == 0) {
      value = argv[i] + prefix_eq.size();
    } else {
      continue;
    }
    if (value != nullptr && std::string_view{value}.rfind("--", 0) == 0) {
      value = nullptr;
    }
    found = FlagLookup{true, value};
  }
  return found;
}

// Usable value of "--name", warning (once per call) when the flag is
// present but valueless instead of pretending it was never passed.
inline const char* flag_value(int argc, char** argv, std::string_view name) {
  const FlagLookup flag = find_flag(argc, argv, name);
  if (flag.present && flag.value == nullptr) {
    std::fprintf(stderr,
                 "warning: --%.*s needs a value (none given, or the next "
                 "token is another --flag); using the default\n",
                 static_cast<int>(name.size()), name.data());
  }
  return flag.value;
}

// Parse a non-negative integer; nullopt on anything strtoull would mangle
// (junk, empty, or a '-' — even after leading blanks — which strtoull
// silently wraps).
inline std::optional<std::size_t> parse_size(const char* raw) {
  if (raw == nullptr || *raw < '0' || *raw > '9') return std::nullopt;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return std::nullopt;
  return static_cast<std::size_t>(value);
}

// Parse a number in [0, 1] (a rate or probability); nullopt on junk,
// trailing characters, NaN or anything outside the interval.
inline std::optional<double> parse_fraction(const char* raw) {
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || !(value >= 0.0 && value <= 1.0)) {
    return std::nullopt;
  }
  return value;
}

// Value clamped into [min, max]; unparsable input falls back (with a note
// on stderr) rather than flowing garbage into the experiment.
inline std::size_t size_flag(int argc, char** argv, std::string_view name,
                             std::size_t fallback, std::size_t min = 0,
                             std::size_t max = SIZE_MAX) {
  const char* raw = flag_value(argc, argv, name);
  if (raw == nullptr) return fallback;
  const std::optional<std::size_t> parsed = parse_size(raw);
  if (!parsed) {
    std::fprintf(stderr, "warning: ignoring malformed --%.*s value '%s'\n",
                 static_cast<int>(name.size()), name.data(), raw);
    return fallback;
  }
  return std::clamp(*parsed, min, max);
}

// Comma-separated size list, e.g. --sizes 10,30,50. Malformed or zero
// entries are dropped; an empty result falls back.
inline std::vector<std::size_t> list_flag(int argc, char** argv,
                                          std::string_view name,
                                          std::vector<std::size_t> fallback) {
  const char* raw = flag_value(argc, argv, name);
  if (raw == nullptr) return fallback;
  std::vector<std::size_t> out;
  const std::string text{raw};
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (const std::optional<std::size_t> parsed = parse_size(item.c_str());
        parsed && *parsed > 0) {
      out.push_back(*parsed);
    } else if (!item.empty()) {
      std::fprintf(stderr, "warning: dropping malformed --%.*s entry '%s'\n",
                   static_cast<int>(name.size()), name.data(), item.c_str());
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out.empty() ? fallback : out;
}

inline std::string string_flag(int argc, char** argv, std::string_view name,
                               std::string fallback) {
  const char* raw = flag_value(argc, argv, name);
  return raw == nullptr ? std::move(fallback) : std::string{raw};
}

// Wall-clock scaffold shared by the sweep benches: start on construction,
// read elapsed time when the measured region ends.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Hard cap on --threads across every bench: typos and unquoted script
// variables should degrade, not exhaust the process's thread limit.
inline constexpr std::size_t kMaxBenchThreads = 256;

// The shared "--threads N" handling: parse, clamp, build the executor.
inline std::unique_ptr<runtime::Executor> executor_from_flags(int argc,
                                                              char** argv) {
  return runtime::make_executor(size_flag(argc, argv, "threads", 1,
                                          /*min=*/1, kMaxBenchThreads));
}

}  // namespace scout::bench
