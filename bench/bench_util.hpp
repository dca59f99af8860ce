// Shared plumbing for the paper-table benchmark harnesses.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "machine/sim_machine.hpp"
#include "support/table.hpp"

namespace concert::bench {

/// Rejects a malformed environment variable: names it and exits 2.
[[noreturn]] inline void bad_env(const char* name, const char* wants, const char* got) {
  std::cerr << name << " wants " << wants << ", got '" << got << "'\n";
  std::exit(2);
}

/// Reads a size or a count from the environment (so the paper-scale runs are
/// one env var away from the CI-scale defaults). Unset keeps `fallback`; a
/// set value must be all digits and from 1 to INT_MAX (several harnesses
/// narrow it to int), or the harness exits 2.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  std::size_t out = 0;
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || ptr != end || out == 0 ||
      out > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    bad_env(name, "a whole number from 1 to 2147483647", v);
  }
  return out;
}

/// Reads a finite positive number from the environment; unset keeps
/// `fallback`, anything else exits 2.
inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  double out = 0;
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || ptr != end || !std::isfinite(out) || out <= 0) {
    bad_env(name, "a finite positive number", v);
  }
  return out;
}

/// Wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline MachineConfig make_config(ExecMode mode, const CostModel& costs) {
  MachineConfig cfg;
  cfg.mode = mode;
  cfg.costs = costs;
  return cfg;
}

/// Prints a header like the paper's table captions.
inline void print_caption(const std::string& text) {
  std::cout << "\n=== " << text << " ===\n";
}

}  // namespace concert::bench
