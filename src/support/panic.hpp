// Invariant checking used throughout the runtime.
//
// The hybrid execution model relies on protocol invariants (e.g. "a
// Non-blocking method never returns a fallback context"); violating one is a
// programming error in generated code, not a recoverable condition, so checks
// are always on and throw `concert::ProtocolError`.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace concert {

/// Thrown when a runtime protocol invariant is violated.
class ProtocolError : public std::logic_error {
 public:
  explicit ProtocolError(const std::string& what) : std::logic_error(what) {}
};

// Cold and never inlined: the message formatting stays out of every caller.
[[noreturn, gnu::cold, gnu::noinline]] inline void panic_at(const char* file, int line,
                                                           const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": " << msg;
  throw ProtocolError(os.str());
}

}  // namespace concert

/// Always-on invariant check. `msg` is streamed, so `CONCERT_CHECK(x > 0, "x=" << x)` works.
/// The unparenthesized `msg` expansion is the point — it splices a `<<` chain.
/// The failure branch is a cold, never-inlined lambda behind a predicted-false
/// test, so a check on a hot path costs one compare-and-branch: the stream
/// formatting (and its stack frame) stays out of the checking function.
#define CONCERT_CHECK(cond, msg)                                        \
  do {                                                                  \
    if (__builtin_expect(!(cond), 0)) {                                 \
      [&]() __attribute__((cold, noinline)) {                           \
        std::ostringstream concert_check_os_;                           \
        concert_check_os_ << "CHECK failed: " #cond " — " << msg; /* NOLINT(bugprone-macro-parentheses) */ \
        ::concert::panic_at(__FILE__, __LINE__, concert_check_os_.str()); \
      }();                                                              \
    }                                                                   \
  } while (0)

#define CONCERT_UNREACHABLE(msg) ::concert::panic_at(__FILE__, __LINE__, std::string("unreachable: ") + (msg))
