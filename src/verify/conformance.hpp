// Quiescence-time conformance check: observed execution vs declared facts.
//
// After a run, every node's VerifyRecorder holds what actually happened; the
// registry holds what the app declared (and what analyze_schemas derived).
// Soundness of the hybrid execution model demands:
//
//   * observed call edges    ⊆ declared callees        (else the blocking
//     analysis never saw the edge and the schemas may be unsound)
//   * observed forwards      ⊆ declared forwards_to
//   * a method that blocked was not committed NonBlocking (skipped under
//     ParallelOnly, whose split-phase convention suspends everything)
//   * a method that used its continuation runs under the CP interface for
//     this machine's ExecMode (Hybrid1 legally degrades MB methods to CP,
//     so this check uses effective_schema, not the declared one)
//   * every implicit-lock acquire was matched by a release by quiescence,
//     and no deferred invocation ever waited on a lock held by its own
//     ancestor (an observed self-deadlock — the dynamic counterpart of the
//     linter's SelfDeadlock/LockOrderCycle analysis)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "verify/recorder.hpp"

namespace concert {
class Machine;
}

namespace concert::verify {

enum class ViolationKind : std::uint8_t {
  UndeclaredEdge,      ///< Executed call edge missing from callees.
  UndeclaredForward,   ///< Executed forwarding edge missing from forwards_to.
  NonBlockingBlocked,  ///< NB-committed method blocked at runtime.
  ContUseOutsideCP,    ///< Continuation manipulated outside the CP interface.
  // concert-analyze: implicit-lock tracking.
  ReentrantAcquire,       ///< Deferred invocation whose lock holder is its own ancestor.
  LockHeldAtQuiescence,   ///< Implicit lock never released (leaked bracket / quarantined deadlock).
  // concert-race: vector-clock delivery-order sanitizer.
  RacyDelivery,           ///< Observed unordered conflicting pair the static pass also flags.
  UnorderedNotFlagged,    ///< Observed unordered conflicting pair the static pass claims ordered.
  // concert-progress: quiescence-time liveness sanitizer.
  OrphanedContinuation,   ///< Context still suspended at quiescence — its reply never came.
  ReplyBalanceViolation,  ///< Observed parallel-completion width != declared multi_return.
};

const char* violation_kind_name(ViolationKind k);

struct Violation {
  ViolationKind kind;
  NodeId node = kInvalidNode;        ///< Where it was observed.
  MethodId method = kInvalidMethod;  ///< The offending method.
  MethodId other = kInvalidMethod;   ///< Edge target, if any.
  std::string message;
};

struct ConformanceReport {
  std::vector<Violation> violations;
  VerifyStats totals;  ///< Summed over all enabled nodes.

  bool clean() const { return violations.empty(); }
  bool has(ViolationKind k) const;
  const Violation* find(ViolationKind k) const;
  /// One line per violation: "node 2: [undeclared-edge] rogue -> helper ...".
  std::string to_string() const;
};

/// Checks every enabled node's recorder against the machine's registry.
/// Pure: reports, never panics (tests inspect the structured result).
ConformanceReport check_conformance(const Machine& mach);

/// Panics (ProtocolError) with the full formatted report when not clean.
/// Machine::verify_at_quiescence calls this when MachineConfig::verify is set.
void enforce_conformance(const Machine& mach);

}  // namespace concert::verify
