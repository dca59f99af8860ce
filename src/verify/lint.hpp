// Schema-soundness linter: the static half of concert-verify.
//
// The hybrid execution model is only correct if the compiler stand-in's
// call-graph analysis was fed sound facts: a method committed as NonBlocking
// must provably never block, and a continuation may only travel along edges
// whose both ends speak the CP convention (paper Sec. 3.2, Figs. 6/7). The
// linter re-derives the least fixpoint from the declared facts (via the same
// core/analysis.cpp code that produced the committed schemas) and reports any
// divergence as a structured diagnostic, alongside purely structural problems
// (dangling or duplicate call edges, unreachable methods).
//
// It also answers the question every Concert user asks — "why is this method
// not NB?" — with a *blame chain*: the shortest call-graph path from a method
// to the declaration that forced its MayBlock / ContinuationPassing
// classification.
//
// The linter never panics on a malformed method table; it reports. This is
// what lets tests feed it deliberately mis-declared registries that
// MethodRegistry::finalize() itself would reject.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"

namespace concert::verify {

enum class LintCode : std::uint8_t {
  DanglingCallee,       ///< Call edge to an out-of-range MethodId.
  DanglingForward,      ///< Forwarding edge to an out-of-range MethodId.
  DuplicateCallee,      ///< The same call edge declared more than once.
  ForwardNotInCallees,  ///< forwards_to entry without a matching call edge.
  ForwarderNotCP,       ///< Method with a forwarding edge not classified CP.
  ForwardTargetNotCP,   ///< Forwarding-edge target not classified CP.
  NonBlockingBlocks,    ///< NB schema but blocks_locally / a blocking callee.
  NonBlockingUsesCont,  ///< NB/MB schema but declares uses_continuation.
  SchemaMismatch,       ///< Committed schema differs from the recomputed fixpoint.
  UnreachableMethod,    ///< Not reachable from any entry point (warning).
  DuplicateName,        ///< Two methods share a name; find() is ambiguous (warning).
  // concert-analyze: lock-order deadlock detection.
  SelfDeadlock,         ///< locks_self method transitively re-invokes itself.
  LockOrderCycle,       ///< locks_self method reaches another lock of an aliasing class.
  // concert-race: commutativity analysis (verify/race.hpp).
  RacingPair,             ///< Conflicting pair where a suspension can interleave the bodies.
  NonCommutativeDelivery, ///< Atomic bodies whose unordered delivery changes the result.
  // concert-progress: reply-obligation & termination analysis (verify/progress.hpp).
  LostReply,       ///< CP interface with a path on which the reply budget is never met.
  DoubleReply,     ///< CP interface with a path that can over-reply its budget.
  ForwardLivelock, ///< Forwarding cycle without a bounded_forwarding termination argument.
};

const char* lint_code_name(LintCode c);

enum class Severity : std::uint8_t { Warning, Error };

struct Diagnostic {
  LintCode code;
  Severity severity;
  MethodId method = kInvalidMethod;  ///< The method the diagnostic anchors to.
  MethodId other = kInvalidMethod;   ///< Edge target / second method, if any.
  std::string message;               ///< Human-readable, includes names.
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;

  std::size_t error_count() const;
  std::size_t warning_count() const;
  /// No errors (warnings allowed).
  bool clean() const { return error_count() == 0; }
  bool has(LintCode c) const;
  /// First diagnostic with the given code, or nullptr.
  const Diagnostic* find(LintCode c) const;
  /// One line per diagnostic: "error: [nb-blocks] fib: ...".
  std::string to_string() const;
};

/// Lints a raw method table (tests feed tampered tables directly).
LintReport lint_methods(const std::vector<MethodInfo>& methods);

/// Lints a finalized registry.
LintReport lint_registry(const MethodRegistry& reg);

// ---------------------------------------------------------------------------
// Blame chains: why is this method not NB?
// ---------------------------------------------------------------------------

struct BlameChain {
  MethodId method = kInvalidMethod;
  Schema schema = Schema::NonBlocking;
  /// Call-graph path method -> ... -> cause (shortest; [method] alone when the
  /// method itself is the cause; empty when no cause exists, i.e. the method
  /// is NB or its committed schema is unsound).
  std::vector<MethodId> path;
  /// What the cause declares: "blocks locally", "stores or uses its
  /// continuation", "forwards its continuation to X", ...
  std::string reason;
};

/// Explains one method's classification from the declared facts.
BlameChain explain_schema(const std::vector<MethodInfo>& methods, MethodId m);

// ---------------------------------------------------------------------------
// concert-analyze: lock-order deadlock detection.
// ---------------------------------------------------------------------------

/// A potential implicit-lock deadlock: while `holder` (a locks_self method)
/// holds its target's lock, the declared invocation graph — call edges and
/// forwarding edges alike — can reach `reacquirer`, another locks_self method
/// whose class may alias the holder's. If the targets coincide at runtime the
/// re-acquisition defers forever behind the held lock (the holder cannot
/// complete until the path it spawned does). `path` is the shortest witness,
/// holder first, reacquirer last (holder == reacquirer for self cycles).
struct LockCycle {
  MethodId holder = kInvalidMethod;
  MethodId reacquirer = kInvalidMethod;
  std::vector<MethodId> path;
};

/// Whether two methods' implicit locks may guard the same object: same
/// class_id, or either is 0 (unclassed — conservatively aliases everything).
bool locks_may_alias(const MethodInfo& a, const MethodInfo& b);

/// Finds every potential lock cycle (one shortest witness per holder).
/// Pure and panic-free, like lint_methods.
std::vector<LockCycle> find_lock_cycles(const std::vector<MethodInfo>& methods);

/// "bump [locks]: bump -> helper -> bump (re-acquires the lock it holds)".
std::string format_lock_cycle(const std::vector<MethodInfo>& methods, const LockCycle& cycle);

/// "fib [MB]: fib -> helper (blocks locally)" — one line.
std::string format_blame(const std::vector<MethodInfo>& methods, const BlameChain& chain);

/// One formatted blame line per non-NB method of a finalized registry.
std::string blame_report(const MethodRegistry& reg);

}  // namespace concert::verify
