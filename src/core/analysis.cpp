#include "core/analysis.hpp"

#include "support/panic.hpp"

namespace concert {

FlowFacts compute_flow_facts(const std::vector<MethodInfo>& methods) {
  const std::size_t n = methods.size();
  FlowFacts f;
  f.may_block.assign(n, 0);
  f.needs_continuation.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    f.may_block[i] = methods[i].blocks_locally ? 1 : 0;
    f.needs_continuation[i] = methods[i].uses_continuation ? 1 : 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (MethodId c : methods[i].forwards_to) {
      if (c >= n) continue;  // dangling edge: reported by the linter
      // Forwarding passes the continuation explicitly: the forwarder needs
      // its caller's info to hand over, and the target receives a
      // continuation it may manipulate — both ends require the CP interface.
      f.needs_continuation[i] = 1;
      f.needs_continuation[c] = 1;
    }
  }
  // A method that can take its continuation can defer its reply arbitrarily,
  // so its callers must treat the call as blocking. Seed this before the
  // fixpoint so it propagates up the call graph.
  for (std::size_t i = 0; i < n; ++i) {
    if (f.needs_continuation[i]) f.may_block[i] = 1;
  }

  // Least fixpoint; the graph is small (a program's method count), so simple
  // iteration to convergence is fine and obviously correct.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (f.may_block[i]) continue;
      for (MethodId c : methods[i].callees) {
        if (c < n && f.may_block[c]) {
          f.may_block[i] = 1;
          changed = true;
          break;
        }
      }
      // (needs_continuation is not transitive over plain calls: a method that
      // merely *calls* a CP method builds a fresh CallerInfo at the call
      // site; only forwarding edges — handled above — propagate the need.)
    }
  }
  return f;
}

Schema schema_from_facts(bool may_block, bool needs_continuation) {
  // Forwarding a continuation into a callee only makes sense if the chain
  // can actually consume it somewhere; a forward into a subgraph that never
  // uses continuations is treated as a plain call (matches the compiler,
  // which would never emit the CP convention there).
  if (needs_continuation) return Schema::ContinuationPassing;
  if (may_block) return Schema::MayBlock;
  return Schema::NonBlocking;
}

void analyze_schemas(std::vector<MethodInfo>& methods) {
  const std::size_t n = methods.size();
  for (auto& m : methods) {
    for (MethodId c : m.callees) CONCERT_CHECK(c < n, m.name << " calls bad method id " << c);
    for (MethodId c : m.forwards_to) {
      CONCERT_CHECK(c < n, m.name << " forwards to bad id " << c);
    }
  }

  const FlowFacts f = compute_flow_facts(methods);
  for (std::size_t i = 0; i < n; ++i) {
    MethodInfo& m = methods[i];
    m.may_block = f.may_block[i] != 0;
    m.needs_continuation = f.needs_continuation[i] != 0;
    m.schema = schema_from_facts(m.may_block, m.needs_continuation);
    // Implicit locking releases at activation completion, which for a CP
    // method may be delegated through its continuation — undecidable at the
    // call site. The compiler would reject such a class; so do we.
    CONCERT_CHECK(!(m.locks_self && m.schema == Schema::ContinuationPassing),
                  m.name << ": implicit locking is not supported on CP methods");
    CONCERT_CHECK(m.multi_return >= 1 && m.multi_return <= kMaxReturns,
                  m.name << ": multi_return out of range");
    CONCERT_CHECK(!(m.multi_return > 1 && m.schema == Schema::ContinuationPassing),
                  m.name << ": multiple return values are not supported on CP methods");
  }
}

}  // namespace concert
