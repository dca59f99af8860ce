#include "verify/lint.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/analysis.hpp"
#include "support/panic.hpp"
#include "verify/progress.hpp"
#include "verify/race.hpp"

namespace concert::verify {

namespace {

std::string join_path(const std::vector<MethodInfo>& methods, const std::vector<MethodId>& path) {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) os << " -> ";
    os << method_name_or_id(methods, path[i]);
  }
  return os.str();
}

void add(LintReport& report, LintCode code, Severity sev, MethodId m, MethodId other,
         std::string message) {
  report.diagnostics.push_back(Diagnostic{code, sev, m, other, std::move(message)});
}

}  // namespace

const char* lint_code_name(LintCode c) {
  switch (c) {
    case LintCode::DanglingCallee: return "dangling-callee";
    case LintCode::DanglingForward: return "dangling-forward";
    case LintCode::DuplicateCallee: return "duplicate-callee";
    case LintCode::ForwardNotInCallees: return "forward-not-in-callees";
    case LintCode::ForwarderNotCP: return "forwarder-not-cp";
    case LintCode::ForwardTargetNotCP: return "forward-target-not-cp";
    case LintCode::NonBlockingBlocks: return "nb-blocks";
    case LintCode::NonBlockingUsesCont: return "non-cp-uses-continuation";
    case LintCode::SchemaMismatch: return "schema-mismatch";
    case LintCode::UnreachableMethod: return "unreachable";
    case LintCode::DuplicateName: return "duplicate-name";
    case LintCode::SelfDeadlock: return "self-deadlock";
    case LintCode::LockOrderCycle: return "lock-order-cycle";
    case LintCode::RacingPair: return "racing-pair";
    case LintCode::NonCommutativeDelivery: return "non-commutative-delivery";
    case LintCode::LostReply: return "lost-reply";
    case LintCode::DoubleReply: return "double-reply";
    case LintCode::ForwardLivelock: return "forward-livelock";
  }
  return "?";
}

std::size_t LintReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::Error; }));
}

std::size_t LintReport::warning_count() const { return diagnostics.size() - error_count(); }

bool LintReport::has(LintCode c) const { return find(c) != nullptr; }

const Diagnostic* LintReport::find(LintCode c) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == c) return &d;
  }
  return nullptr;
}

std::string LintReport::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << (d.severity == Severity::Error ? "error" : "warning") << ": [" << lint_code_name(d.code)
       << "] " << d.message << "\n";
  }
  return os.str();
}

LintReport lint_methods(const std::vector<MethodInfo>& methods) {
  const std::size_t n = methods.size();
  LintReport report;

  // --- structural edge checks -----------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const MethodInfo& m = methods[i];
    const MethodId mi = static_cast<MethodId>(i);

    std::unordered_set<MethodId> seen;
    std::unordered_set<MethodId> duplicated;
    for (MethodId c : m.callees) {
      if (c >= n) {
        std::ostringstream os;
        os << m.name << ": call edge to unregistered method id " << c;
        add(report, LintCode::DanglingCallee, Severity::Error, mi, c, os.str());
        continue;
      }
      if (!seen.insert(c).second && duplicated.insert(c).second) {
        std::ostringstream os;
        os << m.name << ": call edge to " << method_name_or_id(methods, c)
           << " declared more than once";
        add(report, LintCode::DuplicateCallee, Severity::Warning, mi, c, os.str());
      }
    }

    for (MethodId c : m.forwards_to) {
      if (c >= n) {
        std::ostringstream os;
        os << m.name << ": forwarding edge to unregistered method id " << c;
        add(report, LintCode::DanglingForward, Severity::Error, mi, c, os.str());
        continue;
      }
      if (seen.find(c) == seen.end()) {
        std::ostringstream os;
        os << m.name << ": forwards to " << method_name_or_id(methods, c)
           << " without a matching call edge";
        add(report, LintCode::ForwardNotInCallees, Severity::Error, mi, c, os.str());
      }
      // Both ends of a forwarding edge must speak the CP convention: the
      // forwarder hands its caller's continuation over, the target receives a
      // continuation it may manipulate (paper Sec. 3.2.3).
      if (m.schema != Schema::ContinuationPassing) {
        std::ostringstream os;
        os << m.name << ": forwards its continuation to " << method_name_or_id(methods, c)
           << " but is classified " << schema_name(m.schema) << ", not CP";
        add(report, LintCode::ForwarderNotCP, Severity::Error, mi, c, os.str());
      }
      if (methods[c].schema != Schema::ContinuationPassing) {
        std::ostringstream os;
        os << m.name << ": forwarding edge targets " << method_name_or_id(methods, c)
           << " which is classified " << schema_name(methods[c].schema) << ", not CP";
        add(report, LintCode::ForwardTargetNotCP, Severity::Error, mi, c, os.str());
      }
    }

    if (m.uses_continuation && m.schema != Schema::ContinuationPassing) {
      std::ostringstream os;
      os << m.name << ": declares uses_continuation but is classified " << schema_name(m.schema)
         << ", not CP";
      add(report, LintCode::NonBlockingUsesCont, Severity::Error, mi, kInvalidMethod, os.str());
    }
  }

  // --- soundness cross-check of the committed schemas -----------------------
  // Recompute the least fixpoint from the declared facts with the exact
  // algorithm finalize() ran, then compare method by method.
  const FlowFacts facts = compute_flow_facts(methods);
  for (std::size_t i = 0; i < n; ++i) {
    const MethodInfo& m = methods[i];
    const MethodId mi = static_cast<MethodId>(i);
    const Schema computed =
        schema_from_facts(facts.may_block[i] != 0, facts.needs_continuation[i] != 0);
    if (computed == m.schema) continue;
    // A method already flagged by a more specific edge diagnostic would only
    // repeat itself here.
    const bool already_flagged =
        std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                    [mi](const Diagnostic& d) {
                      return d.method == mi && d.severity == Severity::Error &&
                             (d.code == LintCode::ForwarderNotCP ||
                              d.code == LintCode::NonBlockingUsesCont);
                    });
    if (m.schema == Schema::NonBlocking && facts.may_block[i]) {
      const BlameChain chain = explain_schema(methods, mi);
      std::ostringstream os;
      os << m.name << ": classified NB but the declared call graph can block: "
         << join_path(methods, chain.path) << " (" << chain.reason << ")";
      add(report, LintCode::NonBlockingBlocks, Severity::Error, mi,
          chain.path.empty() ? kInvalidMethod : chain.path.back(), os.str());
    } else if (!already_flagged) {
      std::ostringstream os;
      os << m.name << ": committed schema " << schema_name(m.schema)
         << " does not match the recomputed fixpoint (" << schema_name(computed) << ")";
      add(report, LintCode::SchemaMismatch, Severity::Error, mi, kInvalidMethod, os.str());
    }
  }

  // --- lock-order deadlock detection (concert-analyze) -----------------------
  for (const LockCycle& cycle : find_lock_cycles(methods)) {
    const bool self = cycle.holder == cycle.reacquirer;
    add(report, self ? LintCode::SelfDeadlock : LintCode::LockOrderCycle, Severity::Error,
        cycle.holder, cycle.reacquirer, format_lock_cycle(methods, cycle));
  }

  // --- racing-pair / commutativity analysis (concert-race) -------------------
  for (const RacePair& race : analyze_races(methods).races) {
    add(report,
        race.both_atomic ? LintCode::NonCommutativeDelivery : LintCode::RacingPair,
        Severity::Error, race.a, race.b, format_race(methods, race));
  }

  // --- reply-obligation / termination analysis (concert-progress) ------------
  for (const ProgressIssue& issue : analyze_progress(methods).issues) {
    LintCode code = LintCode::LostReply;
    if (issue.kind == ProgressIssueKind::DoubleReply) code = LintCode::DoubleReply;
    if (issue.kind == ProgressIssueKind::ForwardLivelock) code = LintCode::ForwardLivelock;
    add(report, code, Severity::Error, issue.method, issue.other,
        format_progress_issue(methods, issue));
  }

  // --- reachability ----------------------------------------------------------
  // Entry points are methods no *other* method calls (self-recursion ignored);
  // anything not reachable from an entry point can only be invoked by code
  // that never declared the edge — dead weight or a missing add_callee.
  {
    std::vector<std::uint32_t> external_in(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (MethodId c : methods[i].callees) {
        if (c < n && c != i) ++external_in[c];
      }
      for (MethodId c : methods[i].forwards_to) {
        if (c < n && c != i) ++external_in[c];
      }
    }
    std::vector<std::uint8_t> reached(n, 0);
    std::deque<MethodId> frontier;
    for (std::size_t i = 0; i < n; ++i) {
      if (external_in[i] == 0) {
        reached[i] = 1;
        frontier.push_back(static_cast<MethodId>(i));
      }
    }
    while (!frontier.empty()) {
      const MethodId m = frontier.front();
      frontier.pop_front();
      for (MethodId c : methods[m].callees) {
        if (c < n && !reached[c]) {
          reached[c] = 1;
          frontier.push_back(c);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!reached[i]) {
        std::ostringstream os;
        os << methods[i].name
           << ": not reachable from any entry point (every caller is itself unreachable)";
        add(report, LintCode::UnreachableMethod, Severity::Warning, static_cast<MethodId>(i),
            kInvalidMethod, os.str());
      }
    }
  }

  // --- name collisions -------------------------------------------------------
  {
    std::unordered_map<std::string, MethodId> first;
    for (std::size_t i = 0; i < n; ++i) {
      auto [it, inserted] = first.emplace(methods[i].name, static_cast<MethodId>(i));
      if (!inserted) {
        std::ostringstream os;
        os << methods[i].name << ": name already used by method id " << it->second
           << " (find() is ambiguous)";
        add(report, LintCode::DuplicateName, Severity::Warning, static_cast<MethodId>(i),
            it->second, os.str());
      }
    }
  }

  return report;
}

LintReport lint_registry(const MethodRegistry& reg) {
  CONCERT_CHECK(reg.finalized(), "lint_registry needs a finalized registry");
  return lint_methods(reg.methods());
}

// ---------------------------------------------------------------------------
// Lock-order deadlock detection
// ---------------------------------------------------------------------------

bool locks_may_alias(const MethodInfo& a, const MethodInfo& b) {
  return a.class_id == 0 || b.class_id == 0 || a.class_id == b.class_id;
}

std::vector<LockCycle> find_lock_cycles(const std::vector<MethodInfo>& methods) {
  const std::size_t n = methods.size();
  std::vector<LockCycle> cycles;
  for (std::size_t h = 0; h < n; ++h) {
    const MethodInfo& holder = methods[h];
    if (!holder.locks_self) continue;
    // While `holder` runs, its target's lock is held for the entire
    // activation — including everything the activation invokes, directly or
    // through forwarded continuations (a fallen-back callee keeps running
    // under the held lock until the holder's own completion releases it).
    // BFS over call ∪ forwarding edges from the holder's callees; the first
    // locks_self method of an aliasing class reached is the shortest
    // potential re-acquisition. Forwarding edges are normally a subset of
    // call edges, but tampered tables may declare them alone — walk both.
    std::vector<MethodId> parent(n, kInvalidMethod);
    std::vector<std::uint8_t> seen(n, 0);
    std::deque<MethodId> frontier;
    MethodId hit = kInvalidMethod;
    const auto visit = [&](MethodId from, MethodId to) {
      if (to >= n || seen[to] || hit != kInvalidMethod) return;
      seen[to] = 1;
      parent[to] = from;
      if (methods[to].locks_self && locks_may_alias(holder, methods[to])) {
        hit = to;
        return;
      }
      frontier.push_back(to);
    };
    const MethodId hm = static_cast<MethodId>(h);
    for (MethodId c : holder.callees) visit(hm, c);
    for (MethodId c : holder.forwards_to) visit(hm, c);
    while (hit == kInvalidMethod && !frontier.empty()) {
      const MethodId cur = frontier.front();
      frontier.pop_front();
      for (MethodId c : methods[cur].callees) visit(cur, c);
      for (MethodId c : methods[cur].forwards_to) visit(cur, c);
    }
    if (hit == kInvalidMethod) continue;
    LockCycle cycle;
    cycle.holder = hm;
    cycle.reacquirer = hit;
    // Walk parents back to the holder. The holder is pushed when reached —
    // which for a self cycle (hit == hm) is the *second* time it appears, so
    // the witness reads "L -> ... -> L".
    for (MethodId cur = hit;; cur = parent[cur]) {
      cycle.path.push_back(cur);
      if (cur == hm && cycle.path.size() > 1) break;
    }
    std::reverse(cycle.path.begin(), cycle.path.end());
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

std::string format_lock_cycle(const std::vector<MethodInfo>& methods, const LockCycle& cycle) {
  std::ostringstream os;
  os << method_name_or_id(methods, cycle.holder) << " [locks]: " << join_path(methods, cycle.path);
  if (cycle.holder == cycle.reacquirer) {
    os << " (re-invokes itself while its target's implicit lock is still held"
       << " — the re-acquisition defers forever)";
  } else {
    const MethodInfo& re = methods[cycle.reacquirer];
    os << " (" << method_name_or_id(methods, cycle.reacquirer)
       << " re-acquires the implicit lock of ";
    if (re.class_id == 0 || methods[cycle.holder].class_id == 0) {
      os << "a possibly-aliasing class";
    } else {
      os << "class " << re.class_id;
    }
    os << " while " << method_name_or_id(methods, cycle.holder) << " still holds it)";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Blame chains
// ---------------------------------------------------------------------------

BlameChain explain_schema(const std::vector<MethodInfo>& methods, MethodId m) {
  const std::size_t n = methods.size();
  CONCERT_CHECK(m < n, "explain_schema: bad method id " << m);
  const FlowFacts facts = compute_flow_facts(methods);

  BlameChain chain;
  chain.method = m;
  chain.schema = schema_from_facts(facts.may_block[m] != 0, facts.needs_continuation[m] != 0);

  if (chain.schema == Schema::NonBlocking) {
    chain.reason = "provably non-blocking";
    return chain;
  }

  if (chain.schema == Schema::ContinuationPassing) {
    if (methods[m].uses_continuation) {
      chain.path = {m};
      chain.reason = "stores or uses its continuation";
      return chain;
    }
    for (MethodId t : methods[m].forwards_to) {
      if (t < n) {
        chain.path = {m, t};
        chain.reason = "forwards its continuation to " + method_name_or_id(methods, t);
        return chain;
      }
    }
    for (std::size_t f = 0; f < n; ++f) {
      for (MethodId t : methods[f].forwards_to) {
        if (t == m) {
          chain.path = {m};
          chain.reason = "receives a forwarded continuation from " +
                         method_name_or_id(methods, static_cast<MethodId>(f));
          return chain;
        }
      }
    }
    chain.reason = "needs its continuation (no declared cause — inconsistent facts)";
    return chain;
  }

  // MayBlock: BFS over call edges for the nearest cause. A cause is a method
  // that blocks locally, or one that needs its continuation (it can defer its
  // reply arbitrarily, so callers must treat the call as blocking).
  const auto is_cause = [&](MethodId x) {
    return methods[x].blocks_locally || facts.needs_continuation[x] != 0;
  };
  std::vector<MethodId> parent(n, kInvalidMethod);
  std::vector<std::uint8_t> seen(n, 0);
  std::deque<MethodId> frontier{m};
  seen[m] = 1;
  MethodId cause = kInvalidMethod;
  if (is_cause(m)) cause = m;
  while (cause == kInvalidMethod && !frontier.empty()) {
    const MethodId cur = frontier.front();
    frontier.pop_front();
    for (MethodId c : methods[cur].callees) {
      if (c >= n || seen[c]) continue;
      seen[c] = 1;
      parent[c] = cur;
      if (is_cause(c)) {
        cause = c;
        break;
      }
      frontier.push_back(c);
    }
  }
  if (cause == kInvalidMethod) {
    chain.reason = "may block (no declared cause — inconsistent facts)";
    return chain;
  }
  for (MethodId cur = cause; cur != kInvalidMethod; cur = parent[cur]) {
    chain.path.push_back(cur);
    if (cur == m) break;
  }
  std::reverse(chain.path.begin(), chain.path.end());
  chain.reason = methods[cause].blocks_locally
                     ? "blocks locally"
                     : "may defer its reply through its continuation";
  return chain;
}

std::string format_blame(const std::vector<MethodInfo>& methods, const BlameChain& chain) {
  std::ostringstream os;
  os << method_name_or_id(methods, chain.method) << " [" << schema_name(chain.schema) << "]: ";
  if (!chain.path.empty() && !(chain.path.size() == 1 && chain.path[0] == chain.method)) {
    os << join_path(methods, chain.path) << " (" << chain.reason << ")";
  } else {
    os << chain.reason;
  }
  return os.str();
}

std::string blame_report(const MethodRegistry& reg) {
  CONCERT_CHECK(reg.finalized(), "blame_report needs a finalized registry");
  const std::vector<MethodInfo>& methods = reg.methods();
  std::ostringstream os;
  for (std::size_t i = 0; i < methods.size(); ++i) {
    if (methods[i].schema == Schema::NonBlocking) continue;
    os << format_blame(methods, explain_schema(methods, static_cast<MethodId>(i))) << "\n";
  }
  return os.str();
}

}  // namespace concert::verify
