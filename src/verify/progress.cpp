#include "verify/progress.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <sstream>

#include "verify/lint.hpp"

namespace concert::verify {

namespace {

std::string join_path(const std::vector<MethodInfo>& methods, const std::vector<MethodId>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += " -> ";
    out += method_name_or_id(methods, path[i]);
  }
  return out;
}

/// In-range forwarding successors of `m` (dangling edges are lint's problem —
/// ForwardTargetNotCP / structural checks already blame them).
std::vector<MethodId> forward_succ(const std::vector<MethodInfo>& methods, MethodId m) {
  std::vector<MethodId> out;
  for (MethodId t : methods[m].forwards_to) {
    if (t < methods.size()) out.push_back(t);
  }
  return out;
}

/// Shortest-path BFS over forwarding edges from `from`; fills parent links so
/// callers can reconstruct a blame chain. parent[from] stays kInvalidMethod.
std::vector<MethodId> forward_closure(const std::vector<MethodInfo>& methods, MethodId from,
                                      std::vector<MethodId>& parent) {
  parent.assign(methods.size(), kInvalidMethod);
  std::vector<char> seen(methods.size(), 0);
  std::vector<MethodId> order;
  std::deque<MethodId> queue;
  queue.push_back(from);
  seen[from] = 1;
  while (!queue.empty()) {
    const MethodId cur = queue.front();
    queue.pop_front();
    order.push_back(cur);
    for (MethodId t : forward_succ(methods, cur)) {
      if (seen[t]) continue;
      seen[t] = 1;
      parent[t] = cur;
      queue.push_back(t);
    }
  }
  return order;
}

/// Reconstructs from -> ... -> to through the parent links of forward_closure.
std::vector<MethodId> witness_path(const std::vector<MethodId>& parent, MethodId from,
                                   MethodId to) {
  std::vector<MethodId> path{to};
  for (MethodId cur = to; cur != from;) {
    cur = parent[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

ProgressAnalysis analyze_progress(const std::vector<MethodInfo>& methods) {
  ProgressAnalysis out;

  // --- reply-obligation checks, one committed-CP interface at a time -------
  for (MethodId f = 0; f < methods.size(); ++f) {
    const MethodInfo& fi = methods[f];
    if (fi.schema != Schema::ContinuationPassing) continue;

    std::vector<MethodId> parent;
    const std::vector<MethodId> closure = forward_closure(methods, f, parent);
    const std::uint8_t budget = fi.multi_return;

    for (MethodId e : closure) {
      const MethodInfo& ei = methods[e];
      const std::vector<MethodId> succ = forward_succ(methods, e);

      // Fan-out forward: e moves its ONE reply obligation to several targets,
      // each of which will discharge the same continuation. This is the only
      // over-reply shape a sealed registry can express — seal-time invariants
      // reject multi_return > 1 on CP methods, so width arithmetic alone can
      // never exceed the budget there (it still can on tampered tables; see
      // the w_hi check below).
      if (succ.size() > 1) {
        ProgressIssue issue;
        issue.kind = ProgressIssueKind::DoubleReply;
        issue.method = f;
        issue.other = e;
        issue.path = witness_path(parent, f, e);
        std::ostringstream why;
        why << method_name_or_id(methods, e) << " forwards its single reply obligation to "
            << succ.size() << " targets (";
        for (std::size_t i = 0; i < succ.size(); ++i) {
          why << (i ? ", " : "") << method_name_or_id(methods, succ[i]);
        }
        why << "); each discharge fills the same future slot";
        issue.detail = why.str();
        out.issues.push_back(std::move(issue));
      }

      const bool endpoint = succ.empty() || ei.bounded_forwarding;
      if (!endpoint) continue;  // obligation keeps moving; the cycle rule owns it

      if (ei.uses_continuation) {
        // The reply comes from a declared replier draining the banked
        // continuation, not from e's own completion — so budget arithmetic on
        // e's width would be wrong. Anchor the banker checks at the banker's
        // own interface entry (f == e) so a chain that forwards *into* a
        // banker doesn't duplicate them.
        if (f != e) continue;
        if (ei.repliers.empty()) {
          ProgressIssue issue;
          issue.kind = ProgressIssueKind::LostReply;
          issue.method = f;
          issue.other = f;
          issue.path = {f};
          issue.detail = "banks its continuation (uses_continuation) but declares no replier";
          out.issues.push_back(std::move(issue));
          continue;
        }
        for (MethodId r : ei.repliers) {
          if (r >= methods.size() || locks_may_alias(ei, methods[r])) continue;
          ProgressIssue issue;
          issue.kind = ProgressIssueKind::LostReply;
          issue.method = f;
          issue.other = r;
          issue.path = {f, r};
          issue.detail = "declared replier " + method_name_or_id(methods, r) +
                         " runs on class " + std::to_string(methods[r].class_id) +
                         ", which can never alias the banker's class " +
                         std::to_string(ei.class_id);
          out.issues.push_back(std::move(issue));
        }
        continue;
      }

      // One completion of an NB/MB endpoint delivers its full multi_return
      // batch through the synchronous wrapper. A CP endpoint discharges
      // through the continuation protocol — exactly ONE value on the stack
      // path (wrapper.cpp replies rv[0] when the body returns without moving
      // the obligation) but its declared multi_return on the heap path. The
      // interface is balanced only when every width the endpoint can produce
      // equals the budget.
      const bool cp = ei.schema == Schema::ContinuationPassing;
      const std::uint8_t w_lo = cp ? std::uint8_t{1} : ei.multi_return;
      const std::uint8_t w_hi = ei.multi_return;
      if (w_lo < budget) {
        ProgressIssue issue;
        issue.kind = ProgressIssueKind::LostReply;
        issue.method = f;
        issue.other = e;
        issue.path = witness_path(parent, f, e);
        std::ostringstream why;
        why << "endpoint " << method_name_or_id(methods, e)
            << (cp ? "'s stack-path discharge delivers " : " replies ")
            << static_cast<unsigned>(w_lo) << " value" << (w_lo == 1 ? "" : "s")
            << " against a declared budget of " << static_cast<unsigned>(budget) << "; "
            << static_cast<unsigned>(budget - w_lo) << " future slot"
            << (budget - w_lo == 1 ? "" : "s") << " never fill";
        issue.detail = why.str();
        out.issues.push_back(std::move(issue));
      }
      if (w_hi > budget) {
        ProgressIssue issue;
        issue.kind = ProgressIssueKind::DoubleReply;
        issue.method = f;
        issue.other = e;
        issue.path = witness_path(parent, f, e);
        std::ostringstream why;
        why << "endpoint " << method_name_or_id(methods, e)
            << (cp ? "'s heap-path completion delivers " : " replies ")
            << static_cast<unsigned>(w_hi) << " values against a declared budget of "
            << static_cast<unsigned>(budget)
            << "; the surplus can double-fill a slot (runtime ProtocolError at best)";
        issue.detail = why.str();
        out.issues.push_back(std::move(issue));
      }
    }
  }

  // --- forward-livelock: cycles without a termination argument --------------
  // A forwarding cycle moves the reply obligation forever unless every member
  // declares bounded_forwarding (a strictly shrinking argument with a
  // replying base case — chain's hop countdown, em3d's staged fwd_update).
  // Anchor each cycle at its smallest member id so it is reported once.
  for (MethodId m = 0; m < methods.size(); ++m) {
    if (forward_succ(methods, m).empty()) continue;
    std::vector<MethodId> parent;
    parent.assign(methods.size(), kInvalidMethod);
    std::vector<char> seen(methods.size(), 0);
    std::deque<MethodId> queue;
    // Seed with m's successors (not m itself) so the search finds the
    // shortest cycle *through* m rather than terminating at the start node.
    for (MethodId t : forward_succ(methods, m)) {
      if (t == m) {  // self-forward: the one-node cycle
        if (!seen[m]) {
          seen[m] = 1;
          parent[m] = m;
          queue.push_back(m);
        }
        break;
      }
      if (seen[t]) continue;
      seen[t] = 1;
      parent[t] = m;
      queue.push_back(t);
    }
    std::vector<MethodId> cycle;
    if (seen[m]) {
      cycle = {m, m};  // self-forward found above
    } else {
      while (!queue.empty() && cycle.empty()) {
        const MethodId cur = queue.front();
        queue.pop_front();
        for (MethodId t : forward_succ(methods, cur)) {
          if (t == m) {
            cycle = witness_path(parent, m, cur);
            cycle.push_back(m);
            break;
          }
          if (seen[t]) continue;
          seen[t] = 1;
          parent[t] = cur;
          queue.push_back(t);
        }
      }
    }
    if (cycle.empty()) continue;
    // Report once per cycle: only from the smallest member.
    bool anchor = true;
    bool all_bounded = true;
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
      anchor = anchor && cycle[i] >= m;
      all_bounded = all_bounded && methods[cycle[i]].bounded_forwarding;
    }
    if (!anchor || all_bounded) continue;
    ProgressIssue issue;
    issue.kind = ProgressIssueKind::ForwardLivelock;
    issue.method = m;
    issue.other = cycle.size() > 2 ? cycle[1] : m;
    issue.path = std::move(cycle);
    issue.detail =
        "forwarding cycle with no bounded_forwarding termination argument; a CP "
        "request entering it moves its reply obligation forever";
    out.issues.push_back(std::move(issue));
  }

  // --- per-interface send/recv balance certificates -------------------------
  for (MethodId f = 0; f < methods.size(); ++f) {
    const MethodInfo& fi = methods[f];
    if (fi.schema != Schema::ContinuationPassing) continue;
    ReplyLedger ledger;
    ledger.method = f;
    ledger.budget = fi.multi_return;
    ledger.banks = fi.uses_continuation;
    ledger.bounded = fi.bounded_forwarding;
    ledger.forwards = forward_succ(methods, f);
    for (MethodId r : fi.repliers) {
      if (r < methods.size()) ledger.repliers.push_back(r);
    }
    for (const ProgressIssue& issue : out.issues) {
      bool involved = issue.method == f || issue.other == f;
      for (MethodId p : issue.path) involved = involved || p == f;
      ledger.balanced = ledger.balanced && !involved;
    }
    out.ledgers.push_back(std::move(ledger));
  }

  return out;
}

std::string format_progress_issue(const std::vector<MethodInfo>& methods,
                                  const ProgressIssue& issue) {
  // The kind is carried by the LintCode / ProgressIssueKind wherever this
  // line is displayed, so the witness itself stays "name: chain (why)".
  std::ostringstream os;
  os << method_name_or_id(methods, issue.method) << ": " << join_path(methods, issue.path) << " ("
     << issue.detail << ")";
  return os.str();
}

std::string format_ledger(const std::vector<MethodInfo>& methods, const ReplyLedger& ledger) {
  std::ostringstream os;
  os << method_name_or_id(methods, ledger.method) << " [CP budget "
     << static_cast<unsigned>(ledger.budget) << "]: ";
  const auto comma_join = [&methods](const std::vector<MethodId>& ms) {
    std::string s;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i != 0) s += ", ";
      s += method_name_or_id(methods, ms[i]);
    }
    return s;
  };
  if (ledger.banks) {
    os << "banks its continuation";
    if (!ledger.repliers.empty()) os << ", drained by " << comma_join(ledger.repliers);
  } else if (!ledger.forwards.empty()) {
    os << "forwards to " << comma_join(ledger.forwards);
    if (ledger.bounded) os << " (bounded recursion, replying base case)";
  } else {
    os << "replies on its own completion path";
  }
  os << " -- " << (ledger.balanced ? "balanced" : "UNBALANCED");
  return os.str();
}

}  // namespace concert::verify
