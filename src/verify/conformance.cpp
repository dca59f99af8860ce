#include "verify/conformance.hpp"

#include <algorithm>
#include <sstream>

#include "core/context.hpp"
#include "core/registry.hpp"
#include "machine/machine.hpp"
#include "support/panic.hpp"
#include "verify/race.hpp"

namespace concert::verify {

namespace {

bool declared(const std::vector<MethodId>& edges, MethodId target) {
  return std::find(edges.begin(), edges.end(), target) != edges.end();
}

}  // namespace

const char* violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::UndeclaredEdge: return "undeclared-edge";
    case ViolationKind::UndeclaredForward: return "undeclared-forward";
    case ViolationKind::NonBlockingBlocked: return "nb-blocked";
    case ViolationKind::ContUseOutsideCP: return "cont-use-outside-cp";
    case ViolationKind::ReentrantAcquire: return "reentrant-acquire";
    case ViolationKind::LockHeldAtQuiescence: return "lock-held-at-quiescence";
    case ViolationKind::SiteSpecBlocked: return "site-spec-blocked";
    case ViolationKind::RacyDelivery: return "racy-delivery";
    case ViolationKind::UnorderedNotFlagged: return "unordered-not-flagged";
    case ViolationKind::OrphanedContinuation: return "orphaned-continuation";
    case ViolationKind::ReplyBalanceViolation: return "reply-balance-violation";
  }
  return "?";
}

bool ConformanceReport::has(ViolationKind k) const { return find(k) != nullptr; }

const Violation* ConformanceReport::find(ViolationKind k) const {
  for (const Violation& v : violations) {
    if (v.kind == k) return &v;
  }
  return nullptr;
}

std::string ConformanceReport::to_string() const {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << "node " << v.node << ": [" << violation_kind_name(v.kind) << "] " << v.message << "\n";
  }
  return os.str();
}

ConformanceReport check_conformance(const Machine& mach) {
  const MethodRegistry& reg = mach.registry();
  const std::vector<MethodInfo>& methods = reg.methods();
  CONCERT_CHECK(reg.finalized(), "conformance check before finalize");
  const ExecMode mode = mach.config().mode;

  ConformanceReport report;
  // Delivery-order cross-check (concert-race): every *observed* unordered
  // same-object delivery pair must either be benign (disjoint/read-only
  // effects, or an explicit commutes_with annotation) or have been flagged by
  // the static racing-pair analysis. A conflicting pair the analysis claims
  // ordered means a barrier_separated declaration lied.
  const RaceAnalysis races = analyze_races(reg.methods());

  for (NodeId n = 0; n < mach.node_count(); ++n) {
    const VerifyRecorder& rec = mach.node(n).verifier;
    if (!rec.enabled()) continue;
    report.totals += rec.stats();

    {
      // Deterministic order: the recorder's pair set is hash-ordered.
      std::vector<std::uint64_t> unordered(rec.observed_unordered().begin(),
                                           rec.observed_unordered().end());
      std::sort(unordered.begin(), unordered.end());
      for (std::uint64_t k : unordered) {
        const MethodId a = VerifyRecorder::key_caller(k);
        const MethodId b = VerifyRecorder::key_callee(k);
        if (a >= reg.size() || b >= reg.size()) continue;
        const MethodInfo& ia = reg.info(a);
        const MethodInfo& ib = reg.info(b);
        const std::vector<std::string> fields = conflicting_fields(ia, ib);
        if (fields.empty()) continue;  // Disjoint, read-only, or effects undeclared.
        if (commutes_declared(ia, b) || commutes_declared(ib, a)) continue;
        std::ostringstream os;
        os << method_name_or_id(methods, a) << " and " << method_name_or_id(methods, b)
           << " were delivered to one object from concurrent sends (vector clocks "
           << "incomparable), and their effects conflict on ";
        for (std::size_t i = 0; i < fields.size(); ++i) os << (i ? ", " : "") << fields[i];
        if (races.flagged(a, b)) {
          os << " (the static racing-pair analysis flags this pair — annotate commutes_with "
             << "or order the sends)";
          report.violations.push_back(Violation{ViolationKind::RacyDelivery, n, a, b, os.str()});
        } else {
          os << " — yet the static analysis believes the pair is ordered (an unsound "
             << "barrier_separated declaration?)";
          report.violations.push_back(
              Violation{ViolationKind::UnorderedNotFlagged, n, a, b, os.str()});
        }
      }
    }

    for (std::uint64_t k : rec.observed_calls()) {
      const MethodId caller = VerifyRecorder::key_caller(k);
      const MethodId callee = VerifyRecorder::key_callee(k);
      if (caller < reg.size() && declared(reg.info(caller).callees, callee)) continue;
      std::ostringstream os;
      os << method_name_or_id(methods, caller) << " called " << method_name_or_id(methods, callee)
         << " but never declared the edge (the blocking analysis ran without it)";
      report.violations.push_back(
          Violation{ViolationKind::UndeclaredEdge, n, caller, callee, os.str()});
    }

    for (std::uint64_t k : rec.observed_forwards()) {
      const MethodId caller = VerifyRecorder::key_caller(k);
      const MethodId target = VerifyRecorder::key_callee(k);
      if (caller < reg.size() && declared(reg.info(caller).forwards_to, target)) continue;
      std::ostringstream os;
      os << method_name_or_id(methods, caller) << " forwarded its continuation to "
         << method_name_or_id(methods, target) << " but never declared the forwarding edge";
      report.violations.push_back(
          Violation{ViolationKind::UndeclaredForward, n, caller, target, os.str()});
    }

    for (MethodId m : rec.observed_blocked()) {
      // The *declared* schema, not the effective one: an NB method stays NB
      // under Hybrid1/SeqOpt too (its callees are NB by the fixpoint), so a
      // block is a soundness violation in every schema-exploiting mode.
      // ParallelOnly is exempt: it never consults schemas, and its split-
      // phase calling convention makes even an honest NB method's parallel
      // version suspend on its children's replies.
      if (mode == ExecMode::ParallelOnly) break;
      if (m < reg.size() && reg.info(m).schema != Schema::NonBlocking) continue;
      std::ostringstream os;
      os << method_name_or_id(methods, m) << " was committed NonBlocking but blocked at runtime";
      report.violations.push_back(
          Violation{ViolationKind::NonBlockingBlocked, n, m, kInvalidMethod, os.str()});
    }

    // Implicit-lock tracking (concert-analyze). Observed reentrant
    // acquisitions are unconditional violations: the scheduler proved the
    // holder is an ancestor of the deferred invocation, which can therefore
    // never be dispatched.
    {
      std::vector<std::uint64_t> reentrants(rec.observed_reentrants().begin(),
                                            rec.observed_reentrants().end());
      std::sort(reentrants.begin(), reentrants.end());
      for (std::uint64_t k : reentrants) {
        const MethodId holder = VerifyRecorder::key_caller(k);
        const MethodId deferred = VerifyRecorder::key_callee(k);
        std::ostringstream os;
        os << method_name_or_id(methods, deferred)
           << " was deferred on an implicit lock held by its own ancestor "
           << method_name_or_id(methods, holder)
           << " (observed self-deadlock; the invocation was quarantined)";
        report.violations.push_back(
            Violation{ViolationKind::ReentrantAcquire, n, holder, deferred, os.str()});
      }
    }
    {
      // Deterministic order: the recorder's held map is hash-ordered.
      std::vector<std::pair<std::uint64_t, MethodId>> held(rec.held_locks().begin(),
                                                           rec.held_locks().end());
      std::sort(held.begin(), held.end());
      for (const auto& [obj, m] : held) {
        std::ostringstream os;
        os << method_name_or_id(methods, m) << " still holds the implicit lock of object "
           << GlobalRef::unpack(obj).node << ":" << GlobalRef::unpack(obj).index
           << " at quiescence (leaked bracket or quarantined deadlock)";
        report.violations.push_back(
            Violation{ViolationKind::LockHeldAtQuiescence, n, m, kInvalidMethod, os.str()});
      }
    }

    // Site-specialization soundness: only meaningful when the machine binds
    // NB on specialized edges — an unspecialized run may legitimately see a
    // site-NB method block (its own call diverted to a remote or locked
    // target), which is exactly the fallback the general convention handles.
    // The block injector artificially blocks provably-NB callees, so injector
    // nodes are exempt, as is ParallelOnly (everything suspends there).
    if (mach.config().specialize_edges && mode != ExecMode::ParallelOnly &&
        !mach.node(n).injector().enabled()) {
      for (MethodId m : rec.observed_blocked()) {
        if (m >= reg.size() || !reg.info(m).site_nonblocking) continue;
        std::ostringstream os;
        os << method_name_or_id(methods, m)
           << " was classified non-blocking at-site but blocked at runtime; a specialized "
           << "edge into it would have stranded its caller";
        report.violations.push_back(
            Violation{ViolationKind::SiteSpecBlocked, n, m, kInvalidMethod, os.str()});
      }
    }

    for (MethodId m : rec.observed_cont_uses()) {
      // The *effective* schema: Hybrid1 legally runs MB methods through the
      // CP interface, so continuation use is judged against the interface the
      // mode actually selected.
      if (m < reg.size() && reg.effective_schema(m, mode) == Schema::ContinuationPassing) {
        continue;
      }
      std::ostringstream os;
      os << method_name_or_id(methods, m) << " manipulated a continuation but runs the "
         << schema_name(m < reg.size() ? reg.effective_schema(m, mode) : Schema::NonBlocking)
         << " interface, not CP";
      report.violations.push_back(
          Violation{ViolationKind::ContUseOutsideCP, n, m, kInvalidMethod, os.str()});
    }

    // Quiescence-time liveness sanitizer (concert-progress). The machine just
    // declared quiescence — no messages in flight, no ready work — so any
    // context still suspended is waiting for a reply that can no longer
    // arrive: an orphaned continuation, the dynamic twin of lint's
    // lost-reply. Dump each with its continuation-ancestor chain (where its
    // own reply would have gone) and trace flow id so the blame reads like
    // the static witness.
    for (const Context* orphan : mach.node(n).suspended_contexts()) {
      std::ostringstream os;
      os << method_name_or_id(methods, orphan->method) << " (context " << n << ":" << orphan->id
         << ", flow " << orphan->trace_flow
         << ") is still suspended at quiescence; the reply it awaits can no longer arrive";
      const Context* cur = orphan;
      std::string chain;
      // Cap the walk: a corrupted ret chain must not hang the reporter.
      for (int hops = 0; hops < 16; ++hops) {
        const ContextRef up = cur->ret.target;
        if (!up.valid() || up.node >= mach.node_count()) break;
        const Context* parent = mach.node(up.node).arena().try_resolve(up);
        if (parent == nullptr) break;
        chain += " <- ";
        chain += parent->method == kInvalidMethod ? std::string("<root>")
                                                  : method_name_or_id(methods, parent->method);
        cur = parent;
      }
      if (!chain.empty()) os << " (continuation ancestors:" << chain << ")";
      report.violations.push_back(Violation{ViolationKind::OrphanedContinuation, n,
                                            orphan->method, kInvalidMethod, os.str()});
    }

    // Reply-balance cross-check: every observed parallel completion must
    // deliver exactly the statically declared multi_return budget — fewer
    // strands the caller's remaining future slots, more can double-fill one.
    {
      std::vector<std::pair<MethodId, VerifyRecorder::ReplyWidths>> widths(
          rec.reply_widths().begin(), rec.reply_widths().end());
      std::sort(widths.begin(), widths.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [m, w] : widths) {
        if (m >= reg.size()) continue;
        const std::uint8_t budget = reg.info(m).multi_return;
        if (w.min_width == budget && w.max_width == budget) continue;
        std::ostringstream os;
        os << method_name_or_id(methods, m) << " completed " << w.count
           << " time(s) delivering between " << static_cast<unsigned>(w.min_width) << " and "
           << static_cast<unsigned>(w.max_width)
           << " value(s) per discharge against a declared multi_return budget of "
           << static_cast<unsigned>(budget);
        report.violations.push_back(
            Violation{ViolationKind::ReplyBalanceViolation, n, m, kInvalidMethod, os.str()});
      }
    }
  }
  return report;
}

void enforce_conformance(const Machine& mach) {
  const ConformanceReport report = check_conformance(mach);
  CONCERT_CHECK(report.clean(),
                "conformance sanitizer found " << report.violations.size()
                                               << " violation(s):\n" << report.to_string());
}

}  // namespace concert::verify
