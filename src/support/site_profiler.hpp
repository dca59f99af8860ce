// Per-call-site profiler (concert-insight).
//
// ROADMAP open item 3 (profile-guided adaptivity) needs a signal the
// aggregate NodeStats counters cannot give: *which* call edge falls back.
// `stack_calls`/`fallbacks` say a SOR run fell back more often; they cannot
// say whether that happens at relax→get_north or relax→reduce. The
// SiteProfiler keys every stack speculation by its declared call edge —
// (caller method, callee method), the same edges the schema analysis walks —
// and records invocations, NB-hit/fallback counts, divert counts, and log2
// wall-latency histograms for the hit and fallback paths.
//
// Cost discipline matches NodeMetrics: off by default
// (MachineConfig::profile_sites), one predictable branch per site when off,
// and recording happens outside the simulated cost model, so enabling the
// profiler never changes clocks or paper tables (test-guarded).
//
// Every invoke entry (Frame::call's general path and ParFrame::spawn,
// Frame::forward, the wrapper) records through one SiteProbe.
//
// The wrapper path has no declared caller: a method invoked by an arriving
// message runs with no stack caller (core/wrapper.cpp), and records under the
// reserved pseudo-caller kInvalidMethod ("(message)").
// Accounting invariants (cross-checked against NodeStats in tests):
//   sum(attempts)            == stats.stack_calls
//   sum(nb_hits)             == stats.stack_completions
//   sum(invokes)             == stats.local_invokes + stats.remote_invokes
//   sum(remote)              == stats.remote_invokes
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.hpp"
#include "support/histogram.hpp"

namespace concert {

/// Counters + latency histograms for one call edge (caller -> callee).
struct SiteRecord {
  MethodId callee = kInvalidMethod;
  /// Invocations issued at this edge — mirrors local_invokes/remote_invokes
  /// accounting exactly (message arrivals whose sender already counted the
  /// invocation are NOT re-counted here).
  std::uint64_t invokes = 0;
  /// Of the invokes, how many targeted a remote object (pre-divert verdict).
  std::uint64_t remote = 0;
  /// Stack speculations begun (mirrors stats.stack_calls).
  std::uint64_t attempts = 0;
  /// Speculations that completed on the stack (mirrors stack_completions).
  std::uint64_t nb_hits = 0;
  /// Speculations that unwound into a heap continuation. Note this counts
  /// per *attempt*, not per materialized frame like stats.fallbacks — a CP
  /// callee that falls back lazily still counts here at its call site.
  std::uint64_t fallbacks = 0;
  /// Invocations sent straight to the heap or a remote node with no stack
  /// attempt (remote target, locked target, ParallelOnly schema, injection).
  std::uint64_t diverts = 0;
  Histogram stack_ns;     ///< wall latency of attempts that hit (ns)
  Histogram fallback_ns;  ///< wall latency of attempts that fell back (ns)

  void merge(const SiteRecord& o) {
    invokes += o.invokes;
    remote += o.remote;
    attempts += o.attempts;
    nb_hits += o.nb_hits;
    fallbacks += o.fallbacks;
    diverts += o.diverts;
    stack_ns += o.stack_ns;
    fallback_ns += o.fallback_ns;
  }
};

/// Per-node site table. Caller-indexed vector of short callee lists: method
/// ids are small and dense (registry order), per-caller fan-out is tiny, so
/// a linear scan beats hashing on the hot path. Single-writer per node; read
/// only after quiescence.
class SiteProfiler {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Slot 0 is the "(message)" pseudo-caller (caller == kInvalidMethod);
  /// declared callers live at caller + 1. Never inlined: only a profiled run
  /// looks a record up, and a SiteProbe stays one inline branch without it.
  [[gnu::noinline]] SiteRecord& at(MethodId caller, MethodId callee) {
    const std::size_t c = caller == kInvalidMethod ? 0 : static_cast<std::size_t>(caller) + 1;
    if (c >= by_caller_.size()) by_caller_.resize(c + 1);
    std::vector<SiteRecord>& sites = by_caller_[c];
    for (SiteRecord& r : sites)
      if (r.callee == callee) return r;
    sites.emplace_back();
    sites.back().callee = callee;
    return sites.back();
  }

  const std::vector<std::vector<SiteRecord>>& by_caller() const { return by_caller_; }

 private:
  bool enabled_ = false;
  std::vector<std::vector<SiteRecord>> by_caller_;
};

/// One invocation's updates to its call-site record. Inert when the profiler
/// is off: a null record, no clock reads.
class SiteProbe {
 public:
  /// Counts the invocation at the edge caller -> callee. `counted` is false
  /// when the sender already counted it (a delivered message), so the totals
  /// mirror local_invokes + remote_invokes.
  SiteProbe(SiteProfiler& profiler, MethodId caller, MethodId callee, bool remote,
            bool counted = true)
      : site_(profiler.enabled() ? &profiler.at(caller, callee) : nullptr) {
    if (site_ != nullptr && counted) {
      ++site_->invokes;
      if (remote) ++site_->remote;
    }
  }

  /// The invocation went to the heap or another node without a stack attempt.
  void divert() {
    if (site_ != nullptr) ++site_->diverts;
  }
  /// A stack attempt begins.
  void attempt() {
    if (site_ == nullptr) return;
    ++site_->attempts;
    t0_ = now_ns();
  }
  /// The attempt completed on the stack (`hit`) or fell back.
  void end(bool hit) {
    if (site_ == nullptr) return;
    const std::uint64_t ns = now_ns() - t0_;
    if (hit) {
      ++site_->nb_hits;
      site_->stack_ns.record(ns);
    } else {
      ++site_->fallbacks;
      site_->fallback_ns.record(ns);
    }
  }

 private:
  // Wall stamps are read only when the profiler is enabled and never enter
  // the cost model.
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
  }

  SiteRecord* site_;
  std::uint64_t t0_ = 0;
};

}  // namespace concert
