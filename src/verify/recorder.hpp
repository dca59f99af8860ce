// Per-node event recorder: the dynamic half of concert-verify.
//
// When enabled (MachineConfig::verify, default on under -DCONCERT_VERIFY),
// the invocation paths record which call edges actually executed, which
// methods actually blocked, and which methods actually manipulated their
// continuation. At quiescence conformance.cpp checks the observations
// against the registry's declared facts: observed must be a subset of
// declared, or the static analysis ran on a lie.
//
// The recorder is deliberately outside the cost model: it never calls
// Node::charge(), so simulated clocks, message counts and byte counts are
// bit-identical whether verification is on or off. Each recorder is touched
// only by its owning node's thread (same discipline as the outbox), so the
// threaded engine needs no locks here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ids.hpp"

namespace concert::verify {

/// Event counts (not deduplicated, unlike the observation sets).
struct VerifyStats {
  std::uint64_t calls = 0;      ///< record_call events.
  std::uint64_t forwards = 0;   ///< record_forward events.
  std::uint64_t blocks = 0;     ///< record_block events.
  std::uint64_t cont_uses = 0;  ///< record_cont_use events.
  std::uint64_t lock_acquires = 0;       ///< record_lock_acquire events.
  std::uint64_t lock_releases = 0;       ///< record_lock_release events.
  std::uint64_t reentrant_acquires = 0;  ///< record_reentrant_acquire events.
  std::uint64_t vclock_sends = 0;          ///< Messages stamped at send.
  std::uint64_t object_deliveries = 0;     ///< Invoke deliveries probed per object.
  std::uint64_t unordered_deliveries = 0;  ///< Probes whose stamps were incomparable.
  std::uint64_t replies_recorded = 0;      ///< record_reply events (concert-progress).

  VerifyStats& operator+=(const VerifyStats& o) {
    calls += o.calls;
    forwards += o.forwards;
    blocks += o.blocks;
    cont_uses += o.cont_uses;
    lock_acquires += o.lock_acquires;
    lock_releases += o.lock_releases;
    reentrant_acquires += o.reentrant_acquires;
    vclock_sends += o.vclock_sends;
    object_deliveries += o.object_deliveries;
    unordered_deliveries += o.unordered_deliveries;
    replies_recorded += o.replies_recorded;
    return *this;
  }
};

class VerifyRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool e) { enabled_ = e; }

  /// An executed call edge caller -> callee. Root/proxy callers (no method
  /// identity, so nothing declared) are skipped.
  void record_call(MethodId caller, MethodId callee) {
    if (!enabled_ || caller == kInvalidMethod) return;
    ++stats_.calls;
    calls_.insert(key(caller, callee));
  }

  /// An executed continuation-forwarding edge caller -> target.
  void record_forward(MethodId caller, MethodId target) {
    if (!enabled_ || caller == kInvalidMethod) return;
    ++stats_.forwards;
    forwards_.insert(key(caller, target));
  }

  /// Method `m` blocked: its activation fell back to the heap, or its
  /// parallel version suspended on unfilled futures.
  void record_block(MethodId m) {
    if (!enabled_ || m == kInvalidMethod) return;
    ++stats_.blocks;
    blocked_.insert(m);
  }

  /// Method `m` materialized, stored, or handed off a continuation.
  void record_cont_use(MethodId m) {
    if (!enabled_ || m == kInvalidMethod) return;
    ++stats_.cont_uses;
    cont_used_.insert(m);
  }

  // ---- implicit-lock tracking (concert-analyze) ----
  // The runtime brackets every locks_self activation with acquire/release; the
  // recorder shadows the lock-held set per node so conformance.cpp can flag a
  // lock still held at quiescence (a leaked bracket, or a quarantined
  // deadlock) and so the scheduler's deadlock probe has the holder's method.

  /// Method `m` acquired the implicit lock of the object packed as `obj`
  /// (GlobalRef::pack()).
  void record_lock_acquire(MethodId m, std::uint64_t obj) {
    if (!enabled_) return;
    ++stats_.lock_acquires;
    held_[obj] = m;
  }

  /// The implicit lock of `obj` was released.
  void record_lock_release(std::uint64_t obj) {
    if (!enabled_) return;
    ++stats_.lock_releases;
    held_.erase(obj);
  }

  /// The scheduler caught a deferred invocation of `deferred` whose target's
  /// lock is held by one of its own ancestors running `holder` — an observed
  /// self-deadlock (the dynamic counterpart of lint's SelfDeadlock).
  void record_reentrant_acquire(MethodId holder, MethodId deferred) {
    if (!enabled_) return;
    ++stats_.reentrant_acquires;
    reentrants_.insert(key(holder, deferred));
  }

  // ---- vector-clock delivery-order sanitizer (concert-race) ----
  // Each node keeps one logical clock component per machine node. A send
  // ticks the sender's own component and stamps the whole clock into the
  // message (Message::vclock); a delivery joins the stamp back in. Two
  // deliveries to the same object whose stamps are incomparable came from
  // concurrent sends — the machine guaranteed nothing about their order, so
  // the pair must commute. conformance.cpp cross-checks every such observed
  // pair against the static race analysis (observed ⊆ flagged-or-benign).

  /// Sizes the clock; called from Node::init_comms (idempotent, resets).
  void init_vclock(NodeId self, std::size_t nodes) {
    self_ = static_cast<std::size_t>(self);
    vc_.assign(nodes, 0);
  }

  /// Stamps an outgoing message: ticks this node's component, copies the
  /// clock into `out`. Leaves `out` empty when verification is off, so the
  /// stamp costs nothing on production runs.
  void stamp_send(std::vector<std::uint32_t>& out) {
    if (!enabled_ || self_ >= vc_.size()) return;
    ++vc_[self_];
    ++stats_.vclock_sends;
    out = vc_;
  }

  /// Joins a delivered message's stamp into this node's clock.
  void join_delivery(const std::vector<std::uint32_t>& stamp) {
    if (!enabled_ || stamp.empty() || self_ >= vc_.size()) return;
    const std::size_t n = std::min(vc_.size(), stamp.size());
    for (std::size_t i = 0; i < n; ++i) vc_[i] = std::max(vc_[i], stamp[i]);
    ++vc_[self_];
  }

  /// Per-object delivery-order probe: compares this delivery's stamp against
  /// the previous delivery to the same object (GlobalRef::pack()) and records
  /// the method pair when the two are concurrent. Keeping only the last
  /// stamp per object makes the probe O(nodes) — it catches every *adjacent*
  /// unordered pair, which under vector-clock transitivity is exactly where
  /// an ordering violation first becomes visible.
  void record_object_delivery(std::uint64_t obj, MethodId method,
                              const std::vector<std::uint32_t>& stamp) {
    if (!enabled_ || stamp.empty()) return;
    ++stats_.object_deliveries;
    auto it = last_delivery_.find(obj);
    if (it != last_delivery_.end() && vclocks_concurrent(it->second.stamp, stamp)) {
      ++stats_.unordered_deliveries;
      unordered_pairs_.insert(key(std::min(method, it->second.method),
                                  std::max(method, it->second.method)));
    }
    LastDelivery& last = last_delivery_[obj];
    last.method = method;
    last.stamp = stamp;
  }

  // ---- reply-width tracking (concert-progress) ----
  // Reply widths feed the reply-balance cross-check against the static
  // multi_return budget. Suspended contexts need no shadow here: the arena
  // holds them (Node::suspended_contexts).

  /// Observed completion widths of hand-written parallel bodies, per method.
  struct ReplyWidths {
    std::uint64_t count = 0;
    std::uint8_t min_width = 255;
    std::uint8_t max_width = 0;
  };

  /// A parallel body of `method` completed, delivering `width` values to its
  /// continuation in one discharge.
  void record_reply(MethodId method, std::uint8_t width) {
    if (!enabled_ || method == kInvalidMethod) return;
    ++stats_.replies_recorded;
    ReplyWidths& w = reply_widths_[method];
    ++w.count;
    w.min_width = std::min(w.min_width, width);
    w.max_width = std::max(w.max_width, width);
  }

  /// Observed parallel-completion widths per method.
  const std::unordered_map<MethodId, ReplyWidths>& reply_widths() const { return reply_widths_; }

  /// Whether two stamps are incomparable (neither happened-before the other).
  static bool vclocks_concurrent(const std::vector<std::uint32_t>& a,
                                 const std::vector<std::uint32_t>& b) {
    bool a_ahead = false;
    bool b_ahead = false;
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t av = i < a.size() ? a[i] : 0;
      const std::uint32_t bv = i < b.size() ? b[i] : 0;
      a_ahead = a_ahead || av > bv;
      b_ahead = b_ahead || bv > av;
    }
    return a_ahead && b_ahead;
  }

  /// Observed unordered same-object delivery pairs, keyed key(min, max).
  const std::unordered_set<std::uint64_t>& observed_unordered() const { return unordered_pairs_; }
  /// This node's current logical clock (tests).
  const std::vector<std::uint32_t>& vclock() const { return vc_; }

  const VerifyStats& stats() const { return stats_; }
  const std::unordered_set<std::uint64_t>& observed_calls() const { return calls_; }
  const std::unordered_set<std::uint64_t>& observed_forwards() const { return forwards_; }
  const std::unordered_set<MethodId>& observed_blocked() const { return blocked_; }
  const std::unordered_set<MethodId>& observed_cont_uses() const { return cont_used_; }
  /// Currently-held implicit locks: GlobalRef::pack() -> holding method.
  const std::unordered_map<std::uint64_t, MethodId>& held_locks() const { return held_; }
  /// Observed reentrant acquisitions, keyed key(holder, deferred).
  const std::unordered_set<std::uint64_t>& observed_reentrants() const { return reentrants_; }

  static std::uint64_t key(MethodId caller, MethodId callee) {
    return (static_cast<std::uint64_t>(caller) << 32) | callee;
  }
  static MethodId key_caller(std::uint64_t k) { return static_cast<MethodId>(k >> 32); }
  static MethodId key_callee(std::uint64_t k) { return static_cast<MethodId>(k & 0xffffffffu); }

 private:
  bool enabled_ = false;
  VerifyStats stats_;
  std::unordered_set<std::uint64_t> calls_;
  std::unordered_set<std::uint64_t> forwards_;
  std::unordered_set<MethodId> blocked_;
  std::unordered_set<MethodId> cont_used_;
  std::unordered_map<std::uint64_t, MethodId> held_;
  std::unordered_set<std::uint64_t> reentrants_;
  // Vector-clock sanitizer state (concert-race).
  struct LastDelivery {
    MethodId method = kInvalidMethod;
    std::vector<std::uint32_t> stamp;
  };
  std::size_t self_ = static_cast<std::size_t>(-1);
  std::vector<std::uint32_t> vc_;
  std::unordered_map<std::uint64_t, LastDelivery> last_delivery_;
  std::unordered_set<std::uint64_t> unordered_pairs_;
  // Progress sanitizer state (concert-progress).
  std::unordered_map<MethodId, ReplyWidths> reply_widths_;
};

}  // namespace concert::verify
