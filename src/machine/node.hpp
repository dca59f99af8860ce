// A node of the multicomputer: local clock, context arena, scheduler ready
// queue, message inbox, object table, and the reply-routing primitive.
//
// A node executes one action at a time (handle one message, or run one ready
// context step); everything that crosses nodes travels as a message. This
// run-to-completion handler discipline is the CM-5 active-message style the
// paper's runtime uses, and it is what makes the unwinding protocol safe: a
// whole stack speculation (including its fallback) finishes before any reply
// can be processed on the same node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/context.hpp"
#include "core/inject.hpp"
#include "core/registry.hpp"
#include "core/schema.hpp"
#include "machine/channel_fifo.hpp"
#include "machine/cost_model.hpp"
#include "machine/flush_policy.hpp"
#include "machine/machine_config.hpp"
#include "machine/message.hpp"
#include "machine/outbox.hpp"
#include "machine/trace.hpp"
#include "objects/location_cache.hpp"
#include "objects/object_space.hpp"
#include "support/arena.hpp"
#include "support/histogram.hpp"
#include "support/site_profiler.hpp"
#include "support/stats.hpp"
#include "verify/recorder.hpp"

namespace concert {

class Machine;

/// Per-node histogram recorders (concert-scope), allocated only when
/// MachineConfig::metrics is on. A sink of Node::trace: every metered event
/// reaches note(), so the disabled cost at each site is the one null check
/// in trace(). Touched only by the owning node's thread; merged across nodes
/// at export time (export_metrics).
struct NodeMetrics {
  Histogram invoke_latency_ns;  ///< Every closed run: dispatch steps, stack runs and waves.
  Histogram inbox_depth;        ///< Messages drained per non-empty inbox batch.
  Histogram ctx_lifetime_ns;    ///< Context allocation -> free wall time.
  Histogram flush_size;         ///< Staged messages per outbox flush.
  Histogram wave_size;          ///< Messages per merged wave (merge_waves runs only).
  /// Per-method invocation latency, MethodId-indexed (grown on first use).
  Histogram& method_latency(MethodId m) {
    if (m >= per_method.size()) per_method.resize(m + 1);
    return per_method[m];
  }
  std::vector<Histogram> per_method;
  /// The runs open on this node, innermost last. A run's end closes the
  /// innermost and records its latency.
  struct OpenRun {
    MethodId method;
    std::chrono::steady_clock::time_point t0;
  };
  std::vector<OpenRun> open_runs;

  /// The trace kinds note() consumes.
  static constexpr bool meters(TraceKind k) {
    return k == TraceKind::DispatchBegin || k == TraceKind::DispatchEnd ||
           k == TraceKind::StackRun || k == TraceKind::WaveRun || k == TraceKind::RunEnd ||
           k == TraceKind::InboxDrain || k == TraceKind::OutboxFlush;
  }
  /// Node::trace's sink: a run begin opens a run, a dispatch end or run end
  /// closes the innermost, and a drain, flush or wave records its size `arg`.
  void note(TraceKind kind, MethodId method, std::uint32_t arg);
};

/// Periodic queue-depth samples for one node (concert-insight). Engines call
/// Node::sample_health from the node's owning thread — the deterministic
/// engine every 4096 actions, the threaded engine every 1024 loop turns —
/// outside the cost model. Histograms, so the postmortem and metrics export
/// can report p50/p99 depth and load skew across nodes.
struct HealthStats {
  std::uint64_t samples = 0;
  Histogram ready_depth;
  Histogram outbox_depth;
  Histogram live_ctx;

  void add(std::uint64_t ready, std::uint64_t outbox, std::uint64_t live) {
    ++samples;
    ready_depth.record(ready);
    outbox_depth.record(outbox);
    live_ctx.record(live);
  }
};

class Node {
 public:
  Node(NodeId id, Machine& machine);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Machine& machine() { return machine_; }
  MethodRegistry& registry();

  /// Flat dispatch-table row for `m` under this machine's execution mode:
  /// the invoke fast path's registry questions (effective schema, code
  /// pointers, frame size, arity) answered with a single indexed load. The
  /// table is built once in MethodRegistry::seal(); the pointer is bound
  /// lazily on first use (sealing happens after node construction).
  const DispatchEntry& dispatch(MethodId m) {
    if (dispatch_ == nullptr) bind_dispatch();
    CONCERT_CHECK(m < dispatch_size_, "bad method id " << m);
    return dispatch_[m];
  }

  /// Call-site specialization probe (concert-analyze): true when the declared
  /// edge caller -> callee may bind the NB convention at the site under this
  /// machine's mode. One null check when the feature is off; a short scan of
  /// the caller's spec span when on. Disabled wholesale while the block
  /// injector is active — injected blocks would force a "provably
  /// non-blocking" callee through the fallback path a specialized site no
  /// longer compiles in.
  bool site_specialized(MethodId caller, MethodId callee) {
    if (spec_ == nullptr || caller == kInvalidMethod) return false;
    if (injector_.enabled()) return false;
    const DispatchEntry& ce = dispatch(caller);
    const MethodId* p = spec_ + ce.spec_begin;
    for (const MethodId* e = p + ce.spec_count; p != e; ++p) {
      if (*p == callee) return true;
    }
    return false;
  }
  /// The machine's immutable config, bound once at construction: these
  /// accessors are inline loads on the invoke fast path.
  const CostModel& costs() const { return cfg_.costs; }
  ExecMode mode() const { return cfg_.mode; }
  FallbackPolicy fallback_policy() const { return cfg_.policy; }
  const FlushPolicy& comms_policy() const { return cfg_.flush_policy; }
  bool futures_in_context() const { return cfg_.futures_in_context; }  ///< Ablation A2 switch.

  // ---- simulated clock ----
  void charge(std::uint64_t instructions) { clock_ += instructions; }
  std::uint64_t clock() const { return clock_; }
  void advance_clock_to(std::uint64_t t) {
    if (t > clock_) clock_ = t;
  }

  // ---- contexts ----
  /// Allocates a context sized from the method's registry entry (its frame
  /// slots, and inline cells for its arguments), charging the cost model and
  /// counting the allocation.
  Context& alloc_context(MethodId m);
  /// Allocates a raw context with an explicit slot count and room for
  /// `inline_args` saved arguments (root and proxies save none).
  Context& alloc_context_raw(MethodId m, std::size_t slots, std::size_t inline_args = 0);
  void free_context(Context& ctx);
  ContextArena& arena() { return arena_; }
  const ContextArena& arena() const { return arena_; }
  /// The live contexts suspended on futures (Waiting with join > 0), in id
  /// order: what POSTMORTEM.json, the stall report and the conformance
  /// sanitizer list. Read only while the node is not running; contexts
  /// quarantined by run_one have join 0 and are not listed.
  std::vector<const Context*> suspended_contexts() const;

  // ---- payload buffers ----
  /// Builds the payload of an outgoing message from `n` values; every send
  /// site gets its payload here. Up to Payload::kInline values travel inline
  /// in the message; a longer payload spills into a buffer from this node's
  /// pool. Counts every payload of at least one value in payload_acquires,
  /// and in payload_pool_hits when it took no heap allocation (inline, or a
  /// pooled spill buffer).
  Payload make_payload(const Value* vs, std::size_t n) {
    if (n > Payload::kInline) return spill_payload(vs, n);
    if (n != 0) {
      ++stats.payload_acquires;
      ++stats.payload_pool_hits;
    }
    return Payload(vs, n);
  }
  /// The spill recycler: hands out a cleared Value buffer for a payload
  /// longer than Payload::kInline, recycled from this node's pool when
  /// possible (counts the acquire, and the pool hit). Callers run on this
  /// node's thread (Node::send discipline), so the pool needs no locking.
  std::vector<Value> acquire_payload(std::size_t reserve);
  /// Returns a delivered spill buffer to this node's pool. Zero-capacity
  /// buffers (moved-from, never-grown) are ignored; over-cap releases are
  /// dropped and counted as discards.
  void release_payload(std::vector<Value>&& buf);
  BufferPool<Value>& payload_pool() { return payload_pool_; }

  /// Quiescence-time memory housekeeping: canonicalizes the context arena
  /// freelist and trims the payload pool. Charges nothing — the cost model
  /// never sees it — so tables 4/5/6 are unaffected.
  void quiesce_memory();

  // ---- scheduler ----
  void enqueue(Context& ctx);
  /// Suspends a context on its expected futures; if they all filled already
  /// it is immediately re-enqueued (the "touch found everything" fast case).
  void suspend(Context& ctx);
  /// Releases an adoption guard (see Context::add_guard); if that was the
  /// last outstanding join and the context is Waiting, it becomes runnable.
  void release_guard(Context& ctx);
  /// Makes a Waiting context runnable again (counts the resumption and, under
  /// AlwaysRetrySequential, charges the re-speculation cost).
  void resume(Context& ctx);
  bool has_ready() const { return !ready_.empty(); }
  std::size_t ready_count() const { return ready_.size(); }
  /// Pops and runs one ready context step. Returns false if the queue was empty.
  bool run_one();

  // ---- messaging ----
  /// Logically sends a message. Under FlushPolicy::Immediate this charges
  /// send overhead + packet costs and hands the message to the machine for
  /// routing right away (the seed behaviour, bit-for-bit). Under a buffered
  /// policy the message is staged in the per-destination outbox and leaves at
  /// flush time, amortizing the per-message overhead over the whole bundle.
  /// Works for both engines. The message moves once, from the caller into
  /// the outbox or the engine's queue.
  void send(Message&& msg);
  /// The one way messages enter a node: processes a delivered batch in
  /// order, in place. A bundle pays its receive overhead once on arrival and
  /// its members are then processed like loose messages. Every message runs
  /// through the wrapper / reply-routing path (with merge_waves off, each
  /// plain message goes there directly), except that with
  /// MachineConfig::merge_waves on, contiguous same-method wave-eligible
  /// invocations (see DispatchEntry::wave) join a run of up to kWaveCap
  /// that executes as one loop; every send made while a run executes is
  /// staged and flushed when the run retires (replies leave as
  /// per-destination bundles). Batch order is delivery order throughout,
  /// so per-channel FIFO and per-object delivery order are those of a
  /// message-at-a-time walk. Retires no work credit: each delivered message
  /// holds one, and the threaded engine retires the batch's credits after
  /// this returns, once every product of the delivery has counted its own.
  void deliver(std::span<Message> batch);
  /// One message: a batch of one.
  void deliver(Message& msg) { deliver(std::span<Message>(&msg, 1)); }
  /// Merged-wave request staging (threaded engine, MachineConfig::merge_waves):
  /// while on, every send stages in the outbox regardless of flush policy.
  /// The engine brackets each context slice with it so a burst of spawns —
  /// e.g. a driver seeding a whole phase — leaves as one bundle per
  /// destination and arrives as one homogeneous run at the receiver.
  void set_wave_staging(bool on) { wave_staging_ = on; }

  // ---- outbox (comms layer) ----
  /// Called once by the machine after all nodes exist; sizes the outbox.
  void init_comms(std::size_t nodes);
  std::size_t outbox_pending() const { return outbox_.total(); }
  bool outbox_empty() const { return outbox_.empty(); }
  /// Drains one destination into a single network message (a bundle if more
  /// than one message is staged), charging the amortized bundle cost.
  void flush_outbox(NodeId dst);
  /// Drains every destination in ascending id order (deterministic).
  /// Returns the number of staged messages that left.
  std::size_t flush_all_outboxes();

  /// The threaded engine's inbox: one ChannelFifo per source node, built by
  /// init_inbox (the deterministic engine keeps undelivered messages in
  /// SimNetwork and builds none). Channel s is written only by node s's
  /// thread, or by the thread that runs the machine while no node thread
  /// runs (seeding, app setup, tests); only the owning node's thread consumes
  /// or probes. FIFO holds per channel and nothing across channels.
  void init_inbox(std::size_t sources);
  /// The one way into an inbox (sender side): writes `msg` into `to`'s
  /// channel from this node. While this node's engine thread runs
  /// (set_deferred_publish), the channel publishes when its segment fills or
  /// at publish_sends(); otherwise at once. A parked receiver is woken when
  /// its channel publishes.
  void post(Node& to, Message&& msg);
  /// Publishes every channel post() left unpublished. The threaded engine
  /// calls it at the end of each loop turn, before the turn retires its
  /// credits, so no node idles while its messages are invisible.
  void publish_sends();
  /// Set by the threaded engine around its node threads' lifetime.
  void set_deferred_publish(bool on) { defer_publish_ = on; }
  /// Appends `msg` to channel `msg.src` and publishes it: a post() from node
  /// `msg.src`, made outside a run.
  void push_inbox(Message&& msg);
  /// Consumer-side emptiness probe: every channel's published count equals
  /// its consumed count.
  bool inbox_empty() const;
  /// The one way out of an inbox (consumer only): hands up to `max`
  /// published messages to `f` in place, one std::span<Message> per run of a
  /// channel segment, visiting channels round-robin from where the last call
  /// stopped (so a small `max` starves no channel). Each run's messages are
  /// destroyed once `f` returns. Records the batch in `stats`. Returns the
  /// number consumed.
  template <typename F>
  std::size_t consume_inbox(std::size_t max, F&& f) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < inbox_.size() && n < max; ++i) {
      ChannelFifo<Message>& ch = inbox_[next_channel_];
      if (++next_channel_ == inbox_.size()) next_channel_ = 0;
      n += ch.consume(max - n, f);
    }
    if (n > 0) note_inbox_batch(n);
    return n;
  }
  /// Batched drain (consumer only): consume_inbox moving each message onto
  /// `out`.
  std::size_t drain_inbox(std::vector<Message>& out, std::size_t max);
  /// Parks the consumer until a producer publishes, `timeout` elapses, or
  /// wake_inbox() is called — the threaded engine's idle path, so quiescence
  /// detection does not spin a whole core per idle node.
  void park_inbox(std::chrono::microseconds timeout);
  /// Wakes a parked consumer (engine shutdown, external prodding).
  void wake_inbox();

  // ---- work credits (threaded engine's quiescence detection) ----
  /// One credit per unit of outstanding work: a routed message, an enqueued
  /// context, a message staged in the outbox. The node that makes the work
  /// counts the create; the node that finishes it counts the retire, after
  /// counting whatever the finished action made. Only this node's thread
  /// writes the two counters — a relaxed load plus a release store, no
  /// read-modify-write and no line shared with another writer — and the
  /// threaded engine's monitor sums them across nodes (threaded_machine.hpp
  /// gives the read order that makes the sums sound). The deterministic
  /// engine tracks work structurally and never reads them.
  void work_created(std::uint64_t n = 1) { bump(created_, n); }
  void work_retired(std::uint64_t n = 1) { bump(retired_, n); }
  std::uint64_t credits_created() const { return created_.load(std::memory_order_acquire); }
  std::uint64_t credits_retired() const { return retired_.load(std::memory_order_acquire); }

  // ---- reply routing ----
  /// Delivers `v` to the future named by `k`: a local slot fill, or a Reply
  /// message if the continuation's context lives on another node.
  void reply_to(const Continuation& k, const Value& v);
  /// Multi-value reply: fills `n` consecutive slots starting at `k.slot`,
  /// with a single message when remote (the paper's "multiple return values"
  /// extension).
  void reply_to_multi(const Continuation& k, const Value* vs, std::size_t n);
  /// Local slot fill (k.target.node must be this node).
  void fill_local(const Continuation& k, const Value& v);

  // ---- objects ----
  ObjectSpace& objects() { return objects_; }
  /// Direct-mapped cache of stale GlobalRef -> current location, consulted by
  /// resolve_forwarding to short-circuit forwarding-record chases after
  /// migration. Touched only by this node's thread.
  LocationCache& location_cache() { return loc_cache_; }
  /// Performs the speculative-inlining checks (name translation + locality +
  /// lock), charging them unless running SeqOpt. Pure locality answer.
  bool local_and_unlocked(const GlobalRef& ref) {
    const bool charged = cfg_.mode != ExecMode::SeqOpt;
    if (charged) charge(cfg_.costs.name_translation + cfg_.costs.locality_check);
    if (!ref.valid()) return true;  // pure-function invocation: no object, no lock
    if (ref.node != id_) return false;
    if (objects_.is_forwarded(ref)) return false;  // migrated away: re-route
    if (charged) charge(cfg_.costs.lock_check);
    return !objects_.locked(ref);
  }

  // ---- test hooks ----
  BlockInjector& injector() { return injector_; }
  const BlockInjector& injector() const { return injector_; }

  // ---- observability (concert-scope, concert-insight) ----
  /// Records one event in this node's ring: coarse kinds always, fine kinds
  /// only when MachineConfig::trace is on (trace.hpp). The kind is a template
  /// argument so that test folds away at compile time. `arg` is the kind's
  /// payload; `cause` links flow pairs (send/recv, suspend/resume) and is
  /// nonzero only when tracing. The metered kinds also reach the metrics
  /// sink when MachineConfig::metrics is on. Never charges the cost model.
  template <TraceKind K>
  void trace(MethodId method, std::uint32_t arg = 0, std::uint64_t cause = 0) {
    if constexpr (NodeMetrics::meters(K)) {
      if (metrics_ != nullptr) [[unlikely]] metrics_->note(K, method, arg);
    }
    if constexpr (!trace_kind_coarse(K)) {
      if (!tracer.enabled()) return;
    }
    tracer.record(clock_, K, method, arg, cause);
  }
  /// Histogram recorders, or nullptr when MachineConfig::metrics is off.
  NodeMetrics* metrics() { return metrics_.get(); }
  const NodeMetrics* metrics() const { return metrics_.get(); }

  /// Takes one queue-depth health sample. Engines call this periodically
  /// from whichever thread owns the node (the deterministic engine's
  /// scheduling loop, or the node's own thread in the threaded engine).
  void sample_health() {
    health.add(ready_.size(), outbox_.total(), arena_.live_count());
  }
  /// Per-call-edge profile (MachineConfig::profile_sites); empty and
  /// disabled by default. Touched only by this node's thread.
  SiteProfiler& sites() { return sites_; }
  const SiteProfiler& sites() const { return sites_; }

  NodeStats stats;
  /// This node's event ring (coarse window always, full trace when
  /// MachineConfig::trace) and queue-depth health samples; both feed
  /// POSTMORTEM.json on stall/panic. Touched only by this node's thread;
  /// read after quiescence or thread join.
  Tracer tracer;
  HealthStats health;
  /// Conformance sanitizer hook (enabled from MachineConfig::verify; records
  /// nothing and costs one branch per site when off). Touched only by this
  /// node's thread, like the outbox. Checked by verify::check_conformance.
  verify::VerifyRecorder verifier;

 private:
  /// Dynamic self-deadlock probe (concert-analyze; verify builds only): walks
  /// the deferred context's local continuation chain looking for an ancestor
  /// activation that holds the very lock `ctx` is waiting for. Such an
  /// invocation can never be dispatched — the holder cannot complete until
  /// the chain it spawned (including `ctx`) replies.
  bool deadlocked_on_ancestor(const Context& ctx);
  /// deliver()'s step for one message: joins the pending run if it may
  /// (merge_waves on, same method, wave-eligible, run below kWaveCap), else
  /// retires the run and delivers the message alone. `accounted` marks a
  /// bundle member, whose receive was paid at bundle arrival.
  void feed(Message& msg, bool accounted);
  /// Executes the pending run, if any, staging every send it makes and
  /// flushing them when it retires. A run of one takes deliver_element.
  void flush_run();
  /// Receive accounting (unless `accounted`), then reply fill / wrapper
  /// execution, then payload recycling.
  void deliver_element(Message& msg, bool accounted);
  /// Executes the pending run of two or more as one merged loop, charging
  /// the amortized wave costs (run_accounted_ as for deliver_element).
  void execute_wave();
  /// Delivery-order sanitizer probe (concert-race): joins the sender's
  /// vector clock and records Invoke deliveries per target object.
  void verify_delivery(const Message& msg);
  /// make_payload's spill: a pooled buffer holding the `n` values.
  Payload spill_payload(const Value* vs, std::size_t n);
  /// Hands a delivered payload's spill buffer, if any, back to the pool.
  void recycle_payload(Payload& p) {
    if (p.spilled()) release_payload(p.take_spill());
  }
  void bind_dispatch();
  /// consume_inbox's batch accounting: stats, the InboxDrain record, metrics.
  void note_inbox_batch(std::size_t n);
  /// Wakes the owner if it is parked; producers call it after a publish.
  void notify_if_parked() {
    // Deliberately relaxed — no fence on the publish path — so a publish
    // that races the owner's park decision can miss the flag; the park
    // timeout (a few hundred µs) is the backstop for that window, and
    // quiescence is unaffected because every queued message holds its work
    // credit. The mutex is only touched when a parked owner is observed.
    if (parked_.load(std::memory_order_relaxed)) {
      std::scoped_lock lk(park_mu_);
      park_cv_.notify_one();
    }
  }
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

  NodeId id_;
  Machine& machine_;
  const MachineConfig& cfg_;  ///< machine_.config(), immutable for the machine's life.
  std::uint64_t clock_ = 0;
  ContextArena arena_;
  std::deque<ContextId> ready_;  ///< FIFO of ready contexts (by id; gen checked at pop).
  std::size_t next_channel_ = 0;  ///< Inbox channel the next consume starts at.
  // Idle parking for the inbox consumer (threaded engine only). The mutex is
  // touched only when parking / waking a parked node — never on the publish
  // path of a running system.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  // The producers' line: every write reads the channel array and every
  // publish parked_, and nothing else the owner writes shares it (owner-hot
  // fields on the line producers touch once moved threaded EM3D by ~20%).
  // Its alignment also makes Node 64-byte aligned, so which fields share a
  // line does not depend on where the allocator placed the node.
  alignas(64) std::vector<ChannelFifo<Message>> inbox_;  ///< Indexed by source node.
  std::atomic<bool> parked_{false};
  // Flat dispatch table for this machine's mode; bound on first dispatch().
  alignas(64) const DispatchEntry* dispatch_ = nullptr;
  std::size_t dispatch_size_ = 0;
  // Flat spec-callee array the dispatch entries' spec spans index into;
  // nullptr unless MachineConfig::specialize_edges put entries in it.
  const MethodId* spec_ = nullptr;
  Outbox outbox_;  ///< Staged outgoing messages; touched only by this node's thread.
  /// Recycler for spilled payload buffers (more than Payload::kInline
  /// values). Acquired by this node's thread on send, refilled with spills
  /// arriving in delivered messages; no cross-thread access. Nothing keeps
  /// it balanced: a node that sends more spills than it receives misses and
  /// allocates, and one that receives more drops the excess at the cap.
  BufferPool<Value> payload_pool_{kPayloadPoolCap};
  static constexpr std::size_t kPayloadPoolCap = 256;
  /// Buffers kept across quiescence (quiesce_memory trims down to this).
  /// Kept close to the cap: bursty phases of long payloads (EM3D forward
  /// chains, MD-Force pushes) drain the pool faster than deliveries refill
  /// it, so a deep trim turns the first burst after every quiescent point
  /// into fresh heap allocations.
  static constexpr std::size_t kPayloadPoolKeep = 192;
  /// Receivers whose channel from this node holds unpublished messages
  /// (publish_sends empties it); a receiver may appear twice after a
  /// segment published itself. Touched only by this node's thread.
  std::vector<Node*> unpublished_;
  /// True while this node's threaded-engine thread runs: post() defers
  /// publishing to the end of the loop turn.
  bool defer_publish_ = false;
  // The pending run: the struct-of-arrays columns an InvokeWave view points
  // into, rebuilt per run from the delivered messages (capacity cycles, no
  // per-batch allocation). wave_msgs_ keeps the source messages so their
  // spilled payloads can be released after the run executes.
  std::vector<GlobalRef> wave_targets_;
  std::vector<const Value*> wave_args_;
  std::vector<std::uint32_t> wave_nargs_;
  std::vector<Continuation> wave_replies_;
  std::vector<Message*> wave_msgs_;
  /// Upper bound on a merged run. Caps the reply bundle a single run emits,
  /// which bounds how long a requester waits for its first replies while
  /// this node works through a long drain — past ~32 the amortization gain
  /// per extra member is negligible but the lost overlap is not.
  static constexpr std::size_t kWaveCap = 32;
  /// True while a wave run is executing: Node::send stages every outgoing
  /// message in the outbox regardless of flush policy, so the run's replies
  /// leave as one bundle per destination when the run retires.
  bool wave_staging_ = false;
  /// True when the pending run's members came out of a bundle. Runs never
  /// span a bundle boundary, so a run's accounting is uniform.
  bool run_accounted_ = false;
  std::unique_ptr<NodeMetrics> metrics_;  ///< Null unless MachineConfig::metrics.
  SiteProfiler sites_;  ///< Disabled (and empty) unless MachineConfig::profile_sites.
  ObjectSpace objects_;
  LocationCache loc_cache_;
  BlockInjector injector_;
  // Work credits (work_created/work_retired), on a line of their own: the
  // monitor's reads every 50 µs take it from the owner, and must take no
  // owner-hot field with it.
  alignas(64) std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace concert
