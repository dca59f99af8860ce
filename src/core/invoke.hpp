// Call-site machinery: speculative stack execution with lazy fallback.
//
// This module is what the Concert compiler would emit at every method call
// site. Application "generated code" uses two helpers:
//
//   * Frame     — the caller side inside a *sequential* (stack) version.
//                 Frame::call attempts a sub-invocation on the stack; if the
//                 callee completes the value is immediately available, and if
//                 not, Frame::fallback performs the paper's lazy unwinding:
//                 materialize this activation's heap context, save live state,
//                 set the resume point, install linkage, and produce the value
//                 to return up the stack (per this method's own schema).
//
//   * ParFrame  — the caller side inside a *parallel* (heap) version: a
//                 Frame whose context already exists and is running.
//                 ParFrame::spawn is Frame::call from such a caller, so
//                 children still try the stack (the hybrid fast path works
//                 from parallel callers too) and their results land in this
//                 context's future slots; ParFrame::touch is the single
//                 counter-based multi-future touch of Fig. 4.
//
// Every invoke entry — Frame::call, ParFrame::spawn, Frame::forward and the
// wrapper (core/wrapper.hpp) — sends what does not run on its stack through
// divert_invoke, and reports to the site profiler through one SiteProbe.
//
// The protocol invariants (what non-null seq returns mean, who creates which
// context) are documented on SeqFn in core/registry.hpp.
#pragma once

#include <initializer_list>
#include <utility>

#include "core/caller_info.hpp"
#include "core/context.hpp"
#include "core/registry.hpp"
#include "core/wrapper.hpp"
#include "machine/node.hpp"

namespace concert {

/// (continuation, context-holding-its-future) pair produced when a CP
/// method's continuation must actually be materialized (fallback or off-node
/// forwarding). Implements Sec. 3.2.3's three cases: forwarded (extract from
/// the fixed location), context-exists (make a continuation to its return
/// slot), neither (lazily create the caller's context first).
struct MaterializedCont {
  Continuation cont;
  Context* holder;  ///< The context containing the continuation's future.
};
MaterializedCont materialize_continuation(Node& nd, const CallerInfo& ci);

/// Charges the per-schema sequential call cost at a call site.
inline void charge_seq_call(Node& nd, Schema callee_schema) {
  const CostModel& c = nd.costs();
  switch (callee_schema) {
    case Schema::NonBlocking: nd.charge(c.c_call + c.nb_call_extra); break;
    case Schema::MayBlock: nd.charge(c.c_call + c.mb_call_extra); break;
    case Schema::ContinuationPassing: nd.charge(c.c_call + c.cp_call_extra); break;
  }
}

/// Takes the target object's lock on behalf of method `m` (the body of
/// acquire_implicit_lock once it has decided a lock is due).
void take_implicit_lock(Node& nd, MethodId m, GlobalRef target);

/// Implicit locking (MethodDecl::locks_self): acquire the target object's
/// lock before running method `m`. Returns whether a lock was taken. The
/// method id feeds the verify recorder's lock-held shadow (concert-analyze);
/// the runtime lock itself is keyed by the object alone.
inline bool acquire_implicit_lock(Node& nd, const DispatchEntry& de, MethodId m,
                                  GlobalRef target) {
  if (!de.locks_self || !target.valid()) return false;
  take_implicit_lock(nd, m, target);
  return true;
}
void release_implicit_lock(Node& nd, GlobalRef target);

/// The protocol violation of an NB-declared callee whose seq version
/// returned a fallback context. Always throws ProtocolError.
[[noreturn]] void nb_callee_fell_back(Node& nd, MethodId callee);

/// The CallerInfo of a call that passes none: NB and MB callees, wrapper
/// executions of them, and the frame of an activation that already runs in
/// its parallel version (its context exists, so it is never adopted).
inline constexpr CallerInfo kNoCaller = CallerInfo::none();

/// True when a call of `de` may take the inline NB stack-hit path
/// (nb_stack_hit): the callee's effective schema is NB and it takes no
/// implicit lock, and nothing observes individual calls — the verifier,
/// the site profiler and the block injector are all off. Every other call
/// runs the general out-of-line path, whose charges and counters the fast
/// path reproduces exactly.
inline bool nb_fast_path(const Node& nd, const DispatchEntry& de) {
  return de.schema == Schema::NonBlocking && !de.locks_self && !nd.verifier.enabled() &&
         !nd.sites().enabled() && !nd.injector().enabled();
}

/// The NB stack-hit path shared by Frame::call and ParFrame::spawn, for a
/// callee that passed nb_fast_path. Charges the NB sequential call and the
/// name-translation / locality / lock checks and counts the invocation.
/// Returns false, having run nothing, when the target is not runnable here
/// (the caller diverts to its parallel path); otherwise runs the callee's
/// seq version on this stack and returns true with its value(s) in `out`.
inline bool nb_stack_hit(Node& nd, const DispatchEntry& de, MethodId callee, GlobalRef target,
                         const Value* args, std::size_t nargs, Value* out) {
  charge_seq_call(nd, Schema::NonBlocking);
  if (target.valid() && target.node != nd.id()) {
    ++nd.stats.remote_invokes;
  } else {
    ++nd.stats.local_invokes;
  }
  if (!nd.local_and_unlocked(target)) return false;
  ++nd.stats.stack_calls;
  CONCERT_CHECK(de.variadic ? nargs >= de.arg_count : nargs == de.arg_count,
                "call of " << nd.registry().info(callee).name << " with " << nargs
                           << " args, wants " << de.arg_count);
  if (de.seq(nd, out, kNoCaller, target, args, nargs) != nullptr) {
    nb_callee_fell_back(nd, callee);
  }
  ++nd.stats.stack_completions;
  return true;
}

class Frame {
 public:
  /// `my_ci` is the CallerInfo this activation itself received (only
  /// meaningful when this method's schema is ContinuationPassing).
  Frame(Node& nd, MethodId my_method, GlobalRef self, const CallerInfo& my_ci,
        const Value* args, std::size_t nargs)
      : nd_(nd), method_(my_method), self_(self), ci_(my_ci), args_(args), nargs_(nargs) {}
  /// The frame keeps a reference to its CallerInfo: a temporary would dangle.
  Frame(Node&, MethodId, GlobalRef, CallerInfo&&, const Value*, std::size_t) = delete;

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// Hybrid sub-invocation. Returns true when the callee completed and *out
  /// holds the value (for a multi_return method, out[0..K) — pass an array).
  /// Returns false when the callee went parallel: the value(s) will
  /// eventually arrive in `slot` (.. slot+K-1) of this activation's context
  /// (already expected); the caller must save state with fallback() and
  /// return its result up the stack.
  bool call(MethodId callee, GlobalRef target, std::initializer_list<Value> args, SlotId slot,
            Value* out) {
    return call(callee, target, args.begin(), args.size(), slot, out);
  }
  bool call(MethodId callee, GlobalRef target, const Value* args, std::size_t nargs, SlotId slot,
            Value* out) {
    const DispatchEntry& de = nd_.dispatch(callee);
    if (!nb_fast_path(nd_, de)) return call_general(de, callee, target, args, nargs, slot, out);
    if (nb_stack_hit(nd_, de, callee, target, args, nargs, out)) return true;
    go_parallel(callee, target, args, nargs, slot, de.multi_return);
    return false;
  }

  /// Tail-forwards this activation's continuation responsibility to `callee`
  /// (which must have the CP schema): local targets execute on this very
  /// stack with (ret, ci) passed through unchanged; remote targets force
  /// materialization of the continuation, which then travels with the
  /// message. The caller must `return` the result directly.
  Context* forward(MethodId callee, GlobalRef target, std::initializer_list<Value> args,
                   Value* ret) {
    return forward(callee, target, args.begin(), args.size(), ret);
  }
  Context* forward(MethodId callee, GlobalRef target, const Value* args, std::size_t nargs,
                   Value* ret);

  /// Performs this activation's half of the unwinding after a failed call():
  /// records the resume point and live state in the (already materialized)
  /// context and returns the value this seq function must return, per this
  /// method's own schema (MB: own context; CP: the parent context, with this
  /// context's reply continuation installed).
  Context* fallback(std::uint32_t resume_pc,
                    std::initializer_list<std::pair<SlotId, Value>> saved);

  /// Immediate transfer to the parallel version without waiting on anything:
  /// materializes the context, records the resume point and saved state, and
  /// *enqueues* it (it is runnable right away). Used by long-running driver
  /// methods whose sequential versions would block at entry (e.g. iteration
  /// drivers that immediately hit a barrier). Returns the value this seq
  /// function must return up the stack, like fallback().
  Context* yield_to_parallel(std::uint32_t resume_pc,
                             std::initializer_list<std::pair<SlotId, Value>> saved);

  /// The materialized context, if any (tests).
  Context* ctx() { return ctx_; }

 protected:
  /// A frame over an activation already running in its parallel version
  /// (ParFrame): its context exists, so a failed call never materializes or
  /// adopts one, and it passes no caller info of its own.
  Frame(Node& nd, Context& running)
      : nd_(nd), ctx_(&running), method_(running.method), self_(running.self), ci_(kNoCaller) {}

  /// call() for everything nb_fast_path rejects: MB and CP linkage, edge
  /// specialization, implicit locks, site profiling, verification, block
  /// injection and the parallel-only mode (which runs no stack version, so
  /// only a ParFrame reaches that divert).
  bool call_general(const DispatchEntry& de, MethodId callee, GlobalRef target,
                    const Value* args, std::size_t nargs, SlotId slot, Value* out);
  /// Common "the callee must run in parallel" path: expect_reply, then
  /// divert_invoke.
  void go_parallel(MethodId callee, GlobalRef target, const Value* args, std::size_t nargs,
                   SlotId slot, std::size_t nret);
  /// Drops the guard a CP callee that fell back put on this frame's context
  /// (once the context may run: it is saved, or it is already running).
  void drop_guard() {
    if (have_guard_) {
      have_guard_ = false;
      nd_.release_guard(*ctx_);
    }
  }

  Node& nd_;
  Context* ctx_ = nullptr;  ///< Null only in a sequential frame that has not fallen back.

 private:
  /// This activation's context, created now if it does not exist yet, or
  /// `adopted`: the one a CP callee created lazily from our CallerInfo.
  Context& materialize(Context* adopted = nullptr);
  /// Expects `slot` (..+nret-1) in this activation's context (materialized
  /// if need be) and returns the continuation the callee replies through.
  Continuation expect_reply(SlotId slot, std::size_t nret);
  /// fallback() and yield_to_parallel() once the context exists: saves the
  /// resume point and state, suspends it (or enqueues it when `runnable`),
  /// links the reply per this method's schema and drops the guard.
  Context* unwind(std::uint32_t resume_pc, std::initializer_list<std::pair<SlotId, Value>> saved,
                  bool runnable);
  /// This activation's own effective schema, looked up once per frame and
  /// cached (fallback() and yield_to_parallel() both consult it).
  Schema my_schema() {
    if (!schema_cached_) {
      my_schema_ = nd_.dispatch(method_).schema;
      schema_cached_ = true;
    }
    return my_schema_;
  }

  MethodId method_;
  GlobalRef self_;
  const CallerInfo& ci_;
  const Value* args_ = nullptr;
  std::size_t nargs_ = 0;
  bool have_guard_ = false;  ///< A CP callee guarded our context; drop_guard() releases it.
  Schema my_schema_ = Schema::NonBlocking;  ///< Valid when schema_cached_.
  bool schema_cached_ = false;
};

class ParFrame : private Frame {
 public:
  ParFrame(Node& nd, Context& ctx) : Frame(nd, ctx) {}

  /// Issues a child invocation whose result lands in `slot`. In hybrid modes
  /// the child may complete inline on the stack (slot filled immediately);
  /// otherwise the slot is expected and will be filled by a reply.
  void spawn(MethodId callee, GlobalRef target, std::initializer_list<Value> args, SlotId slot) {
    spawn(callee, target, args.begin(), args.size(), slot);
  }
  void spawn(MethodId callee, GlobalRef target, const Value* args, std::size_t nargs,
             SlotId slot) {
    const DispatchEntry& de = nd_.dispatch(callee);
    Value out[kMaxReturns];
    if (nd_.mode() == ExecMode::ParallelOnly || !nb_fast_path(nd_, de)) {
      if (!call_general(de, callee, target, args, nargs, slot, out)) {
        // A CP callee that fell back guarded our return slot. We are Running
        // (a fill cannot enqueue us), so the guard can drop at once.
        drop_guard();
        return;
      }
    } else if (!nb_stack_hit(nd_, de, callee, target, args, nargs, out)) {
      go_parallel(callee, target, args, nargs, slot, de.multi_return);
      return;
    }
    for (std::size_t i = 0; i < de.multi_return; ++i) {
      ctx_->save(static_cast<SlotId>(slot + i), out[i]);
    }
  }

  /// Counter-based touch of everything spawned so far. True: all values
  /// present, keep executing. False: the context suspended; the parallel
  /// version must return immediately and will be re-dispatched at
  /// `resume_pc` once the last outstanding future fills.
  bool touch(std::uint32_t resume_pc);

  /// Replies through the context's return continuation and frees the context.
  /// The parallel version must return immediately afterwards.
  void complete(const Value& v);
  /// Multi-value completion (methods declared with multi_return > 1).
  void complete_multi(const Value* vs, std::size_t n);

  /// Reads a filled slot.
  Value get(SlotId s) const { return ctx_->get(s); }
  /// Writes a slot as a saved local.
  void save(SlotId s, const Value& v) { ctx_->save(s, v); }

  Context& ctx() { return *ctx_; }
};

/// Local heap invocation: allocates the callee's context, marshals arguments,
/// installs the reply continuation, and enqueues it. The paper's ~130
/// instruction parallel invocation path. Returns the new context. `owned`,
/// when non-null, is the message-owned payload `args` points into: a spilled
/// one is swapped into the context as its argument buffer instead of copied
/// (the context's previous, cleared buffer flows back out through the message
/// into the node's payload pool).
Context& heap_invoke_local(Node& nd, MethodId callee, GlobalRef target, const Value* args,
                           std::size_t nargs, Continuation reply_to, Payload* owned = nullptr);

/// Remote invocation: builds and sends an Invoke message. An `owned` payload
/// (a delivered message's, being re-routed) travels onward unchanged.
void remote_invoke(Node& nd, MethodId callee, GlobalRef target, const Value* args,
                   std::size_t nargs, Continuation reply_to, Payload* owned = nullptr);

/// The parallel path of every invoke entry: chases local forwarding records
/// (a migrated object's stale name reaches its new home), then sends the
/// invocation (remote_invoke) or enqueues a heap context for it
/// (heap_invoke_local). Inline, so each go_parallel calls those directly.
inline void divert_invoke(Node& nd, MethodId callee, GlobalRef target, const Value* args,
                          std::size_t nargs, const Continuation& reply_to,
                          Payload* owned = nullptr) {
  target = resolve_forwarding(nd, target);
  if (target.valid() && target.node != nd.id()) {
    remote_invoke(nd, callee, target, args, nargs, reply_to, owned);
  } else {
    heap_invoke_local(nd, callee, target, args, nargs, reply_to, owned);
  }
}

}  // namespace concert
