#include "core/invoke.hpp"

#include "core/wrapper.hpp"
#include "machine/machine.hpp"

namespace concert {

namespace {
/// Whether a stack attempt of `callee` on `target` may run here: the charged
/// locality and lock checks pass, and the block injector does not force it
/// parallel.
bool stack_attempt_here(Node& nd, MethodId callee, GlobalRef target) {
  return nd.local_and_unlocked(target) &&
         !(nd.injector().enabled() && nd.injector().should_block(callee));
}
}  // namespace

void take_implicit_lock(Node& nd, MethodId m, GlobalRef target) {
  nd.objects().lock(target);
  nd.verifier.record_lock_acquire(m, target.pack());
  nd.charge(nd.costs().lock_check);
}

void release_implicit_lock(Node& nd, GlobalRef target) {
  nd.objects().unlock(target);
  nd.verifier.record_lock_release(target.pack());
  nd.charge(nd.costs().lock_check);
}

void nb_callee_fell_back(Node& nd, MethodId callee) {
  CONCERT_UNREACHABLE("non-blocking callee " + nd.registry().info(callee).name +
                      " returned a fallback context");
}

MaterializedCont materialize_continuation(Node& nd, const CallerInfo& ci) {
  const CostModel& c = nd.costs();
  if (ci.forwarded) {
    // Case 1: the continuation was forwarded, so it already exists at the
    // fixed location of the (necessarily existing, local) holder context.
    CONCERT_CHECK(ci.context_exists, "forwarded CallerInfo without a context");
    Context& holder = nd.arena().resolve(ci.context);
    nd.charge(c.touch);
    Continuation k = holder.ret;
    k.forwarded = true;
    return {k, &holder};
  }
  Context* holder;
  if (ci.context_exists) {
    // Case 2: the caller's context exists but the continuation does not:
    // create one for a future at the return slot within that context.
    holder = &nd.arena().resolve(ci.context);
  } else {
    // Case 3: neither exists: lazily create the caller's context from the
    // size information in CallerInfo, then the continuation.
    CONCERT_CHECK(ci.caller_method != kInvalidMethod,
                  "cannot lazily create a context without caller size info");
    holder = &nd.alloc_context(ci.caller_method);
    holder->status = ContextStatus::Waiting;  // its owner will adopt + populate it
  }
  nd.charge(c.continuation_create);
  ++nd.stats.continuations_created;
  // The continuation's future becomes live now (a reply may race in through
  // it synchronously); the guard keeps the context unrunnable until its owner
  // has adopted it and saved state (released in Frame::fallback /
  // ParFrame::spawn after the call returns up the stack).
  holder->expect(ci.return_slot);
  nd.charge(c.future_expect);
  holder->add_guard();
  return {Continuation{holder->ref(), ci.return_slot, false}, holder};
}

Context& heap_invoke_local(Node& nd, MethodId callee, GlobalRef target, const Value* args,
                           std::size_t nargs, Continuation reply_to, Payload* owned) {
  const CostModel& c = nd.costs();
  ++nd.stats.heap_invokes;
  Context& ctx = nd.alloc_context(callee);
  ctx.self = target;
  if (owned != nullptr && owned->spilled()) {
    CONCERT_CHECK(owned->data() == args && owned->size() == nargs,
                  "owned payload does not match the args span");
    owned->swap_spill(ctx.arg_buffer());
    ctx.adopt_args();
    ++nd.stats.payload_moves;
  } else {
    ctx.save_args(args, nargs);
  }
  ctx.ret = reply_to;
  nd.charge(c.heap_invoke_fixed + c.save_word * nargs + c.linkage_install);
  ctx.status = ContextStatus::Waiting;  // enqueue() flips it to Ready
  nd.enqueue(ctx);
  return ctx;
}

void remote_invoke(Node& nd, MethodId callee, GlobalRef target, const Value* args,
                   std::size_t nargs, Continuation reply_to, Payload* owned) {
  if (owned != nullptr) ++nd.stats.payload_moves;
  nd.send(Message::invoke(nd.id(), target.node, callee, target,
                          owned != nullptr ? std::move(*owned) : nd.make_payload(args, nargs),
                          reply_to));
}

// ---------------------------------------------------------------------------
// Frame (caller side of a sequential version, and through ParFrame of a
// parallel one)
// ---------------------------------------------------------------------------

Context& Frame::materialize(Context* adopted) {
  if (ctx_ != nullptr) return *ctx_;
  nd_.verifier.record_block(method_);
  ctx_ = adopted != nullptr ? adopted : &nd_.alloc_context(method_);
  ctx_->self = self_;
  ctx_->save_args(args_, nargs_);
  nd_.charge(nd_.costs().save_word * nargs_);
  ctx_->status = ContextStatus::Waiting;
  ctx_->reverted = true;  // stays in the parallel version from here on
  ++nd_.stats.fallbacks;
  return *ctx_;
}

inline Continuation Frame::expect_reply(SlotId slot, std::size_t nret) {
  Context& me = materialize();
  for (std::size_t i = 0; i < nret; ++i) me.expect(static_cast<SlotId>(slot + i));
  nd_.charge(nd_.costs().future_expect);
  return Continuation{me.ref(), slot, false};
}

void Frame::go_parallel(MethodId callee, GlobalRef target, const Value* args,
                        std::size_t nargs, SlotId slot, std::size_t nret) {
  divert_invoke(nd_, callee, target, args, nargs, expect_reply(slot, nret));
}

bool Frame::call_general(const DispatchEntry& de, MethodId callee, GlobalRef target,
                         const Value* args, std::size_t nargs, SlotId slot, Value* out) {
  nd_.verifier.record_call(method_, callee);
  const bool is_remote = target.valid() && target.node != nd_.id();
  if (is_remote) {
    ++nd_.stats.remote_invokes;
  } else {
    ++nd_.stats.local_invokes;
  }
  SiteProbe site(nd_.sites(), method_, callee, is_remote);

  if (nd_.mode() == ExecMode::ParallelOnly) {
    // The parallel-only runtime still performs name translation + locality
    // checks to route the invocation.
    site.divert();
    nd_.charge(nd_.costs().name_translation + nd_.costs().locality_check);
    go_parallel(callee, target, args, nargs, slot, de.multi_return);
    return false;
  }

  const Schema schema = de.schema;
  charge_seq_call(nd_, schema);

  if (!stack_attempt_here(nd_, callee, target)) {
    site.divert();
    go_parallel(callee, target, args, nargs, slot, de.multi_return);
    return false;
  }

  // Speculative stack execution.
  ++nd_.stats.stack_calls;
  site.attempt();
  CONCERT_CHECK(de.variadic ? nargs >= de.arg_count : nargs == de.arg_count,
                "call of " << nd_.registry().info(callee).name << " with " << nargs
                           << " args, wants " << de.arg_count);
  CallerInfo ci;
  if (schema == Schema::ContinuationPassing) {
    ci.context_exists = ctx_ != nullptr;
    ci.forwarded = false;
    ci.caller_method = method_;
    ci.return_slot = slot;
    if (ctx_ != nullptr) ci.context = ctx_->ref();
  }
  const bool locked_here = acquire_implicit_lock(nd_, de, callee, target);
  Context* fbk = de.seq(nd_, out, ci, target, args, nargs);
  site.end(fbk == nullptr);
  if (fbk == nullptr) {
    if (locked_here) release_implicit_lock(nd_, target);
    ++nd_.stats.stack_completions;
    return true;
  }
  // The callee fell back: its (MB) context inherits the lock until its
  // parallel version completes. (locks_self is rejected on CP methods.)
  if (locked_here) fbk->holds_lock = true;

  // Establish the linkage per the callee's schema.
  switch (schema) {
    case Schema::NonBlocking:
      nb_callee_fell_back(nd_, callee);
    case Schema::MayBlock:
      // Fig. 6: fbk is the callee's freshly created context; insert the
      // continuation for its return value(s).
      fbk->ret = expect_reply(slot, de.multi_return);
      nd_.charge(nd_.costs().linkage_install);
      break;
    case Schema::ContinuationPassing: {
      // Fig. 7: fbk is *our* context (created lazily by the callee if we had
      // none); the callee already owns its reply continuation, and the return
      // slot was expected (plus guarded) at materialization time.
      if (ctx_ == nullptr) {
        CONCERT_CHECK(fbk->method == method_,
                      "CP callee materialized a context for method " << fbk->method
                                                                     << ", expected " << method_);
        materialize(fbk);
      } else {
        CONCERT_CHECK(fbk == ctx_, "CP callee returned a foreign context");
      }
      have_guard_ = true;  // dropped once the context may run (drop_guard)
      break;
    }
  }
  return false;
}

Context* Frame::forward(MethodId callee, GlobalRef target, const Value* args,
                        std::size_t nargs, Value* ret) {
  nd_.verifier.record_call(method_, callee);
  nd_.verifier.record_forward(method_, callee);
  nd_.verifier.record_cont_use(method_);
  const DispatchEntry& de = nd_.dispatch(callee);
  const Schema schema = de.schema;
  CONCERT_CHECK(schema == Schema::ContinuationPassing,
                "forwarding into " << nd_.registry().info(callee).name << " which is not CP");
  charge_seq_call(nd_, schema);

  const bool is_remote = target.valid() && target.node != nd_.id();
  if (is_remote) {
    ++nd_.stats.remote_invokes;
  } else {
    ++nd_.stats.local_invokes;
  }
  SiteProbe site(nd_.sites(), method_, callee, is_remote);
  if (stack_attempt_here(nd_, callee, target)) {
    ++nd_.stats.stack_calls;
    site.attempt();
    // Local forwarding stays on the stack: pass (ret, ci) through unchanged;
    // whatever the callee returns is exactly what we must return.
    Context* fbk = de.seq(nd_, ret, ci_, target, args, nargs);
    site.end(fbk == nullptr);
    if (fbk == nullptr) ++nd_.stats.stack_completions;
    return fbk;
  }

  // Off-node (or diverted) forwarding: the continuation must be materialized
  // and travels with the invocation. We complete right away; the reply
  // obligation now rests with the callee.
  site.divert();
  ++nd_.stats.continuations_forwarded;
  MaterializedCont mk = materialize_continuation(nd_, ci_);
  mk.cont.forwarded = true;
  divert_invoke(nd_, callee, target, args, nargs, mk.cont);
  return mk.holder;
}

Context* Frame::fallback(std::uint32_t resume_pc,
                         std::initializer_list<std::pair<SlotId, Value>> saved) {
  CONCERT_CHECK(ctx_ != nullptr, "fallback() before any failed call()");
  return unwind(resume_pc, saved, /*runnable=*/false);
}

Context* Frame::yield_to_parallel(std::uint32_t resume_pc,
                                  std::initializer_list<std::pair<SlotId, Value>> saved) {
  materialize();
  return unwind(resume_pc, saved, /*runnable=*/true);  // nothing to wait for
}

Context* Frame::unwind(std::uint32_t resume_pc,
                       std::initializer_list<std::pair<SlotId, Value>> saved, bool runnable) {
  Context& me = *ctx_;
  me.pc = resume_pc;
  for (const auto& [slot, v] : saved) {
    me.save(slot, v);
    nd_.charge(nd_.costs().save_word);
  }
  if (runnable) {
    nd_.enqueue(me);
  } else {
    nd_.suspend(me);
  }

  Context* up = &me;  // MB: our caller will install our return continuation into `me`.
  switch (my_schema()) {
    case Schema::NonBlocking:
      CONCERT_UNREACHABLE("non-blocking method attempted fallback");
    case Schema::MayBlock:
      break;
    case Schema::ContinuationPassing: {
      // We must arrange our own reply continuation from our CallerInfo and
      // hand the continuation's holder context back up the stack.
      nd_.verifier.record_cont_use(method_);
      MaterializedCont mk = materialize_continuation(nd_, ci_);
      me.ret = mk.cont;
      nd_.charge(nd_.costs().linkage_install);
      up = mk.holder;
      break;
    }
  }
  // Unwinding of this activation is complete: drop the adoption guard (if a
  // CP callee materialized our context); a synchronously delivered value can
  // now legitimately make us runnable.
  drop_guard();
  return up;
}

// ---------------------------------------------------------------------------
// ParFrame (caller side of a parallel version)
// ---------------------------------------------------------------------------

bool ParFrame::touch(std::uint32_t resume_pc) {
  nd_.charge(nd_.costs().touch);
  if (!nd_.futures_in_context()) {
    // Ablation A2 (the StackThreads layout): futures allocated apart from
    // the context cost an extra indirection on every touch.
    nd_.charge(1);
  }
  if (ctx_->join == 0) return true;
  ctx_->pc = resume_pc;
  nd_.suspend(*ctx_);
  return false;
}

void ParFrame::complete(const Value& v) {
  if (ctx_->holds_lock) {
    ctx_->holds_lock = false;
    release_implicit_lock(nd_, ctx_->self);
  }
  nd_.verifier.record_reply(ctx_->method, 1);
  nd_.reply_to(ctx_->ret, v);
  nd_.free_context(*ctx_);
}

void ParFrame::complete_multi(const Value* vs, std::size_t n) {
  if (ctx_->holds_lock) {
    ctx_->holds_lock = false;
    release_implicit_lock(nd_, ctx_->self);
  }
  nd_.verifier.record_reply(ctx_->method, static_cast<std::uint8_t>(n));
  nd_.reply_to_multi(ctx_->ret, vs, n);
  nd_.free_context(*ctx_);
}

}  // namespace concert
