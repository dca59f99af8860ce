#include "core/wrapper.hpp"

#include "core/invoke.hpp"
#include "core/registry.hpp"

namespace concert {

namespace {
/// Records the run_end that closes a wrapper stack run when it leaves scope,
/// so every return path (and an unwinding check) closes the run, in the
/// trace and in the metrics sink.
struct StackRunEnd {
  Node& nd;
  MethodId method;
  ~StackRunEnd() { nd.trace<TraceKind::RunEnd>(method); }
};
}  // namespace

Context& make_proxy_context(Node& nd, const Continuation& k) {
  Context& proxy = nd.alloc_context_raw(kInvalidMethod, 0);
  proxy.status = ContextStatus::Proxy;
  proxy.ret = k;  // the fixed continuation location
  nd.charge(nd.costs().proxy_setup);
  ++nd.stats.proxy_contexts;
  return proxy;
}

CallerInfo proxy_caller_info(const Context& proxy) {
  CallerInfo ci;
  ci.context_exists = true;
  ci.forwarded = true;
  ci.context = proxy.ref();
  ci.return_slot = 0;
  return ci;
}

namespace {

/// True when `r` names a local object that has migrated away — the only case
/// where a forwarding chase (and hence the location cache) applies.
bool locally_forwarded(Node& nd, const GlobalRef& r) {
  return r.valid() && r.node == nd.id() && nd.objects().is_forwarded(r);
}

}  // namespace

GlobalRef resolve_forwarding(Node& nd, GlobalRef target) {
  if (!locally_forwarded(nd, target)) return target;  // the overwhelming common case
  // Stale name: consult the location cache before walking the forwarding
  // chain. A hit resolves in one probe (charged as a single name translation
  // instead of one per hop); the cached answer is only a hint, so a hit that
  // is itself a stale local name falls through to the chase below and the
  // entry is refreshed with the true current home (chase-then-update).
  LocationCache& cache = nd.location_cache();
  const GlobalRef original = target;
  if (const GlobalRef* cached = cache.lookup(target)) {
    ++nd.stats.loc_cache_hits;
    nd.charge(nd.costs().name_translation);
    target = *cached;
    if (!locally_forwarded(nd, target)) return target;
  } else {
    ++nd.stats.loc_cache_misses;
  }
  while (locally_forwarded(nd, target)) {
    nd.charge(nd.costs().name_translation);
    target = nd.objects().forward_of(target);
  }
  if (cache.insert(original, target)) ++nd.stats.cache_evictions;
  return target;
}

void invoke_with_continuation(Node& nd, MethodId method, GlobalRef target, const Value* args,
                              std::size_t nargs, const Continuation& k, bool count_invocation,
                              Payload* owned) {
  CONCERT_CHECK(method != kInvalidMethod, "invoke of invalid method");
  target = resolve_forwarding(nd, target);
  const DispatchEntry& de = nd.dispatch(method);
  CONCERT_CHECK(de.variadic ? nargs >= de.arg_count : nargs == de.arg_count,
                "invoke of " << nd.registry().info(method).name << " with " << nargs
                             << " args, wants " << de.arg_count);

  const bool is_remote = target.valid() && target.node != nd.id();
  if (count_invocation) {
    if (is_remote) {
      ++nd.stats.remote_invokes;
    } else {
      ++nd.stats.local_invokes;
    }
  }
  // concert-insight: wrapper executions have no declared caller and record
  // under the "(message)" pseudo-caller (slot 0 of the SiteProfiler).
  SiteProbe site(nd.sites(), kInvalidMethod, method, is_remote, count_invocation);

  // The handler runs the method on its stack unless the target is remote
  // (the message is re-routed), the mode runs no stack version, or the target
  // object is locked.
  bool divert = is_remote || nd.mode() == ExecMode::ParallelOnly;
  if (!divert && target.valid()) {
    nd.charge(nd.costs().lock_check);
    divert = nd.objects().locked(target);
  }
  if (divert) {
    site.divert();
    divert_invoke(nd, method, target, args, nargs, k, owned);
    return;
  }

  // The exported interface deliberately keeps the *global* effective schema:
  // an invocation arriving here (a wrapper, a message handler) carries no
  // caller identity, so there is no declared edge to specialize — which is
  // exactly what makes the per-edge refinement in Frame::call *call-site*
  // sensitive rather than a blanket schema downgrade.
  const Schema schema = de.schema;
  charge_seq_call(nd, schema);
  ++nd.stats.stack_calls;
  site.attempt();
  nd.trace<TraceKind::StackRun>(method);
  const StackRunEnd run_end{nd, method};

  Value rv[kMaxReturns];
  if (schema == Schema::ContinuationPassing) {
    Context& proxy = make_proxy_context(nd, k);
    Context* fbk = de.seq(nd, rv, proxy_caller_info(proxy), target, args, nargs);
    site.end(fbk == nullptr);
    if (fbk == nullptr) {
      // The method replied by storing through return_val: forward the value
      // to the original caller; the continuation was never materialized.
      ++nd.stats.stack_completions;
      nd.reply_to(k, rv[0]);
    } else {
      // The continuation was extracted from the proxy (stored, forwarded,
      // or attached to a suspended context); the reply obligation has moved.
      CONCERT_CHECK(fbk == &proxy, "CP wrapper got a foreign holder context");
    }
    nd.free_context(proxy);
    return;
  }
  const bool locked_here = acquire_implicit_lock(nd, de, method, target);
  Context* fbk = de.seq(nd, rv, kNoCaller, target, args, nargs);
  CONCERT_CHECK(fbk == nullptr || schema == Schema::MayBlock,
                "non-blocking method " << nd.registry().info(method).name << " fell back");
  site.end(fbk == nullptr);
  if (fbk == nullptr) {
    if (locked_here) release_implicit_lock(nd, target);
    ++nd.stats.stack_completions;
    // A purely reactive invocation carries no continuation; otherwise pass
    // the return value(s) to the waiting future(s).
    nd.reply_to_multi(k, rv, de.multi_return);
    return;
  }
  if (locked_here) fbk->holds_lock = true;
  // Place the continuation in the callee's context in case the method
  // suspended (Fig. 8, May-block row).
  nd.charge(nd.costs().linkage_install);
  fbk->ret = k;
}

void generic_nb_wave(Node& nd, const InvokeWave& w) {
  // One dispatch lookup for the whole run; the per-member loop carries only
  // the seq call and the reply. Wave eligibility (checked at seal() and again
  // at run-partition time) guarantees every member is non-blocking, unlocked
  // and local, so there is no fallback path and no implicit-lock bracket.
  const DispatchEntry& de = nd.dispatch(w.method);
  Value rv[kMaxReturns];
  for (std::size_t i = 0; i < w.count; ++i) {
    Context* fbk = de.seq(nd, rv, kNoCaller, w.targets[i], w.args[i], w.nargs[i]);
    CONCERT_CHECK(fbk == nullptr, "non-blocking method " << nd.registry().info(w.method).name
                                                         << " fell back inside a wave");
    nd.reply_to_multi(w.replies[i], rv, de.multi_return);
  }
}

void handle_invoke_message(Node& nd, Message& msg) {
  CONCERT_CHECK(msg.method != kInvalidMethod, "invoke message without a method");
  // Executes the stack version directly out of the message buffer. A message
  // whose target is not local (a seed injected on the "wrong" node, or a
  // future object-migration feature) is transparently re-routed by the
  // remote branch inside. The invocation was already counted at the sender.
  invoke_with_continuation(nd, msg.method, msg.target, msg.args.data(), msg.args.size(),
                           msg.reply_to, /*count_invocation=*/false, /*owned=*/&msg.args);
}

}  // namespace concert
