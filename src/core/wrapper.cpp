#include "core/wrapper.hpp"

#include <chrono>
#include <vector>

#include "core/invoke.hpp"
#include "core/registry.hpp"

namespace concert {

namespace {
// concert-insight site profiling: wall stamps are read only when the profiler
// is enabled and never enter the cost model.
inline std::uint64_t site_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
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

/// The conservative path: allocate a heap context and schedule it.
/// A message-owned `owned` payload that spilled is swapped into the context
/// instead of copied; the context's previous (cleared, capacity-bearing)
/// buffer flows back out through the message and into the node's payload
/// pool. An inline payload is copied into the context's recycled buffer.
void invoke_via_heap(Node& nd, MethodId method, GlobalRef target, const Value* args,
                     std::size_t nargs, const Continuation& k, Payload* owned = nullptr) {
  ++nd.stats.heap_invokes;
  Context& ctx = nd.alloc_context(method);
  ctx.self = target;
  if (owned != nullptr && owned->spilled()) {
    CONCERT_CHECK(owned->data() == args && owned->size() == nargs,
                  "owned payload does not match the args span");
    owned->swap_spill(ctx.args);
    ++nd.stats.payload_moves;
  } else {
    ctx.args.assign(args, args + nargs);
  }
  ctx.ret = k;
  nd.charge(nd.costs().heap_invoke_fixed + nd.costs().save_word * nargs +
            nd.costs().linkage_install);
  ctx.status = ContextStatus::Waiting;
  nd.enqueue(ctx);
}

}  // namespace

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

  // concert-insight: wrapper executions have no declared caller and record
  // under the "(message)" pseudo-caller (slot 0 of the SiteProfiler). The
  // invokes/remote counts mirror `count_invocation` exactly so the profile
  // totals reconcile with local_invokes + remote_invokes.
  SiteRecord* site = nullptr;
  if (nd.sites().enabled()) {
    site = &nd.sites().at(kInvalidMethod, method);
    if (count_invocation) ++site->invokes;
  }

  if (target.valid() && target.node != nd.id()) {
    if (count_invocation) ++nd.stats.remote_invokes;
    if (site != nullptr) {
      if (count_invocation) ++site->remote;
      ++site->diverts;
    }
    Payload payload;
    if (owned != nullptr) {
      // Re-route: the delivered payload travels onward unchanged.
      payload = std::move(*owned);
      ++nd.stats.payload_moves;
    } else {
      payload = nd.make_payload(args, nargs);
    }
    nd.send(Message::invoke(nd.id(), target.node, method, target, std::move(payload), k));
    return;
  }
  if (count_invocation) ++nd.stats.local_invokes;

  if (nd.mode() == ExecMode::ParallelOnly) {
    if (site != nullptr) ++site->diverts;
    invoke_via_heap(nd, method, target, args, nargs, k, owned);
    return;
  }

  // The handler may not run the method on its stack if the target object is
  // locked; divert to the scheduler.
  if (target.valid()) {
    nd.charge(nd.costs().lock_check);
    if (nd.objects().locked(target)) {
      if (site != nullptr) ++site->diverts;
      invoke_via_heap(nd, method, target, args, nargs, k, owned);
      return;
    }
  }

  // The exported interface deliberately keeps the *global* effective schema:
  // an invocation arriving here (a wrapper, a message handler) carries no
  // caller identity, so there is no declared edge to specialize — which is
  // exactly what makes the per-edge refinement in Frame::call *call-site*
  // sensitive rather than a blanket schema downgrade.
  const Schema schema = de.schema;
  charge_seq_call(nd, schema);
  ++nd.stats.stack_calls;
  std::uint64_t site_t0 = 0;
  if (site != nullptr) {
    ++site->attempts;
    site_t0 = site_now_ns();
  }
  const auto site_hit = [&] {
    if (site != nullptr) {
      ++site->nb_hits;
      site->stack_ns.record(site_now_ns() - site_t0);
    }
  };
  const auto site_fell_back = [&] {
    if (site != nullptr) {
      ++site->fallbacks;
      site->fallback_ns.record(site_now_ns() - site_t0);
    }
  };
  nd.trace<TraceKind::StackRun>(method);
  // Inclusive wall latency of the stack execution (records on every return
  // path below); a no-op when metrics are off.
  ScopedInvokeLatency lat(nd.metrics(), method);

  Value rv[8];
  switch (schema) {
    case Schema::NonBlocking: {
      const bool locked_here = acquire_implicit_lock(nd, de, method, target);
      Context* fbk = de.seq(nd, rv, CallerInfo::none(), target, args, nargs);
      CONCERT_CHECK(fbk == nullptr, "non-blocking method " << nd.registry().info(method).name
                                                           << " fell back");
      if (locked_here) release_implicit_lock(nd, target);
      ++nd.stats.stack_completions;
      site_hit();
      // A purely reactive invocation carries no continuation; otherwise pass
      // the return value(s) to the waiting future(s).
      nd.reply_to_multi(k, rv, de.multi_return);
      return;
    }
    case Schema::MayBlock: {
      const bool locked_here = acquire_implicit_lock(nd, de, method, target);
      Context* fbk = de.seq(nd, rv, CallerInfo::none(), target, args, nargs);
      if (fbk == nullptr) {
        if (locked_here) release_implicit_lock(nd, target);
        ++nd.stats.stack_completions;
        site_hit();
        nd.reply_to_multi(k, rv, de.multi_return);
      } else {
        site_fell_back();
        if (locked_here) fbk->holds_lock = true;
        // Place the continuation in the callee's context in case the method
        // suspended (Fig. 8, May-block row).
        nd.charge(nd.costs().linkage_install);
        fbk->ret = k;
      }
      return;
    }
    case Schema::ContinuationPassing: {
      Context& proxy = make_proxy_context(nd, k);
      const CallerInfo ci = proxy_caller_info(proxy);
      Context* fbk = de.seq(nd, rv, ci, target, args, nargs);
      if (fbk == nullptr) {
        // The method replied by storing through return_val: forward the value
        // to the original caller; the continuation was never materialized.
        ++nd.stats.stack_completions;
        site_hit();
        nd.reply_to(k, rv[0]);
      } else {
        // The continuation was extracted from the proxy (stored, forwarded,
        // or attached to a suspended context); the reply obligation has moved.
        site_fell_back();
        CONCERT_CHECK(fbk == &proxy, "CP wrapper got a foreign holder context");
      }
      nd.free_context(proxy);
      return;
    }
  }
}

void generic_nb_wave(Node& nd, const InvokeWave& w) {
  // One dispatch lookup for the whole run; the per-member loop carries only
  // the seq call and the reply. Wave eligibility (checked at seal() and again
  // at run-partition time) guarantees every member is non-blocking, unlocked
  // and local, so there is no fallback path and no implicit-lock bracket.
  const DispatchEntry& de = nd.dispatch(w.method);
  Value rv[8];
  for (std::size_t i = 0; i < w.count; ++i) {
    Context* fbk = de.seq(nd, rv, CallerInfo::none(), w.targets[i], w.args[i], w.nargs[i]);
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
