// chain — a continuation-forwarding chain (paper Sec. 3.2.3 / Fig. 7).
//
// Each link forwards its reply obligation to the next link; the base link
// answers the *original* caller directly. On the stack this degenerates to
// passing the same (return_val, caller_info) pair down a chain of C calls —
// the whole forwarded computation completes without a single heap context.
// If any link is diverted (remote target, injection), the continuation is
// materialized at that point and travels with the invocation.
#include "apps/seqbench/seqbench_internal.hpp"

namespace concert::seqbench {

std::int64_t chain_c(std::int64_t depth) {
  // The C equivalent is a tail-recursive walk, one step per link. The empty
  // asm makes each step opaque to the optimizer, which would otherwise drop
  // the loop and return 42 at once.
  while (depth > 0) {
    --depth;
    asm volatile("" : "+r"(depth));
  }
  return 42;
}

namespace detail {

namespace {

Context* chain_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                   std::size_t nargs) {
  const std::int64_t depth = args[0].as_i64();
  if (depth <= 0) {
    // The base of the chain replies by storing through return_val; NULL
    // propagates back through every link to the forwarding root.
    *ret = Value(std::int64_t{42});
    return nullptr;
  }
  Frame f(nd, g_chain, self, ci, args, nargs);
  return f.forward(g_chain, self, {Value(depth - 1)}, ret);
}

void chain_par(Node& nd, Context& ctx) {
  const std::int64_t depth = ctx.args[0].as_i64();
  Continuation k = ctx.ret;
  const GlobalRef self = ctx.self;
  nd.free_context(ctx);
  if (depth <= 0) {
    nd.reply_to(k, Value(std::int64_t{42}));
    return;
  }
  // Forward our continuation to the next link; we are done.
  k.forwarded = true;
  ++nd.stats.continuations_forwarded;
  const Value next{depth - 1};
  invoke_with_continuation(nd, g_chain, self, &next, 1, k);
}

}  // namespace

MethodId register_chain(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "chain";
  d.seq = chain_seq;
  d.par = chain_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  // Termination fact (concert-progress): the self-forward shrinks `depth`
  // every hop and depth <= 0 replies directly — a bounded recursion, not a
  // livelock.
  d.bounded_forwarding = true;
  g_chain = reg.declare(std::move(d));
  reg.add_callee(g_chain, g_chain, /*forwards=*/true);
  return g_chain;
}

}  // namespace detail
}  // namespace concert::seqbench
