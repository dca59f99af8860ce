// cheby — naive Chebyshev recurrence T_n(x) = 2x T_{n-1}(x) - T_{n-2}(x):
// fib-shaped binary recursion over *floating point* futures, so Table 3 has a
// numeric program alongside the integer ones.
#include "apps/seqbench/seqbench_internal.hpp"

namespace concert::seqbench {

// Never inlined, not even into itself: inlining lets GCC unroll the
// recursion and share the repeated T_{n-2} calls, which collapses the call
// tree that the runtime versions make.
[[gnu::noinline]] double cheby_c(std::int64_t n, double x) {
  if (n == 0) return 1.0;
  if (n == 1) return x;
  return 2.0 * x * cheby_c(n - 1, x) - cheby_c(n - 2, x);
}

namespace detail {

namespace {

// Frame layout. ctx.args = {n, x}.
constexpr SlotId kA = 0;  // T_{n-1}
constexpr SlotId kB = 1;  // T_{n-2}

Context* cheby_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                   const Value* args, std::size_t nargs) {
  const std::int64_t n = args[0].as_i64();
  const double x = args[1].as_f64();
  if (n == 0) {
    *ret = Value(1.0);
    return nullptr;
  }
  if (n == 1) {
    *ret = Value(x);
    return nullptr;
  }
  Frame f(nd, g_cheby, self, ci, args, nargs);
  Value a, b;
  if (!f.call(g_cheby, self, {Value(n - 1), Value(x)}, kA, &a)) return f.fallback(1, {});
  if (!f.call(g_cheby, self, {Value(n - 2), Value(x)}, kB, &b)) {
    return f.fallback(2, {{kA, a}});
  }
  *ret = Value(2.0 * x * a.as_f64() - b.as_f64());
  return nullptr;
}

void cheby_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  const std::int64_t n = ctx.args[0].as_i64();
  const double x = ctx.args[1].as_f64();
  switch (ctx.pc) {
    case 0:
      if (n == 0) {
        f.complete(Value(1.0));
        return;
      }
      if (n == 1) {
        f.complete(Value(x));
        return;
      }
      f.spawn(g_cheby, ctx.self, {Value(n - 1), Value(x)}, kA);
      [[fallthrough]];
    case 1:
      f.spawn(g_cheby, ctx.self, {Value(n - 2), Value(x)}, kB);
      if (!f.touch(2)) return;
      [[fallthrough]];
    case 2:
      f.complete(Value(2.0 * x * f.get(kA).as_f64() - f.get(kB).as_f64()));
      return;
    default:
      CONCERT_UNREACHABLE("cheby_par bad pc");
  }
}

}  // namespace

MethodId register_cheby(MethodRegistry& reg, bool distributed) {
  MethodDecl d;
  d.name = "cheby";
  d.seq = cheby_seq;
  d.par = cheby_par;
  d.frame_slots = 2;
  d.arg_count = 2;
  d.blocks_locally = distributed;
  g_cheby = reg.declare(std::move(d));
  reg.add_callee(g_cheby, g_cheby);
  return g_cheby;
}

}  // namespace detail
}  // namespace concert::seqbench
