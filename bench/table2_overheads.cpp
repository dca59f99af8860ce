// Table 2 — base overheads of the invocation schemas.
//
// The paper reports, in SPARC instructions beyond a plain C call: the cost of
// a sequential schema call that completes on the stack (left table) and the
// additional cost when the invocation unwinds into the heap (right table),
// for each caller/callee schema combination, plus the ~130-instruction
// heap-based parallel invocation. We *measure* the same quantities from the
// runtime's charged instruction stream (the costs are charged where the work
// happens, not read from a table), then run google-benchmark wall-clock
// microbenchmarks of the same paths.
#include <benchmark/benchmark.h>

#include "apps/seqbench/seqbench.hpp"
#include "bench_util.hpp"
#include "core/invoke.hpp"
#include "core/registry.hpp"

namespace concert {
namespace {

MethodId g_leaf_nb, g_leaf_mb, g_leaf_cp, g_mid_mb, g_mid_cp, g_noop_mb, g_noop_cp;
constexpr SlotId kV = 0;

// Empty leaves: one per schema, so a call's measured cost is pure overhead.
Context* leaf_nb_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                     std::size_t) {
  *ret = Value(1);
  return nullptr;
}
Context* leaf_mb_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                     std::size_t) {
  *ret = Value(1);
  return nullptr;
}
Context* leaf_cp_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                     std::size_t) {
  *ret = Value(1);
  return nullptr;
}
void leaf_par(Node& nd, Context& ctx) { ParFrame(nd, ctx).complete(Value(1)); }

MethodId pick_leaf(std::int64_t c) { return c == 0 ? g_leaf_nb : c == 1 ? g_leaf_mb : g_leaf_cp; }

Context* mid_mb_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                    const Value* args, std::size_t nargs) {
  Frame f(nd, g_mid_mb, self, ci, args, nargs);
  Value v;
  if (!f.call(pick_leaf(args[0].as_i64()), self, {}, kV, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
Context* mid_cp_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                    const Value* args, std::size_t nargs) {
  Frame f(nd, g_mid_cp, self, ci, args, nargs);
  Value v;
  if (!f.call(pick_leaf(args[0].as_i64()), self, {}, kV, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
// Bodies identical to mid_* but without the call: the per-caller harness
// baseline (seed message + wrapper dispatch of this caller schema).
Context* noop_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  *ret = Value(0);
  return nullptr;
}

void mid_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(pick_leaf(ctx.args[0].as_i64()), ctx.self, {}, kV);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      f.complete(f.get(kV));
      return;
  }
}

std::unique_ptr<SimMachine> make_machine(ExecMode mode) {
  auto m = std::make_unique<SimMachine>(1, bench::make_config(mode, CostModel::workstation()));
  auto& reg = m->registry();
  MethodDecl d;
  d.name = "leaf_nb";
  d.seq = leaf_nb_seq;
  d.par = leaf_par;
  g_leaf_nb = reg.declare(d);
  d = MethodDecl{};
  d.name = "leaf_mb";
  d.seq = leaf_mb_seq;
  d.par = leaf_par;
  d.blocks_locally = true;
  g_leaf_mb = reg.declare(d);
  d = MethodDecl{};
  d.name = "leaf_cp";
  d.seq = leaf_cp_seq;
  d.par = leaf_par;
  d.uses_continuation = true;
  g_leaf_cp = reg.declare(d);
  d = MethodDecl{};
  d.name = "mid_mb";
  d.seq = mid_mb_seq;
  d.par = mid_par;
  d.frame_slots = 1;
  d.arg_count = 1;
  g_mid_mb = reg.declare(d);
  reg.add_callee(g_mid_mb, g_leaf_nb);
  reg.add_callee(g_mid_mb, g_leaf_mb);
  reg.add_callee(g_mid_mb, g_leaf_cp);
  d = MethodDecl{};
  d.name = "mid_cp";
  d.seq = mid_cp_seq;
  d.par = mid_par;
  d.frame_slots = 1;
  d.arg_count = 1;
  d.uses_continuation = true;
  g_mid_cp = reg.declare(d);
  reg.add_callee(g_mid_cp, g_leaf_nb);
  reg.add_callee(g_mid_cp, g_leaf_mb);
  reg.add_callee(g_mid_cp, g_leaf_cp);
  d = MethodDecl{};
  d.name = "noop_mb";
  d.seq = noop_seq;
  d.par = leaf_par;
  d.arg_count = 1;
  d.blocks_locally = true;
  g_noop_mb = reg.declare(d);
  d = MethodDecl{};
  d.name = "noop_cp";
  d.seq = noop_seq;
  d.par = leaf_par;
  d.arg_count = 1;
  d.uses_continuation = true;
  g_noop_cp = reg.declare(d);
  reg.finalize();
  return m;
}

/// Instructions charged on node 0 for one run_main of `method`.
std::uint64_t charged(SimMachine& m, MethodId method, std::int64_t callee, bool inject) {
  if (inject) m.node(0).injector().inject_at(pick_leaf(callee), 0);
  const std::uint64_t before = m.node(0).clock();
  std::vector<Value> args;
  if (m.registry().info(method).arg_count == 1) args.push_back(Value(callee));
  m.run_main(0, method, kNoObject, std::move(args));
  m.node(0).injector().reset();
  return m.node(0).clock() - before;
}

void print_instruction_tables() {
  using bench::print_caption;
  const CostModel costs = CostModel::workstation();

  // Per-caller harness: seed message + wrapper dispatch of the caller itself,
  // with an empty body. Subtracting it isolates the *call site* cost.
  auto harness_of = [&](MethodId noop) {
    auto m = make_machine(ExecMode::Hybrid3);
    return charged(*m, noop, 0, false);
  };
  const std::uint64_t harness_mb = harness_of(g_noop_mb);
  const std::uint64_t harness_cp = harness_of(g_noop_cp);

  // The checks (name translation + locality) are charged at every call site;
  // the paper accounts them separately as parallelization overhead (Sec. 4.2),
  // so report both raw and checks-free numbers.
  const std::uint64_t checks = costs.name_translation + costs.locality_check;

  // Measured cost of a full local heap invocation lifecycle (used to split
  // the fallback measurement into caller share vs callee heap execution).
  std::uint64_t heap_lifecycle;
  {
    auto par = make_machine(ExecMode::ParallelOnly);
    auto parn = make_machine(ExecMode::ParallelOnly);
    heap_lifecycle = charged(*par, g_mid_mb, 0, false) - charged(*parn, g_noop_mb, 0, false);
  }

  print_caption("Table 2a — sequential call overhead beyond a C call (instructions)");
  {
    TablePrinter t({"caller \\ callee", "NB", "MB", "CP", "paper", "(incl. runtime checks)"});
    for (auto [caller, harness, name] : {std::tuple{g_mid_mb, harness_mb, "MB"},
                                         std::tuple{g_mid_cp, harness_cp, "CP"}}) {
      std::vector<std::string> row{name};
      std::vector<std::string> raw;
      for (std::int64_t callee = 0; callee < 3; ++callee) {
        auto mm = make_machine(ExecMode::Hybrid3);
        const std::uint64_t call_site = charged(*mm, caller, callee, false) - harness;
        row.push_back(std::to_string(call_site - costs.c_call - checks));
        raw.push_back(std::to_string(call_site - costs.c_call));
      }
      row.push_back("6-8");
      row.push_back(raw[0] + "/" + raw[1] + "/" + raw[2]);
      t.add_row(row);
    }
    t.print(std::cout);
  }

  print_caption("Table 2b — additional fallback (unwinding) cost at the caller (instructions)");
  {
    TablePrinter t({"caller \\ callee", "NB", "MB", "CP", "paper", "(raw incl. callee heap run)"});
    for (auto [caller, name] : {std::pair{g_mid_mb, "MB"}, std::pair{g_mid_cp, "CP"}}) {
      std::vector<std::string> row{name};
      std::vector<std::string> raw;
      for (std::int64_t callee = 0; callee < 3; ++callee) {
        auto base = make_machine(ExecMode::Hybrid3);
        const std::uint64_t complete = charged(*base, caller, callee, false);
        auto div = make_machine(ExecMode::Hybrid3);
        const std::uint64_t diverted = charged(*div, caller, callee, true);
        const std::uint64_t delta = diverted - complete;
        // The diverted run executes the callee in the heap; subtract that
        // lifecycle to isolate the caller-side unwinding cost.
        row.push_back(std::to_string(delta - heap_lifecycle));
        raw.push_back(std::to_string(delta));
      }
      row.push_back("8-140");
      row.push_back(raw[0] + "/" + raw[1] + "/" + raw[2]);
      t.add_row(row);
    }
    t.print(std::cout);
  }

  print_caption("Heap-based parallel invocation (paper: ~130 instructions)");
  {
    auto hyb = make_machine(ExecMode::Hybrid3);
    const std::uint64_t stack_call = charged(*hyb, g_mid_mb, 1, false) - harness_mb;
    TablePrinter t({"path", "instructions", "paper"});
    t.add_row({"local heap invocation (parallel-only)", std::to_string(heap_lifecycle),
               "~130"});
    t.add_row({"stack MB call (hybrid, incl. checks)", std::to_string(stack_call), "~12-20"});
    t.print(std::cout);
  }
}

// --- wall-clock microbenchmarks ------------------------------------------------

void BM_StackCall(benchmark::State& state) {
  auto m = make_machine(ExecMode::Hybrid3);
  const std::int64_t callee = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->run_main(0, g_mid_mb, kNoObject, {Value(callee)}));
  }
}
BENCHMARK(BM_StackCall)->Arg(0)->Arg(1)->Arg(2);

void BM_HeapInvocation(benchmark::State& state) {
  auto m = make_machine(ExecMode::ParallelOnly);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->run_main(0, g_mid_mb, kNoObject, {Value(0)}));
  }
}
BENCHMARK(BM_HeapInvocation);

void BM_FallbackUnwind(benchmark::State& state) {
  auto m = make_machine(ExecMode::Hybrid3);
  for (auto _ : state) {
    m->node(0).injector().inject_at(g_leaf_mb, 0);
    benchmark::DoNotOptimize(m->run_main(0, g_mid_mb, kNoObject, {Value(1)}));
    m->node(0).injector().reset();
  }
}
BENCHMARK(BM_FallbackUnwind);

// The heap path's host cost: fib(n) on one node with every invocation a heap
// context (ParallelOnly), next to the same program speculating on the stack
// (Hybrid3). fib(14) keeps its few hundred contexts in cache; fib(24)'s ready
// FIFO holds tens of thousands live. `per_inv` is the time per invocation,
// of which fib(n) makes 2 fib(n + 1) - 1.
void run_fib(benchmark::State& state, ExecMode mode) {
  MachineConfig cfg = bench::make_config(mode, CostModel::workstation());
  cfg.verify = false;
  SimMachine m(1, cfg);
  const seqbench::Ids ids = seqbench::register_seqbench(m.registry(), /*distributed=*/false);
  m.registry().finalize();
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.run_main(0, ids.fib, kNoObject, {Value(n)}));
  }
  const auto invocations = static_cast<double>(2 * seqbench::fib_c(n + 1) - 1);
  state.counters["per_inv"] = benchmark::Counter(
      invocations, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_ParallelOnlyFib(benchmark::State& state) { run_fib(state, ExecMode::ParallelOnly); }
BENCHMARK(BM_ParallelOnlyFib)->Arg(14)->Arg(24);

void BM_Hybrid3Fib(benchmark::State& state) { run_fib(state, ExecMode::Hybrid3); }
BENCHMARK(BM_Hybrid3Fib)->Arg(14)->Arg(24);

}  // namespace
}  // namespace concert

int main(int argc, char** argv) {
  concert::print_instruction_tables();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
