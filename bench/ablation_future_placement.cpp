// Ablation A2 — future placement (paper Sec. 5, the StackThreads comparison).
//
// "StackThreads ... allocates futures separate from the context. Thus, an
// additional memory reference is required to touch futures."
//
// We re-run synchronization-heavy workloads with futures modeled as
// separately allocated (an extra indirection charged on every touch and on
// every future fill) and compare against the paper's in-context layout.
#include "apps/seqbench/seqbench.hpp"
#include "apps/sor/sor.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

double fib_par_seconds(bool in_context) {
  MachineConfig cfg = bench::make_config(ExecMode::ParallelOnly, CostModel::workstation());
  cfg.futures_in_context = in_context;
  SimMachine m(1, cfg);
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  m.run_main(0, ids.fib, kNoObject,
             {Value(static_cast<std::int64_t>(bench::env_size("A2_FIB", 18)))});
  return m.elapsed_seconds();
}

double sor_seconds(bool in_context) {
  sor::Params p;
  p.n = bench::env_size("SOR_N", 48);
  p.pgrid = 4;
  p.block = 2;
  p.iters = 2;
  MachineConfig cfg = bench::make_config(ExecMode::Hybrid3, CostModel::cm5());
  cfg.futures_in_context = in_context;
  SimMachine m(p.nodes(), cfg);
  auto ids = bench::registered([&] { return sor::register_sor(m.registry(), p); });
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "sor failed");
  return m.elapsed_seconds();
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  bench::print_caption("Ablation A2 — futures in-context vs separately allocated");
  TablePrinter t({"workload", "in-context (s)", "separate (s)", "penalty"});
  {
    const double inc = fib_par_seconds(true);
    const double sep = fib_par_seconds(false);
    t.add_row({"fib, parallel-only (touch-heavy)", fmt_double(inc), fmt_double(sep),
               fmt_speedup(sep / inc)});
  }
  {
    const double inc = sor_seconds(true);
    const double sep = sor_seconds(false);
    t.add_row({"SOR, hybrid, low locality", fmt_double(inc), fmt_double(sep),
               fmt_speedup(sep / inc)});
  }
  t.print(std::cout);
  std::cout << "\nPaper: keeping futures inside the activation record (unlike StackThreads)\n"
               "saves one memory reference per touch; the penalty column shows the modeled\n"
               "cost of the separate-allocation layout.\n";
  return 0;
}
