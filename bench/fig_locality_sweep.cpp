// Locality sweep "figure" — Sec. 4.3.1's claim that the hybrid speedup is
// directly proportional to the amount of data locality and tracks the
// analytic peak.
//
// Sweeps the SOR block size (hence the local-invocation fraction) and prints
// a series of (local fraction, measured speedup, analytic peak speedup). The
// analytic peak follows the paper's accounting: with local heap invocations
// costing ~130 instructions, remote ones ~10x that, and the stack path a few
// instructions, the best possible gain at local fraction f is
//     peak(f) = (f*C_heap + (1-f)*C_remote + W) / (f*C_stack + (1-f)*C_remote + W)
// where W is the useful work per invocation.
#include "apps/sor/sor.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

struct RunOut {
  double sim_seconds;
  NodeStats stats;
};

RunOut run_sor_out(const sor::Params& p, ExecMode mode, const CostModel& costs) {
  SimMachine m(p.nodes(), bench::make_config(mode, costs));
  auto ids = bench::registered([&] { return sor::register_sor(m.registry(), p); });
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "sor run failed");
  return {m.elapsed_seconds(), m.total_stats()};
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  sor::Params base;
  base.n = bench::env_size("SOR_N", 64);
  base.pgrid = bench::env_size("SOR_P", 4);
  base.iters = static_cast<int>(bench::env_size("SOR_ITERS", 2));
  const CostModel costs = CostModel::cm5();

  // Analytic peak per the paper's cost accounting.
  const double c_heap = 130.0, c_stack = 14.0, c_remote = 1300.0;
  const double w = bench::env_double("SWEEP_WORK", 40.0);  // useful work/invocation

  bench::print_caption("Figure (Sec. 4.3.1) — hybrid speedup vs data locality, SOR on " +
                       costs.name);
  TablePrinter t({"block", "local frac", "measured speedup", "analytic peak", "msgs", "bytes"});
  for (std::size_t block = 1; block * base.pgrid <= base.n; block *= 2) {
    sor::Params p = base;
    p.block = block;
    const double f = p.layout().local_fraction();
    const RunOut hybrid = run_sor_out(p, ExecMode::Hybrid3, costs);
    const RunOut par = run_sor_out(p, ExecMode::ParallelOnly, costs);
    const double peak = (f * c_heap + (1 - f) * c_remote + w) /
                        (f * c_stack + (1 - f) * c_remote + w);
    t.add_row({std::to_string(block), fmt_double(f, 3),
               fmt_speedup(par.sim_seconds / hybrid.sim_seconds), fmt_speedup(peak),
               fmt_count(hybrid.stats.msgs_sent), fmt_bytes(hybrid.stats.bytes_sent)});
  }
  t.print(std::cout);
  std::cout << "\nPaper: measured 2.3x vs a 2.63x analytic maximum at f=0.94; speedups\n"
               "track locality monotonically; below ~0.1 the hybrid can lose to the\n"
               "parallel-only scheme on the CM-5 (fallback costs dominate).\n";
  return 0;
}
