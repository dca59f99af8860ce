// Ablation A1 — fallback policy (paper Sec. 4.1's recommendation).
//
// "a sequential method version can incur substantial overhead if it blocks
// repeatedly incurring multiple fallbacks; thus, reverting to the parallel
// method after the first fallback is a good strategy, especially if several
// synchronizations are likely."
//
// We compare RevertToParallel (the paper's choice, our default) against
// AlwaysRetrySequential (re-speculate at every resumption) on workloads with
// many suspensions per activation: the SOR node drivers (two barriers per
// iteration) and low-locality EM3D pull.
#include "apps/em3d/em3d.hpp"
#include "apps/sor/sor.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

double sor_seconds(FallbackPolicy policy) {
  sor::Params p;
  p.n = bench::env_size("SOR_N", 48);
  p.pgrid = 4;
  p.block = 2;  // low locality: many suspensions
  p.iters = static_cast<int>(bench::env_size("SOR_ITERS", 3));
  MachineConfig cfg = bench::make_config(ExecMode::Hybrid3, CostModel::cm5());
  cfg.policy = policy;
  SimMachine m(p.nodes(), cfg);
  auto ids = bench::registered([&] { return sor::register_sor(m.registry(), p); });
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "sor failed");
  return m.elapsed_seconds();
}

double em3d_seconds(FallbackPolicy policy) {
  em3d::Params p;
  p.graph_nodes = bench::env_size("EM3D_NODES", 256, 2);
  p.degree = 8;
  p.iters = 3;
  p.local_fraction = 0.05;
  MachineConfig cfg = bench::make_config(ExecMode::Hybrid3, CostModel::cm5());
  cfg.policy = policy;
  SimMachine m(8, cfg);
  auto ids = bench::registered([&] { return em3d::register_em3d(m.registry(), p, 8); });
  m.registry().finalize();
  auto world = em3d::build(m, ids, p);
  CONCERT_CHECK(em3d::run(m, ids, world, em3d::Version::Pull), "em3d failed");
  return m.elapsed_seconds();
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  bench::print_caption("Ablation A1 — fallback policy (CM-5 cost model)");
  TablePrinter t({"workload", "revert-to-parallel (s)", "always-retry-seq (s)", "penalty"});
  {
    const double revert = sor_seconds(FallbackPolicy::RevertToParallel);
    const double retry = sor_seconds(FallbackPolicy::AlwaysRetrySequential);
    t.add_row({"SOR (block 2, low locality)", fmt_double(revert), fmt_double(retry),
               fmt_speedup(retry / revert)});
  }
  {
    const double revert = em3d_seconds(FallbackPolicy::RevertToParallel);
    const double retry = em3d_seconds(FallbackPolicy::AlwaysRetrySequential);
    t.add_row({"EM3D pull (5% local)", fmt_double(revert), fmt_double(retry),
               fmt_speedup(retry / revert)});
  }
  t.print(std::cout);
  std::cout << "\nPaper: reverting after the first fallback avoids paying the unwinding\n"
               "cost at every synchronization; the penalty column shows what re-trying\n"
               "sequential execution at each resumption would cost.\n";
  return 0;
}
