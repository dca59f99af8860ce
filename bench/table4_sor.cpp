// Table 4 — SOR on 64-node CM-5 and T3D configurations: hybrid vs
// parallel-only across block-cyclic block sizes (i.e. across data locality),
// with the measured local:remote invocation ratio per layout, plus the
// Fig. 9 structural evidence (heap contexts only on tile perimeters).
//
// Paper claims reproduced: the hybrid/parallel-only speedup grows with the
// block size (locality), up to ~2.4x; at the lowest locality the hybrid can
// lose to parallel-only (fallback storm footnote); context counts collapse
// from "one per cell per half-iteration" to "perimeter only".
#include "apps/sor/sor.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

struct RunOut {
  double sim_seconds;
  NodeStats stats;
  bool ok;
};

RunOut run_sor(const sor::Params& p, ExecMode mode, const CostModel& costs) {
  SimMachine m(p.nodes(), bench::make_config(mode, costs));
  auto ids = bench::registered([&] { return sor::register_sor(m.registry(), p); });
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  RunOut out;
  out.ok = sor::run(m, ids, world);
  out.sim_seconds = m.elapsed_seconds();
  out.stats = m.total_stats();
  return out;
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  sor::Params base;
  base.n = bench::env_size("SOR_N", 128);   // paper: 512
  base.pgrid = bench::env_size("SOR_P", 8);  // the paper's 8x8 = 64 nodes
  base.iters = static_cast<int>(bench::env_size("SOR_ITERS", 4));  // paper: 100

  for (const CostModel& costs : {CostModel::cm5(), CostModel::t3d()}) {
    bench::print_caption("Table 4 — SOR " + std::to_string(base.n) + "x" +
                         std::to_string(base.n) + " grid, " + std::to_string(base.iters) +
                         " iterations, " + std::to_string(base.nodes()) + "-node " +
                         costs.name);
    TablePrinter t({"block", "local frac", "hybrid (s)", "par-only (s)", "speedup",
                    "hybrid ctxs", "par ctxs", "msgs", "bytes", "avg bundle"});
    for (std::size_t block : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}}) {
      if (block * base.pgrid > base.n) continue;
      sor::Params p = base;
      p.block = block;
      const RunOut hybrid = run_sor(p, ExecMode::Hybrid3, costs);
      const RunOut par = run_sor(p, ExecMode::ParallelOnly, costs);
      if (!hybrid.ok || !par.ok) {
        std::cerr << "SOR run failed for block " << block << "\n";
        return 1;
      }
      t.add_row({std::to_string(block), fmt_double(p.layout().local_fraction(), 3),
                 fmt_double(hybrid.sim_seconds), fmt_double(par.sim_seconds),
                 fmt_speedup(par.sim_seconds / hybrid.sim_seconds),
                 std::to_string(hybrid.stats.contexts_allocated),
                 std::to_string(par.stats.contexts_allocated),
                 fmt_count(hybrid.stats.msgs_sent), fmt_bytes(hybrid.stats.bytes_sent),
                 hybrid.stats.outbox_flushes
                     ? fmt_double(hybrid.stats.mean_bundle_size(), 2)
                     : std::string("1.00")});
    }
    t.print(std::cout);
  }

  // The flat barrier serializes through node 0 and compresses the top of the
  // sweep at 64 nodes; the user-level combining tree (Sec. 3.3 structures)
  // recovers part of it.
  {
    bench::print_caption("Table 4 addendum — largest block with tree-barrier synchronization");
    TablePrinter t({"machine", "block", "flat speedup", "tree speedup"});
    for (const CostModel& costs : {CostModel::cm5(), CostModel::t3d()}) {
      sor::Params p = base;
      p.block = 16;
      if (p.block * p.pgrid > p.n) continue;
      const RunOut flat_h = run_sor(p, ExecMode::Hybrid3, costs);
      const RunOut flat_p = run_sor(p, ExecMode::ParallelOnly, costs);
      p.tree_barrier = true;
      const RunOut tree_h = run_sor(p, ExecMode::Hybrid3, costs);
      const RunOut tree_p = run_sor(p, ExecMode::ParallelOnly, costs);
      t.add_row({costs.name, "16", fmt_speedup(flat_p.sim_seconds / flat_h.sim_seconds),
                 fmt_speedup(tree_p.sim_seconds / tree_h.sim_seconds)});
    }
    t.print(std::cout);
  }

  std::cout << "\nPaper (512x512 grid, 100 iters, 64 nodes): speedup grows with locality\n"
               "from <1x (fallback-dominated, lowest block size on the CM-5) to ~2.4x at a\n"
               "local fraction of 0.94; context counts shrink from one per cell per half-\n"
               "iteration to perimeter cells only (Fig. 9). Paper-scale run:\n"
               "SOR_N=512 SOR_P=8 SOR_ITERS=100 ./table4_sor\n";
  return 0;
}
