// Table 6 — EM3D: three communication/synchronization structures (pull, push,
// forward), hybrid vs parallel-only, at low and high locality, on a 64-node
// CM-5 and a 16-node T3D (the paper's configurations).
//
// Paper claims reproduced: hybrid wins in (almost) all cells, from ~1x up to
// ~4x; pull gives the best absolute times; forward beats push where message
// count dominates (T3D) while push's cheap single-packet replies favor it on
// the CM-5; speedups are larger at high locality.
#include "apps/em3d/em3d.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

struct RunOut {
  double sim_seconds;
  NodeStats stats;
  bool ok;
};

RunOut run_em(const em3d::Params& p, std::size_t nodes, em3d::Version v, ExecMode mode,
              const CostModel& costs) {
  SimMachine m(nodes, bench::make_config(mode, costs));
  auto ids = bench::registered([&] { return em3d::register_em3d(m.registry(), p, nodes); });
  m.registry().finalize();
  auto world = em3d::build(m, ids, p);
  RunOut out;
  out.ok = em3d::run(m, ids, world, v);
  out.sim_seconds = m.elapsed_seconds();
  out.stats = m.total_stats();
  return out;
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  em3d::Params base;
  base.graph_nodes = bench::env_size("EM3D_NODES", 2048, 2);  // paper: 8192 (also feasible here)
  base.degree = bench::env_size("EM3D_DEGREE", 16);        // paper: 16
  base.iters = static_cast<int>(bench::env_size("EM3D_ITERS", 4));  // paper: 100

  struct MachineCfg {
    CostModel costs;
    std::size_t nodes;
  };
  const MachineCfg machines[] = {{CostModel::cm5(), bench::env_size("EM3D_CM5_P", 32)},
                                 {CostModel::t3d(), bench::env_size("EM3D_T3D_P", 16)}};

  for (const auto& mc : machines) {
    bench::print_caption("Table 6 — EM3D " + std::to_string(base.graph_nodes) + " nodes deg " +
                         std::to_string(base.degree) + ", " + std::to_string(base.iters) +
                         " iters, " + std::to_string(mc.nodes) + "-node " + mc.costs.name);
    TablePrinter t({"version", "locality", "hybrid (s)", "par-only (s)", "speedup", "msgs",
                    "bytes"});
    for (const double loc : {0.02, 0.99}) {
      for (const auto v :
           {em3d::Version::Pull, em3d::Version::Push, em3d::Version::Forward}) {
        em3d::Params p = base;
        p.local_fraction = loc;
        const RunOut hybrid = run_em(p, mc.nodes, v, ExecMode::Hybrid3, mc.costs);
        const RunOut par = run_em(p, mc.nodes, v, ExecMode::ParallelOnly, mc.costs);
        if (!hybrid.ok || !par.ok) {
          std::cerr << "EM3D run failed\n";
          return 1;
        }
        t.add_row({em3d::version_name(v), loc > 0.5 ? "high" : "low",
                   fmt_double(hybrid.sim_seconds), fmt_double(par.sim_seconds),
                   fmt_speedup(par.sim_seconds / hybrid.sim_seconds),
                   std::to_string(hybrid.stats.msgs_sent),
                   fmt_bytes(hybrid.stats.bytes_sent)});
      }
      t.add_separator();
    }
    t.print(std::cout);
  }
  std::cout << "\nPaper (8192 nodes deg 16, 100 iters; 64-node CM-5 / 16-node T3D): hybrid\n"
               "speedups from ~1x to ~4x; pull best absolute; forward beats push on the\n"
               "T3D at low locality (fewer, longer messages); push competitive on the\n"
               "CM-5 (cheap single-packet replies). Paper-scale run:\n"
               "EM3D_NODES=8192 EM3D_DEGREE=16 EM3D_ITERS=100 EM3D_CM5_P=64 ./table6_em3d\n";
  return 0;
}
