// Table 5 — MD-Force: hybrid vs parallel-only under a low-locality uniform
// random layout and a high-locality spatial (orthogonal recursive bisection)
// layout, on the CM-5 and T3D cost profiles.
//
// Paper claims reproduced: speedup ~1.0x for the random layout (communication
// dominated; invocation mechanisms don't matter) and ~1.4-1.5x for the
// spatial layout (computation dominated; heap-context overhead eliminated).
#include "apps/mdforce/mdforce.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

struct RunOut {
  double sim_seconds;
  NodeStats stats;
  std::size_t cross_pairs;
  std::size_t total_pairs;
  bool ok;
};

RunOut run_md(const md::Params& p, std::size_t nodes, ExecMode mode, const CostModel& costs) {
  SimMachine m(nodes, bench::make_config(mode, costs));
  auto ids = bench::registered([&] { return md::register_md(m.registry(), p, nodes); });
  m.registry().finalize();
  auto world = md::build(m, ids, p);
  RunOut out;
  out.ok = md::run(m, ids, world);
  out.sim_seconds = m.elapsed_seconds();
  out.stats = m.total_stats();
  out.cross_pairs = world.cross_pairs;
  out.total_pairs = world.total_pairs;
  return out;
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  md::Params base;
  base.atoms = bench::env_size("MD_ATOMS", 10503);  // the paper's workload size
  const std::size_t nodes = bench::env_size("MD_NODES", 64);  // the paper's machine size

  for (const CostModel& costs : {CostModel::cm5(), CostModel::t3d()}) {
    bench::print_caption("Table 5 — MD-Force, " + std::to_string(base.atoms) + " atoms, 1 " +
                         "iteration, " + std::to_string(nodes) + "-node " + costs.name);
    TablePrinter t({"layout", "cross pairs", "hybrid (s)", "par-only (s)", "speedup",
                    "paper", "msgs", "bytes"});
    for (const bool spatial : {false, true}) {
      md::Params p = base;
      p.spatial = spatial;
      const RunOut hybrid = run_md(p, nodes, ExecMode::Hybrid3, costs);
      const RunOut par = run_md(p, nodes, ExecMode::ParallelOnly, costs);
      if (!hybrid.ok || !par.ok) {
        std::cerr << "MD run failed\n";
        return 1;
      }
      const std::string paper = spatial ? (costs.name == "CM-5" ? "1.43x" : "1.52x") : "~1.0x";
      t.add_row({spatial ? "spatial (ORB)" : "random",
                 std::to_string(hybrid.cross_pairs) + "/" + std::to_string(hybrid.total_pairs),
                 fmt_double(hybrid.sim_seconds), fmt_double(par.sim_seconds),
                 fmt_speedup(par.sim_seconds / hybrid.sim_seconds), paper,
                 fmt_count(hybrid.stats.msgs_sent), fmt_bytes(hybrid.stats.bytes_sent)});
    }
    t.print(std::cout);
  }
  std::cout << "\nPaper-scale run: MD_ATOMS=10503 MD_NODES=64 ./table5_mdforce\n";
  return 0;
}
