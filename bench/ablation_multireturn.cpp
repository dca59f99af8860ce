// Ablation A5 — multiple return values (paper Sec. 5 future work).
//
// "modifying the calling convention to support a different stack regimen and
// multiple return values would reduce the cost of the more general stack
// schemas."
//
// Measured on MD-Force's cache-miss path with pre-caching disabled: fetching
// a remote atom's three coordinates as three single-value round trips vs one
// three-value invocation whose reply fills three consecutive future slots.
#include "apps/mdforce/mdforce.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

struct Out {
  double seconds;
  std::uint64_t msgs;
};

Out run_md(bool batched, const CostModel& costs) {
  md::Params p;
  p.atoms = bench::env_size("A5_ATOMS", 1024);
  p.spatial = true;
  p.cache_fraction = 0.0;  // all cross pairs fetch on demand
  p.batched_fetch = batched;
  const std::size_t nodes = bench::env_size("A5_NODES", 16);
  SimMachine m(nodes, bench::make_config(ExecMode::Hybrid3, costs));
  auto ids = bench::registered([&] { return md::register_md(m.registry(), p, nodes); });
  m.registry().finalize();
  auto world = md::build(m, ids, p);
  CONCERT_CHECK(md::run(m, ids, world), "md failed");
  return {m.elapsed_seconds(), m.total_stats().msgs_sent};
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  bench::print_caption("Ablation A5 — multi-value returns on MD's demand-fetch path");
  TablePrinter t({"machine", "3x single (s)", "1x triple (s)", "speedup", "msgs single",
                  "msgs triple"});
  for (const CostModel& costs : {CostModel::cm5(), CostModel::t3d()}) {
    const Out single = run_md(false, costs);
    const Out batched = run_md(true, costs);
    t.add_row({costs.name, fmt_double(single.seconds), fmt_double(batched.seconds),
               fmt_speedup(single.seconds / batched.seconds), std::to_string(single.msgs),
               std::to_string(batched.msgs)});
  }
  t.print(std::cout);
  std::cout << "\nPaper Sec. 5: richer calling conventions (multiple return values) reduce\n"
               "the cost of the general schemas; here one reply fills three future slots.\n";
  return 0;
}
