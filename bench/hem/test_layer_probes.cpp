// hem_layer_probes: every layer probe returns a finite per-operation cost
// above zero, and the sim-engine ledger telescopes — its layer shares plus
// the unattributed share equal 1 — on a real (small) SOR rep.
#include <cmath>
#include <iostream>

#include "apps/sor/sor.hpp"
#include "layer_probes.hpp"

int main() {
  using namespace concert;
  using namespace concert::hem;
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << "\n";
      ++failures;
    }
  };

  ProbeScale scale;
  scale.ops = 512;
  scale.batches = 3;
  scale.nodes = 2;
  ProbeSet ps;
  for (const ProbeDef& d : kProbes) {
    const double v = d.run(scale);
    ps.*d.field = v;
    std::cout << d.metric << " = " << v << " " << d.unit << "\n";
    expect(std::isfinite(v) && v > 0.0, std::string(d.metric) + " is not a finite cost > 0");
  }

  sor::Params p;
  p.n = 32;
  p.block = 4;
  p.iters = 2;
  SimMachine m(p.nodes(), bench_config());
  const sor::Ids ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  sor::World world = sor::build(m, ids, p);
  const Counts before = Counts::of(m.total_stats());
  const double t0 = now_ns();
  expect(sor::run(m, ids, world), "SOR rep failed");
  const double wall = now_ns() - t0;
  const Counts rep = Counts::of(m.total_stats()) - before;
  expect(rep.invocations() > 0 && rep.msgs_sent > 0, "SOR rep recorded no work");

  const Ledger l = sim_ledger(rep, rep.invocations(), wall, ps);
  const double sum = l.core + l.machine + l.support + l.objects + l.unattributed;
  std::cout << "ledger: core " << l.core << ", machine " << l.machine << ", support " << l.support
            << ", objects " << l.objects << ", unattributed " << l.unattributed << "\n";
  expect(std::abs(sum - 1.0) <= 1e-9, "ledger shares sum to " + std::to_string(sum));
  for (const double share : {l.core, l.machine, l.support, l.objects}) {
    expect(std::isfinite(share) && share > 0.0, "a layer share is not finite and positive");
  }
  return failures == 0 ? 0 : 1;
}
