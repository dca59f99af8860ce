// Ablation A6 — message coalescing (paper Sec. 2.2 / Sec. 5).
//
// The paper's cost accounting makes the per-message software overhead the
// dominant term in fine-grained remote operation: a remote invoke costs ~10x
// a local heap invoke on the CM-5, and on the T3D the fixed per-message cost
// dwarfs the per-byte cost. Bundling several logical messages bound for the
// same destination into one wire message amortizes that fixed overhead.
//
// This sweep runs communication-bound workloads (EM3D push/forward at low
// locality, SOR at the smallest block size) under the three flush policies:
//   immediate      one wire message per logical message (the baseline)
//   threshold(k)   flush a destination's outbox once k messages are staged
//   flush-on-idle  flush only when the node runs out of local work
// and reports the wire-message count, mean bundle size, and the instructions
// spent in the messaging layer (send+receive overhead, marshalling, demux) —
// the last column is the overhead reduction relative to `immediate`.
#include "apps/em3d/em3d.hpp"
#include "apps/sor/sor.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

struct RunOut {
  double sim_seconds = 0.0;
  NodeStats stats;
};

MachineConfig cfg_with(const FlushPolicy& policy, const CostModel& costs) {
  MachineConfig cfg = bench::make_config(ExecMode::Hybrid3, costs);
  cfg.flush_policy = policy;
  return cfg;
}

RunOut run_em3d(em3d::Version v, const FlushPolicy& policy, const CostModel& costs) {
  em3d::Params p;
  p.graph_nodes = bench::env_size("EM3D_NODES", 512);
  p.degree = bench::env_size("EM3D_DEGREE", 8);
  p.iters = static_cast<int>(bench::env_size("EM3D_ITERS", 3));
  p.local_fraction = 0.05;  // low locality: communication dominated
  const std::size_t nodes = bench::env_size("EM3D_P", 8);
  SimMachine m(nodes, cfg_with(policy, costs));
  auto ids = em3d::register_em3d(m.registry(), p, nodes);
  m.registry().finalize();
  auto world = em3d::build(m, ids, p);
  CONCERT_CHECK(em3d::run(m, ids, world, v), "em3d failed");
  return {m.elapsed_seconds(), m.total_stats()};
}

RunOut run_sor(const FlushPolicy& policy, const CostModel& costs) {
  sor::Params p;
  p.n = bench::env_size("SOR_N", 48);
  p.pgrid = 4;
  p.block = 1;  // smallest block: every neighbor access crosses nodes
  p.iters = static_cast<int>(bench::env_size("SOR_ITERS", 3));
  SimMachine m(p.nodes(), cfg_with(policy, costs));
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "sor failed");
  return {m.elapsed_seconds(), m.total_stats()};
}

// Wire messages actually injected into the network: under a buffered policy
// every logical message leaves through a flush, so the flush count is the
// envelope count; under `immediate` each logical message is its own envelope.
std::uint64_t wire_msgs(const NodeStats& s) {
  return s.outbox_flushes != 0 ? s.outbox_flushes : s.msgs_sent;
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  const std::size_t k = bench::env_size("COALESCE_K", 8);
  const FlushPolicy policies[] = {FlushPolicy::immediate(), FlushPolicy::size_threshold(k),
                                  FlushPolicy::flush_on_idle()};

  struct Workload {
    std::string name;
    RunOut (*run)(const FlushPolicy&, const CostModel&);
  };
  const auto em_push = [](const FlushPolicy& p, const CostModel& c) {
    return run_em3d(em3d::Version::Push, p, c);
  };
  const auto em_fwd = [](const FlushPolicy& p, const CostModel& c) {
    return run_em3d(em3d::Version::Forward, p, c);
  };
  const Workload workloads[] = {{"EM3D push (5% local)", +em_push},
                                {"EM3D forward (5% local)", +em_fwd},
                                {"SOR block 1", &run_sor}};

  for (const CostModel& costs : {CostModel::cm5(), CostModel::t3d()}) {
    bench::print_caption("Ablation A6 — message coalescing, " + costs.name +
                         " (threshold k=" + std::to_string(k) + ")");
    TablePrinter t({"workload", "policy", "sim (s)", "msgs", "wire msgs", "avg bundle",
                    "comm instrs", "overhead vs immediate"});
    for (const Workload& w : workloads) {
      std::uint64_t base_comm = 0;
      for (const FlushPolicy& policy : policies) {
        const RunOut out = w.run(policy, costs);
        if (!policy.buffered()) base_comm = out.stats.comm_instructions;
        const double delta =
            base_comm != 0
                ? 100.0 * (static_cast<double>(out.stats.comm_instructions) -
                           static_cast<double>(base_comm)) /
                      static_cast<double>(base_comm)
                : 0.0;
        std::string delta_cell = delta <= 0 ? "" : "+";
        delta_cell.append(fmt_double(delta, 1)).append("%");
        t.add_row({w.name, policy.name(), fmt_double(out.sim_seconds),
                   fmt_count(out.stats.msgs_sent), fmt_count(wire_msgs(out.stats)),
                   out.stats.outbox_flushes != 0
                       ? fmt_double(out.stats.mean_bundle_size(), 2)
                       : std::string("1.00"),
                   fmt_count(out.stats.comm_instructions), delta_cell});
      }
      t.add_separator();
    }
    t.print(std::cout);
  }
  std::cout << "\nBundling amortizes the fixed per-message overhead (one send/receive\n"
               "overhead per wire message instead of per logical message); the gain is\n"
               "largest where fan-out to the same destination is high and locality low.\n"
               "flush-on-idle builds the biggest bundles but can delay replies; the\n"
               "threshold policy bounds that latency.\n";
  return 0;
}
