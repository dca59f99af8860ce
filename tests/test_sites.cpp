// Per-call-site profiler (concert-insight): the accounting invariants that
// reconcile SiteProfiler counts against the aggregate NodeStats on both
// engines, the "(message)" pseudo-caller for
// the wrapper path, and the SITES json round-trip. Simulated-time identity
// with the profiler on lives in test_observability.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "apps/sor/sor.hpp"
#include "support/json.hpp"
#include "support/site_profiler.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

/// Machine-wide site totals, summed over every node's profiler table.
struct SiteTotals {
  std::uint64_t invokes = 0;
  std::uint64_t remote = 0;
  std::uint64_t attempts = 0;
  std::uint64_t nb_hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t diverts = 0;
  std::uint64_t message_slot_attempts = 0;  ///< attempts under the "(message)" pseudo-caller
};

SiteTotals sum_sites(const Machine& m) {
  SiteTotals t;
  for (NodeId n = 0; n < m.node_count(); ++n) {
    const auto& by_caller = m.node(n).sites().by_caller();
    for (std::size_t c = 0; c < by_caller.size(); ++c) {
      for (const SiteRecord& r : by_caller[c]) {
        t.invokes += r.invokes;
        t.remote += r.remote;
        t.attempts += r.attempts;
        t.nb_hits += r.nb_hits;
        t.fallbacks += r.fallbacks;
        t.diverts += r.diverts;
        if (c == 0) t.message_slot_attempts += r.attempts;
      }
    }
  }
  return t;
}

void check_invariants(const Machine& m) {
  const SiteTotals s = sum_sites(m);
  const NodeStats t = m.total_stats();
  EXPECT_EQ(s.attempts, t.stack_calls);
  EXPECT_EQ(s.nb_hits, t.stack_completions);
  EXPECT_EQ(s.invokes, t.local_invokes + t.remote_invokes);
  EXPECT_EQ(s.remote, t.remote_invokes);
  // Every attempt either hit or fell back; nothing is dropped on the floor.
  EXPECT_EQ(s.attempts, s.nb_hits + s.fallbacks);
}

std::unique_ptr<SimMachine> run_sor_sim(MachineConfig cfg, int iters = 2) {
  sor::Params p;
  p.n = 16;
  p.pgrid = 2;
  p.block = 8;
  p.iters = iters;
  auto m = std::make_unique<SimMachine>(p.nodes(), cfg);
  auto ids = sor::register_sor(m->registry(), p);
  m->registry().finalize();
  auto world = sor::build(*m, ids, p);
  EXPECT_TRUE(sor::run(*m, ids, world));
  return m;
}

TEST(Sites, DisabledByDefaultAndEmpty) {
  auto m = run_sor_sim(test_config(ExecMode::Hybrid3), 1);
  for (NodeId n = 0; n < m->node_count(); ++n) {
    EXPECT_FALSE(m->node(n).sites().enabled());
    EXPECT_TRUE(m->node(n).sites().by_caller().empty());
  }
}

TEST(Sites, CountsReconcileWithNodeStatsSim) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.profile_sites = true;
  auto m = run_sor_sim(cfg);
  const SiteTotals s = sum_sites(*m);
  ASSERT_GT(s.attempts, 0u);
  check_invariants(*m);
  // The distributed run exercises the wrapper path: methods invoked by
  // arriving messages record under the "(message)" pseudo-caller (slot 0).
  EXPECT_GT(s.message_slot_attempts, 0u);
}

TEST(Sites, CountsReconcileWithNodeStatsThreaded) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.profile_sites = true;
  sor::Params p;
  p.n = 16;
  p.pgrid = 2;
  p.block = 8;
  p.iters = 2;
  ThreadedMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
  check_invariants(m);
}

TEST(Sites, JsonExportReconcilesAgainstTotals) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.profile_sites = true;
  auto m = run_sor_sim(cfg);

  std::ostringstream os;
  write_sites_json(*m, os);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  EXPECT_EQ(doc.str_or("analysis", ""), "sites");
  const JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  const NodeStats t = m->total_stats();
  EXPECT_EQ(totals->num_or("stack_calls", -1), static_cast<double>(t.stack_calls));
  EXPECT_EQ(totals->num_or("stack_completions", -1), static_cast<double>(t.stack_completions));
  EXPECT_EQ(totals->num_or("remote_invokes", -1), static_cast<double>(t.remote_invokes));

  // The per-site rows sum back to the machine totals (the acceptance-criteria
  // cross-check, applied to the serialized form).
  const JsonValue* sites = doc.find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_FALSE(sites->arr.empty());
  double attempts = 0, nb_hits = 0, invokes = 0;
  for (const JsonValue& row : sites->arr) {
    attempts += row.num_or("attempts", 0);
    nb_hits += row.num_or("nb_hits", 0);
    invokes += row.num_or("invokes", 0);
  }
  EXPECT_EQ(attempts, static_cast<double>(t.stack_calls));
  EXPECT_EQ(nb_hits, static_cast<double>(t.stack_completions));
  EXPECT_EQ(invokes, static_cast<double>(t.local_invokes + t.remote_invokes));
}

}  // namespace
}  // namespace concert
