// EM3D kernel: all three communication structures (pull / push / forward)
// must produce bit-identical values to the serial reference, in every mode,
// at every locality level.
#include <gtest/gtest.h>

#include <memory>

#include "apps/em3d/em3d.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"

namespace concert {
namespace {

struct EmRun {
  std::unique_ptr<SimMachine> machine;
  em3d::Ids ids;
  em3d::World world;

  EmRun(const em3d::Params& p, std::size_t nodes, ExecMode mode,
        CostModel costs = CostModel::cm5()) {
    MachineConfig cfg;
    cfg.mode = mode;
    cfg.costs = costs;
    machine = std::make_unique<SimMachine>(nodes, cfg);
    ids = em3d::register_em3d(machine->registry(), p, nodes);
    machine->registry().finalize();
    world = em3d::build(*machine, ids, p);
  }
};

struct EmCase {
  em3d::Version version;
  double locality;
  ExecMode mode;
  std::size_t nodes;
};

std::string em_name(const ::testing::TestParamInfo<EmCase>& info) {
  std::string s = em3d::version_name(info.param.version);
  s += info.param.locality > 0.5 ? "_hi" : "_lo";
  s += "_n" + std::to_string(info.param.nodes);
  switch (info.param.mode) {
    case ExecMode::Hybrid3: s += "_h3"; break;
    case ExecMode::Hybrid1: s += "_h1"; break;
    case ExecMode::ParallelOnly: s += "_par"; break;
    case ExecMode::SeqOpt: s += "_so"; break;
  }
  return s;
}

class EmModes : public ::testing::TestWithParam<EmCase> {};

TEST_P(EmModes, MatchesSerialReferenceExactly) {
  const EmCase c = GetParam();
  em3d::Params p;
  p.graph_nodes = 64;
  p.degree = 4;
  p.iters = 3;
  p.local_fraction = c.locality;
  EmRun r(p, c.nodes, c.mode);
  ASSERT_TRUE(em3d::run(*r.machine, r.ids, r.world, c.version));
  const auto got = em3d::extract(*r.machine, r.world);
  const auto want = em3d::reference(p, c.nodes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_DOUBLE_EQ(got[k], want[k]) << "graph node " << k;
  }
  EXPECT_EQ(r.machine->live_contexts(), 0u);
  const NodeStats s = r.machine->total_stats();
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, EmModes,
    ::testing::Values(
        EmCase{em3d::Version::Pull, 0.1, ExecMode::Hybrid3, 4},
        EmCase{em3d::Version::Pull, 0.9, ExecMode::Hybrid3, 4},
        EmCase{em3d::Version::Pull, 0.5, ExecMode::ParallelOnly, 4},
        EmCase{em3d::Version::Push, 0.1, ExecMode::Hybrid3, 4},
        EmCase{em3d::Version::Push, 0.9, ExecMode::Hybrid3, 4},
        EmCase{em3d::Version::Push, 0.5, ExecMode::ParallelOnly, 4},
        EmCase{em3d::Version::Forward, 0.1, ExecMode::Hybrid3, 4},
        EmCase{em3d::Version::Forward, 0.9, ExecMode::Hybrid3, 4},
        EmCase{em3d::Version::Forward, 0.5, ExecMode::ParallelOnly, 4},
        EmCase{em3d::Version::Forward, 0.1, ExecMode::Hybrid1, 4},
        EmCase{em3d::Version::Pull, 0.5, ExecMode::Hybrid3, 1},
        EmCase{em3d::Version::Forward, 0.2, ExecMode::Hybrid3, 8},
        EmCase{em3d::Version::Push, 0.2, ExecMode::Hybrid3, 8}),
    em_name);

TEST(Em3dParams, RejectsAGraphWithAnEmptyHalf) {
  // A one-node graph has an E node and no H node to draw its edges from.
  em3d::Params p;
  p.graph_nodes = 1;
  EXPECT_THROW(em3d::reference(p, 2), ProtocolError);
  SimMachine m(2, MachineConfig{});
  EXPECT_THROW(em3d::register_em3d(m.registry(), p, 2), ProtocolError);
  p.graph_nodes = 2;
  EXPECT_EQ(em3d::reference(p, 2).size(), 2u);
}

TEST(Em3dStructure, ForwardSendsFewerMessagesThanPush) {
  em3d::Params p;
  p.graph_nodes = 128;
  p.degree = 8;
  p.iters = 2;
  p.local_fraction = 0.05;  // almost everything remote
  EmRun push(p, 8, ExecMode::Hybrid3);
  EmRun fwd(p, 8, ExecMode::Hybrid3);
  ASSERT_TRUE(em3d::run(*push.machine, push.ids, push.world, em3d::Version::Push));
  ASSERT_TRUE(em3d::run(*fwd.machine, fwd.ids, fwd.world, em3d::Version::Forward));
  const auto ps = push.machine->total_stats();
  const auto fs = fwd.machine->total_stats();
  EXPECT_LT(fs.msgs_sent, ps.msgs_sent);
  // ...but forward's messages are longer.
  EXPECT_GT(static_cast<double>(fs.bytes_sent) / static_cast<double>(fs.msgs_sent),
            static_cast<double>(ps.bytes_sent) / static_cast<double>(ps.msgs_sent));
}

TEST(Em3dStructure, ForwardChainsTraverseNodes) {
  em3d::Params p;
  p.graph_nodes = 128;
  p.degree = 8;
  p.iters = 1;
  p.local_fraction = 0.0;
  EmRun r(p, 8, ExecMode::Hybrid3);
  ASSERT_TRUE(em3d::run(*r.machine, r.ids, r.world, em3d::Version::Forward));
  // Multi-hop chains forward the reply obligation off-node.
  EXPECT_GT(r.machine->total_stats().continuations_forwarded, 0u);
}

TEST(Em3dLocality, HighLocalityReducesMessages) {
  em3d::Params p;
  p.graph_nodes = 128;
  p.degree = 8;
  p.iters = 2;
  p.local_fraction = 0.95;
  em3d::Params q = p;
  q.local_fraction = 0.05;
  EmRun hi(p, 4, ExecMode::Hybrid3);
  EmRun lo(q, 4, ExecMode::Hybrid3);
  EXPECT_GT(hi.world.local_edges, lo.world.local_edges);
  ASSERT_TRUE(em3d::run(*hi.machine, hi.ids, hi.world, em3d::Version::Pull));
  ASSERT_TRUE(em3d::run(*lo.machine, lo.ids, lo.world, em3d::Version::Pull));
  EXPECT_LT(hi.machine->total_stats().msgs_sent, lo.machine->total_stats().msgs_sent);
}

TEST(Em3dHybridWin, HybridBeatsParallelOnlyAtHighLocality) {
  em3d::Params p;
  p.graph_nodes = 128;
  p.degree = 8;
  p.iters = 2;
  p.local_fraction = 0.95;
  EmRun hybrid(p, 4, ExecMode::Hybrid3);
  EmRun par(p, 4, ExecMode::ParallelOnly);
  ASSERT_TRUE(em3d::run(*hybrid.machine, hybrid.ids, hybrid.world, em3d::Version::Pull));
  ASSERT_TRUE(em3d::run(*par.machine, par.ids, par.world, em3d::Version::Pull));
  EXPECT_LT(hybrid.machine->max_clock(), par.machine->max_clock());
}

TEST(Em3dDeterminism, SameConfigSameClocks) {
  auto once = [](em3d::Version v) {
    em3d::Params p;
    p.graph_nodes = 64;
    p.degree = 4;
    p.iters = 2;
    EmRun r(p, 4, ExecMode::Hybrid3);
    em3d::run(*r.machine, r.ids, r.world, v);
    return std::pair{r.machine->actions(), r.machine->max_clock()};
  };
  EXPECT_EQ(once(em3d::Version::Pull), once(em3d::Version::Pull));
  EXPECT_EQ(once(em3d::Version::Forward), once(em3d::Version::Forward));
}

TEST(Em3dThreaded, AllVersionsMatchUnderRealThreads) {
  for (auto v : {em3d::Version::Pull, em3d::Version::Push, em3d::Version::Forward}) {
    em3d::Params p;
    p.graph_nodes = 64;
    p.degree = 4;
    p.iters = 2;
    p.local_fraction = 0.3;
    MachineConfig cfg;
    cfg.mode = ExecMode::Hybrid3;
    ThreadedMachine m(4, cfg);
    auto ids = em3d::register_em3d(m.registry(), p, 4);
    m.registry().finalize();
    auto world = em3d::build(m, ids, p);
    ASSERT_TRUE(em3d::run(m, ids, world, v)) << em3d::version_name(v);
    const auto got = em3d::extract(m, world);
    const auto want = em3d::reference(p, 4);
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_DOUBLE_EQ(got[k], want[k]) << em3d::version_name(v) << " node " << k;
    }
    EXPECT_EQ(m.live_contexts(), 0u);
  }
}

TEST(Em3dInjection, FallbackStormStaysExact) {
  em3d::Params p;
  p.graph_nodes = 64;
  p.degree = 4;
  p.iters = 2;
  p.local_fraction = 0.5;
  EmRun r(p, 4, ExecMode::Hybrid3);
  for (NodeId n = 0; n < 4; ++n) r.machine->node(n).injector().set_probability(0.25, 50 + n);
  ASSERT_TRUE(em3d::run(*r.machine, r.ids, r.world, em3d::Version::Pull));
  const auto got = em3d::extract(*r.machine, r.world);
  const auto want = em3d::reference(p, 4);
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_DOUBLE_EQ(got[k], want[k]);
  EXPECT_EQ(r.machine->live_contexts(), 0u);
}

}  // namespace
}  // namespace concert
