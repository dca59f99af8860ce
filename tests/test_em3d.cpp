// EM3D kernel: all three communication structures (pull / push / forward)
// must produce bit-identical values to the serial reference, in every mode,
// at every locality level. Also the containers' flat layout: nodes are views
// into per-container arrays, consumer lists are in forward-chain order, a
// foreign id or a bad slot is a ProtocolError, building a world allocates a
// number of blocks independent of the graph's size, and a warm forward run
// allocates less than once per two forwarded continuations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <tuple>

#include "apps/em3d/em3d.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"

// Allocations made by a thread while its counting flag is on: a replacement
// of the global operator new for this binary. Never inlined, so the compiler
// does not see the free of a pointer from operator new at the call sites of
// delete.
namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_allocs = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_counting) ++t_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

em3d::NodeContainer& container(Machine& m, const em3d::World& w, NodeId nid) {
  return m.node(nid).objects().get<em3d::NodeContainer>(w.containers[nid]);
}

TEST(Em3dLayout, NodesAreViewsIntoTheContainersFlatArrays) {
  em3d::Params p;
  p.graph_nodes = 50;  // a multiple of neither machine size below
  p.degree = 3;
  p.local_fraction = 0.4;
  for (const std::size_t nodes : {1u, 3u, 4u}) {
    EmRun r(p, nodes, ExecMode::Hybrid3);
    const std::vector<double> values = em3d::extract(*r.machine, r.world);
    std::size_t seen = 0;
    for (NodeId nid = 0; nid < nodes; ++nid) {
      em3d::NodeContainer& c = container(*r.machine, r.world, nid);
      const std::size_t n = c.nodes.size();
      ASSERT_EQ(c.values.size(), n);
      ASSERT_EQ(c.srcs.size(), n * p.degree);
      ASSERT_EQ(c.weights.size(), n * p.degree);
      ASSERT_EQ(c.inbox.size(), n * p.degree);
      for (std::uint32_t li = 0; li < n; ++li) {
        const std::uint32_t id = c.nodes.id(li);
        EXPECT_EQ(id % nodes, nid);
        EXPECT_EQ(r.world.owner[id], nid);
        EXPECT_EQ(c.nodes.local(id), li);
        EXPECT_EQ(li < c.nodes.first_h(), id < p.graph_nodes / 2) << "E nodes come first";
        const em3d::GNode& g = c.nodes.at(id);
        EXPECT_EQ(&g.value, &c.values[li]);
        EXPECT_EQ(g.value, values[id]);
        EXPECT_EQ(g.srcs.data(), c.srcs.data() + li * p.degree);
        EXPECT_EQ(g.weights.data(), c.weights.data() + li * p.degree);
        EXPECT_EQ(g.inbox.data(), c.inbox.data() + li * p.degree);
        EXPECT_EQ(g.srcs.size(), p.degree);
        EXPECT_EQ(g.weights.size(), p.degree);
        EXPECT_EQ(g.inbox.size(), p.degree);
        for (const std::uint32_t src : g.srcs) {
          EXPECT_NE(src < p.graph_nodes / 2, id < p.graph_nodes / 2) << "edges cross the halves";
        }
        ++seen;
      }
    }
    EXPECT_EQ(seen, p.graph_nodes);
  }
}

TEST(Em3dLayout, ConsumerListsMatchABruteForceRecomputation) {
  em3d::Params p;
  p.graph_nodes = 90;
  p.degree = 5;
  p.local_fraction = 0.3;
  const std::size_t nodes = 4;
  EmRun r(p, nodes, ExecMode::Hybrid3);
  // Every in-edge (dst, slot) of every graph node is a consumer of its
  // source, listed by owner node, then id, then slot.
  using Entry = std::tuple<NodeId, std::uint32_t, std::uint16_t>;
  std::map<std::uint32_t, std::vector<Entry>> want;
  for (std::uint32_t dst = 0; dst < p.graph_nodes; ++dst) {
    const em3d::GNode& g = container(*r.machine, r.world, r.world.owner[dst]).nodes.at(dst);
    for (std::uint16_t slot = 0; slot < g.srcs.size(); ++slot) {
      want[g.srcs[slot]].emplace_back(r.world.owner[dst], dst, slot);
    }
  }
  for (auto& [src, list] : want) std::sort(list.begin(), list.end());
  std::size_t total = 0;
  for (NodeId nid = 0; nid < nodes; ++nid) {
    const em3d::NodeContainer& c = container(*r.machine, r.world, nid);
    ASSERT_EQ(c.consumer_begin.size(), c.nodes.size() + 1u);
    EXPECT_EQ(c.consumer_begin.back(), c.consumers.size());
    for (std::uint32_t li = 0; li < c.nodes.size(); ++li) {
      std::vector<Entry> got;
      for (std::uint32_t k = c.consumer_begin[li]; k < c.consumer_begin[li + 1]; ++k) {
        const em3d::Consumer& cons = c.consumers[k];
        got.emplace_back(r.world.owner[cons.dst], cons.dst, cons.slot);
      }
      const auto it = want.find(c.nodes.id(li));
      EXPECT_EQ(got, it == want.end() ? std::vector<Entry>{} : it->second)
          << "source " << c.nodes.id(li);
      total += got.size();
    }
    EXPECT_EQ(c.containers, r.world.containers);
  }
  EXPECT_EQ(total, p.graph_nodes * p.degree);
}

/// Sends one invocation of `method` to node 1's container and runs the
/// machine; the caller expects the body to reject its arguments.
void invoke_on_node1(Machine& m, const em3d::World& w, MethodId method, Payload args) {
  m.node(0).send(Message::invoke(0, 1, method, w.containers[1], std::move(args), {}));
  m.run_until_quiescent();
}

TEST(Em3dLayout, ForeignIdOrBadSlotIsAProtocolErrorOnBothEngines) {
  em3d::Params p;
  p.graph_nodes = 16;
  p.degree = 3;
  MachineConfig cfg;
  cfg.postmortem_path = "";
  const std::int64_t foreign = 4;  // owned by node 0 of 2
  const std::int64_t owned = 5;    // owned by node 1
  const Value v(0.5);
  for (const bool threaded : {false, true}) {
    const auto world_of = [&](auto&& body) {
      std::unique_ptr<Machine> m;
      if (threaded) {
        m = std::make_unique<ThreadedMachine>(2, cfg);
      } else {
        m = std::make_unique<SimMachine>(2, cfg);
      }
      const em3d::Ids ids = em3d::register_em3d(m->registry(), p, 2);
      m->registry().finalize();
      const em3d::World w = em3d::build(*m, ids, p);
      body(*m, ids, w);
    };
    const char* engine = threaded ? "threaded" : "sim";
    world_of([&](Machine& m, const em3d::Ids& ids, const em3d::World& w) {
      EXPECT_THROW(invoke_on_node1(m, w, ids.recv_value, {Value(foreign), Value(0), v}),
                   ProtocolError)
          << engine;
    });
    world_of([&](Machine& m, const em3d::Ids& ids, const em3d::World& w) {
      EXPECT_THROW(invoke_on_node1(m, w, ids.recv_value, {Value(owned), Value(3), v}),
                   ProtocolError)
          << engine;
    });
    world_of([&](Machine& m, const em3d::Ids& ids, const em3d::World& w) {
      EXPECT_THROW(invoke_on_node1(m, w, ids.recv_value, {Value(owned), Value(-1), v}),
                   ProtocolError)
          << engine;
    });
    world_of([&](Machine& m, const em3d::Ids& ids, const em3d::World& w) {
      EXPECT_THROW(invoke_on_node1(m, w, ids.get_value, {Value(foreign)}), ProtocolError)
          << engine;
    });
    world_of([&](Machine& m, const em3d::Ids& ids, const em3d::World& w) {
      // An id past the graph on the right node is foreign too.
      EXPECT_THROW(invoke_on_node1(m, w, ids.combine_node, {Value(std::int64_t{17})}),
                   ProtocolError)
          << engine;
    });
    world_of([&](Machine& m, const em3d::Ids& ids, const em3d::World& w) {
      invoke_on_node1(m, w, ids.recv_value, {Value(owned), Value(2), v});
      EXPECT_EQ(container(m, w, 1).nodes.at(5).inbox[2], 0.5) << engine;
    });
  }
}

/// Blocks allocated by register_em3d + build for a graph of `graph_nodes`.
std::size_t build_allocations(std::size_t graph_nodes) {
  em3d::Params p;
  p.graph_nodes = graph_nodes;
  p.local_fraction = 0.2;
  SimMachine m(4, MachineConfig{});
  t_allocs = 0;
  t_counting = true;
  const em3d::Ids ids = em3d::register_em3d(m.registry(), p, 4);
  t_counting = false;
  m.registry().finalize();
  t_counting = true;
  const em3d::World w = em3d::build(m, ids, p);
  t_counting = false;
  return t_allocs;
}

// Each forward hop builds its remainder in the container's reused buffer,
// so a warm run allocates far less than once per forwarded continuation.
TEST(Em3dForward, WarmHopsReuseTheRemainderBuffer) {
  em3d::Params p;
  p.graph_nodes = 4096;
  p.degree = 8;
  p.iters = 2;
  MachineConfig cfg;
  cfg.verify = false;  // a verify run boxes every message for its vector-clock stamp
  SimMachine m(4, cfg);
  const em3d::Ids ids = em3d::register_em3d(m.registry(), p, 4);
  m.registry().finalize();
  em3d::World w = em3d::build(m, ids, p);
  ASSERT_TRUE(em3d::run(m, ids, w, em3d::Version::Forward));  // warm-up
  const std::uint64_t forwarded_before = m.total_stats().continuations_forwarded;
  t_allocs = 0;
  t_counting = true;
  const bool ok = em3d::run(m, ids, w, em3d::Version::Forward);
  t_counting = false;
  ASSERT_TRUE(ok);
  const std::uint64_t forwarded = m.total_stats().continuations_forwarded - forwarded_before;
  ASSERT_GT(forwarded, 0u);
  EXPECT_LT(t_allocs, forwarded / 2) << t_allocs << " allocations for " << forwarded
                                     << " forwarded continuations";
}

TEST(Em3dLayout, BuildAllocationsDoNotGrowWithTheGraph) {
  const std::size_t small = build_allocations(1024);
  const std::size_t large = build_allocations(8 * 1024);
  // A fixed number of arrays per plan and per container: growing the graph
  // 8x may add a few reallocations, never one block per graph node.
  EXPECT_LE(large, small + 32) << "small " << small << ", large " << large;
  EXPECT_LT(small, 1024u) << "fewer blocks than graph nodes";
}

}  // namespace
}  // namespace concert
