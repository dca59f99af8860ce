// Merged-wave dispatch (MachineConfig::merge_waves): ordering guarantees,
// result equivalence against the per-message path, flag-off bit-identity,
// sanitizer compatibility, and the BufferPool per-class acquire accounting.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/sor/sor.hpp"
#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "support/arena.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

// --- a tiny logging program --------------------------------------------------
// append(x)        NB — records x in the target log (wave-eligible).
// append_locked(x) NB, locks_self — same, but never merged into a wave.
// Per-channel FIFO means each sender's values must land in send order; the
// single-sender mixed stream must land in exactly send order.

struct LogObj {
  std::vector<std::int64_t> entries;
};

inline constexpr std::uint32_t kLogType = 0x1061u;

MethodId g_append = kInvalidMethod;
MethodId g_append_locked = kInvalidMethod;

Context* append_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                    std::size_t) {
  nd.objects().get<LogObj>(self).entries.push_back(args[0].as_i64());
  *ret = Value(1);
  return nullptr;
}
void append_par(Node& nd, Context& ctx) {
  Value v;
  append_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

void register_log(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "log.append";
  d.seq = append_seq;
  d.par = append_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  d.writes = {"entries"};
  g_append = reg.declare(d);

  d = MethodDecl{};
  d.name = "log.append_locked";
  d.seq = append_seq;
  d.par = append_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  d.locks_self = true;
  d.writes = {"entries"};
  g_append_locked = reg.declare(d);

  // Appends from different senders land in whatever order the network
  // delivers them; the tests here assert each sender's order only, so that
  // interleaving is intended. Declaring it keeps the conformance sanitizer
  // from reporting the concurrent appends as a racy delivery.
  reg.add_commutes(g_append, g_append);
}

/// Seeds `per_sender` invocations from every node except 0 at a log object on
/// node 0, runs to quiescence, and returns the landed entry sequence. Values
/// encode (sender, seq) as sender*10000 + seq. `mixer` picks the method per
/// (sender, seq) — defaults to always-append.
std::vector<std::int64_t> run_log(Machine& m, std::size_t per_sender,
                                  MethodId (*mixer)(std::size_t, std::size_t) = nullptr) {
  auto [ref, obj] = m.node(0).objects().create<LogObj>(kLogType);
  std::vector<Context*> roots;
  for (NodeId s = 1; s < m.node_count(); ++s) {
    Node& nd = m.node(s);
    Context& root = nd.alloc_context_raw(kInvalidMethod, static_cast<SlotId>(per_sender));
    root.status = ContextStatus::Proxy;
    for (std::size_t k = 0; k < per_sender; ++k) root.expect(static_cast<SlotId>(k));
    roots.push_back(&root);
    for (std::size_t k = 0; k < per_sender; ++k) {
      const MethodId method = mixer ? mixer(s, k) : g_append;
      nd.send(Message::invoke(s, 0, method, ref,
                              {Value(static_cast<std::int64_t>(s * 10000 + k))},
                              Continuation{root.ref(), static_cast<SlotId>(k)}));
    }
  }
  m.run_until_quiescent();
  for (Context* r : roots) {
    for (std::size_t k = 0; k < per_sender; ++k) {
      EXPECT_TRUE(r->slot_full(static_cast<SlotId>(k))) << "lost reply " << k;
    }
    m.node(r->home).free_context(*r);
  }
  return obj->entries;
}

/// Every sender's values must appear in send order (per-channel FIFO).
void expect_per_sender_fifo(const std::vector<std::int64_t>& entries, std::size_t senders,
                            std::size_t per_sender) {
  ASSERT_EQ(entries.size(), senders * per_sender);
  std::vector<std::int64_t> next(senders + 1, 0);
  for (const std::int64_t v : entries) {
    const auto s = static_cast<std::size_t>(v / 10000);
    const std::int64_t k = v % 10000;
    ASSERT_GE(s, 1u);
    ASSERT_LE(s, senders);
    EXPECT_EQ(k, next[s]) << "sender " << s << " out of order";
    next[s] = k + 1;
  }
}

struct WaveOrderCase {
  bool merge;
  std::uint64_t shuffle_seed;
};

class WaveOrder : public ::testing::TestWithParam<WaveOrderCase> {};

TEST_P(WaveOrder, PerSenderFifoHolds) {
  const WaveOrderCase c = GetParam();
  const std::size_t nodes = 5, per_sender = 48;
  MachineConfig cfg = test_config();
  cfg.merge_waves = c.merge;
  cfg.shuffle_seed = c.shuffle_seed;
  SimMachine m(nodes, cfg);
  register_log(m.registry());
  m.registry().finalize();
  const auto entries = run_log(m, per_sender);
  expect_per_sender_fifo(entries, nodes - 1, per_sender);
  const NodeStats s = m.total_stats();
  if (c.merge) {
    EXPECT_GT(s.wave_runs, 0u) << "merged path never engaged";
    EXPECT_GE(s.wave_msgs, 2 * s.wave_runs) << "waves never exceeded one message";
  } else {
    EXPECT_EQ(s.wave_runs, 0u);
    EXPECT_EQ(s.wave_msgs, 0u);
  }
  EXPECT_EQ(m.live_contexts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(MergeByShuffle, WaveOrder,
                         ::testing::Values(WaveOrderCase{false, 0}, WaveOrderCase{true, 0},
                                           WaveOrderCase{false, 42}, WaveOrderCase{true, 42}));

TEST(WaveOrder, MixedStreamSplitsRunsButKeepsTotalOrder) {
  // One sender interleaving the wave-eligible and the locks_self variant:
  // runs must split at every ineligible message, yet the landed sequence is
  // exactly the send order (single channel => total order).
  MachineConfig cfg = test_config();
  cfg.merge_waves = true;
  SimMachine m(2, cfg);
  register_log(m.registry());
  m.registry().finalize();
  const std::size_t per_sender = 60;
  const auto entries =
      run_log(m, per_sender, +[](std::size_t, std::size_t k) {
        return k % 5 == 4 ? g_append_locked : g_append;
      });
  ASSERT_EQ(entries.size(), per_sender);
  for (std::size_t k = 0; k < per_sender; ++k) {
    EXPECT_EQ(entries[k], static_cast<std::int64_t>(10000 + k)) << "position " << k;
  }
  const NodeStats s = m.total_stats();
  EXPECT_GT(s.wave_runs, 0u);
  // No wave may span an append_locked delivery: the largest possible run is
  // the four eligible messages between two locked ones.
  EXPECT_LE(s.wave_max, 4u);
}

TEST(WaveOrder, BundleArrivalIsPaidOnceAndEndsItsRuns) {
  // Delivered straight into node 0: a bundle of two appends, a loose append,
  // then a bundle of an append and a locked append. Each bundle pays its
  // receive overhead once on arrival and its members never pay again,
  // whether they run merged or alone; no run continues past a bundle into
  // the next message. The books match with merging off and on.
  for (const bool merge : {false, true}) {
    MachineConfig cfg = test_config();
    cfg.merge_waves = merge;
    SimMachine m(2, cfg);
    register_log(m.registry());
    m.registry().finalize();
    auto [ref, obj] = m.node(0).objects().create<LogObj>(kLogType);
    const auto invoke = [ref = ref](MethodId method, std::int64_t x) {
      return Message::invoke(1, 0, method, ref, {Value(x)}, kNoContinuation);
    };
    std::vector<Message> pair;
    pair.push_back(invoke(g_append, 1));
    pair.push_back(invoke(g_append, 2));
    std::vector<Message> split;
    split.push_back(invoke(g_append, 4));
    split.push_back(invoke(g_append_locked, 5));
    std::vector<Message> batch;
    batch.push_back(Message::bundle_of(1, 0, pair));
    batch.push_back(invoke(g_append, 3));
    batch.push_back(Message::bundle_of(1, 0, split));
    Node& nd = m.node(0);
    nd.deliver(batch);
    EXPECT_EQ(obj->entries, (std::vector<std::int64_t>{1, 2, 3, 4, 5})) << "merge " << merge;
    const CostModel& c = m.costs();
    EXPECT_EQ(nd.stats.bundles_received, 2u);
    EXPECT_EQ(nd.stats.msgs_received, 5u) << "merge " << merge;
    EXPECT_EQ(nd.stats.comm_instructions,
              2 * c.bundle_recv_cost(/*any_invoke=*/true, 2) + c.recv_cost(/*is_reply=*/false))
        << "merge " << merge;
    // Only the first bundle's pair merges: append 3 arrives loose after the
    // bundle ends, and append 4 runs alone before the locked append.
    EXPECT_EQ(nd.stats.wave_runs, merge ? 1u : 0u);
    EXPECT_EQ(nd.stats.wave_msgs, merge ? 2u : 0u);
  }
}

TEST(WaveOrder, ThreadedEngineKeepsPerSenderFifo) {
  MachineConfig cfg = test_config();
  cfg.merge_waves = true;
  ThreadedMachine m(4, cfg);
  register_log(m.registry());
  m.registry().finalize();
  const std::size_t per_sender = 200;
  const auto entries = run_log(m, per_sender);
  expect_per_sender_fifo(entries, 3, per_sender);
}

// --- kernel equivalence: merged vs per-message -------------------------------

TEST(WaveEquivalence, SorSimMatchesReferenceWithMergeOn) {
  const sor::Params p{16, 2, 4, 2};
  MachineConfig cfg = test_config();
  cfg.costs = CostModel::cm5();
  cfg.merge_waves = true;
  SimMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
  const auto got = sor::extract(m, world);
  const auto want = sor::reference(p);
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_DOUBLE_EQ(got[k], want[k]) << "cell " << k;
  EXPECT_GT(m.total_stats().wave_runs, 0u) << "SOR never formed a wave";
  EXPECT_EQ(m.live_contexts(), 0u);
}

TEST(WaveEquivalence, SorThreadedMatchesReferenceWithMergeOn) {
  const sor::Params p{12, 2, 2, 2};
  MachineConfig cfg = test_config();
  cfg.merge_waves = true;
  ThreadedMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
  const auto got = sor::extract(m, world);
  const auto want = sor::reference(p);
  for (std::size_t k = 0; k < got.size(); ++k) ASSERT_DOUBLE_EQ(got[k], want[k]);
  EXPECT_EQ(m.live_contexts(), 0u);
}

TEST(WaveEquivalence, Em3dMatchesReferenceWithMergeOnBothEngines) {
  em3d::Params p;
  p.graph_nodes = 96;
  p.degree = 4;
  p.iters = 2;
  const std::size_t nodes = 4;
  const auto want = em3d::reference(p, nodes);
  for (const bool threaded : {false, true}) {
    MachineConfig cfg = test_config();
    cfg.merge_waves = true;
    std::unique_ptr<Machine> m;
    if (threaded) {
      m = std::make_unique<ThreadedMachine>(nodes, cfg);
    } else {
      cfg.costs = CostModel::cm5();
      m = std::make_unique<SimMachine>(nodes, cfg);
    }
    auto ids = em3d::register_em3d(m->registry(), p, nodes);
    m->registry().finalize();
    auto world = em3d::build(*m, ids, p);
    ASSERT_TRUE(em3d::run(*m, ids, world, em3d::Version::Push));
    const auto got = em3d::extract(*m, world);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_DOUBLE_EQ(got[k], want[k]) << (threaded ? "threaded" : "sim") << " node " << k;
    }
    EXPECT_EQ(m->live_contexts(), 0u);
  }
}

// --- flag off: the merged machinery must be completely inert -----------------

TEST(WaveFlagOff, SimRunIsIdenticalAndWaveFree) {
  auto once = [] {
    const sor::Params p{12, 2, 2, 2};
    MachineConfig cfg = test_config();
    cfg.costs = CostModel::cm5();  // merge_waves defaults to false
    SimMachine m(p.nodes(), cfg);
    auto ids = sor::register_sor(m.registry(), p);
    m.registry().finalize();
    auto world = sor::build(m, ids, p);
    EXPECT_TRUE(sor::run(m, ids, world));
    const NodeStats s = m.total_stats();
    EXPECT_EQ(s.wave_runs, 0u);
    EXPECT_EQ(s.wave_msgs, 0u);
    return std::tuple{m.actions(), m.max_clock(), s.msgs_sent, s.comm_instructions};
  };
  EXPECT_EQ(once(), once());
}

// --- concert-race: the sanitizer must observe the same delivery order --------

TEST(WaveVerify, SorPassesConformanceWithMergeOn) {
  const sor::Params p{12, 2, 2, 2};
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7}}) {
    MachineConfig cfg = test_config();
    cfg.costs = CostModel::cm5();
    cfg.merge_waves = true;
    cfg.verify = true;
    cfg.shuffle_seed = seed;
    SimMachine m(p.nodes(), cfg);
    auto ids = sor::register_sor(m.registry(), p);
    m.registry().finalize();
    auto world = sor::build(m, ids, p);
    // run_until_quiescent enforces conformance at quiescence; a reordered or
    // dropped vclock observation fails the run.
    ASSERT_TRUE(sor::run(m, ids, world)) << "seed " << seed;
    const auto got = sor::extract(m, world);
    const auto want = sor::reference(p);
    for (std::size_t k = 0; k < got.size(); ++k) ASSERT_DOUBLE_EQ(got[k], want[k]);
  }
}

TEST(WaveVerify, VerifiedDeliveryCountsMatchPerMessagePath) {
  // Under verify the wave executes element-at-a-time; every message must
  // still be stamped/joined exactly once, so total received counts and the
  // sanitizer's per-object delivery probes agree with the per-message
  // configuration.
  const sor::Params p{12, 2, 2, 2};
  auto run_with = [&](bool merge) {
    MachineConfig cfg = test_config();
    cfg.costs = CostModel::cm5();
    cfg.merge_waves = merge;
    cfg.verify = true;
    SimMachine m(p.nodes(), cfg);
    auto ids = sor::register_sor(m.registry(), p);
    m.registry().finalize();
    auto world = sor::build(m, ids, p);
    EXPECT_TRUE(sor::run(m, ids, world));
    std::uint64_t probes = 0;
    for (NodeId n = 0; n < m.node_count(); ++n) {
      probes += m.node(n).verifier.stats().object_deliveries;
    }
    EXPECT_GT(probes, 0u);
    return std::pair{m.total_stats().msgs_received, probes};
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

// --- BufferPool per-class acquire accounting (satellite: payload_hit_frac) ---

TEST(BufferPoolStats, CountsAcquiresAndHitsByRequestedClass) {
  BufferPool<int> pool(8);
  using Pool = BufferPool<int>;
  std::vector<int> out;

  EXPECT_FALSE(pool.try_acquire(out, 4));  // empty pool: miss
  std::vector<int> b;
  b.reserve(4);
  pool.release(std::move(b));
  EXPECT_TRUE(pool.try_acquire(out, 4));  // served from class_of(4)
  const auto& c4 = pool.class_stats()[Pool::class_of(4)];
  EXPECT_EQ(c4.acquires, 2u);
  EXPECT_EQ(c4.hits, 1u);

  // A zero-capacity request is its own class-0 bucket — the wildcard path
  // that used to poach sized buffers is now visible in the stats.
  pool.release(std::move(out));
  std::vector<int> any;
  EXPECT_TRUE(pool.try_acquire(any, 0));
  EXPECT_EQ(pool.class_stats()[Pool::class_of(0)].acquires, 1u);
  EXPECT_EQ(pool.class_stats()[Pool::class_of(0)].hits, 1u);
  EXPECT_EQ(c4.acquires, 2u);  // unchanged: accounting is per requested class
}

TEST(BufferPoolStats, ZeroReservePayloadAcquireIsUncountedButFerriesCapacity) {
  // Node::acquire_payload(0) must not count an acquire or a hit — a zero
  // reserve requests nothing, and counting it would make payload_hit_frac
  // measure something other than payload requests — but it SHOULD still
  // hand out a pooled buffer when one is available.
  MachineConfig cfg = test_config();
  SimMachine m(1, cfg);
  m.registry().finalize();
  Node& nd = m.node(0);
  nd.release_payload([] {
    std::vector<Value> v;
    v.reserve(2);
    return v;
  }());
  const std::uint64_t before_acq = nd.stats.payload_acquires;
  const std::uint64_t before_hit = nd.stats.payload_pool_hits;
  auto buf = nd.acquire_payload(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 2u) << "zero-reserve acquire left the pooled buffer stranded";
  EXPECT_EQ(nd.stats.payload_acquires, before_acq);
  EXPECT_EQ(nd.stats.payload_pool_hits, before_hit);
}

}  // namespace
}  // namespace concert
