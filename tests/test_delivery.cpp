// Message delivery (Node::deliver): per-sender FIFO on both engines, bundle
// arrival paid once, and the BufferPool per-class acquire accounting.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "support/arena.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

// --- a tiny logging program --------------------------------------------------
// append(x)        NB — records x in the target log.
// append_locked(x) NB, locks_self — same, under the target's implicit lock.
// Per-channel FIFO means each sender's values must land in send order.

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

/// Seeds `per_sender` appends from every node except 0 at a log object on
/// node 0, runs to quiescence, and returns the landed entry sequence. Values
/// encode (sender, seq) as sender*10000 + seq.
std::vector<std::int64_t> run_log(Machine& m, std::size_t per_sender) {
  auto [ref, obj] = m.node(0).objects().create<LogObj>(kLogType);
  std::vector<Context*> roots;
  for (NodeId s = 1; s < m.node_count(); ++s) {
    Node& nd = m.node(s);
    Context& root = nd.alloc_context_raw(kInvalidMethod, static_cast<SlotId>(per_sender));
    root.status = ContextStatus::Proxy;
    for (std::size_t k = 0; k < per_sender; ++k) root.expect(static_cast<SlotId>(k));
    roots.push_back(&root);
    for (std::size_t k = 0; k < per_sender; ++k) {
      nd.send(Message::invoke(s, 0, g_append, ref,
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

// Sim engine, per message or merged into bundles (FlushPolicy), in strict
// delivery order or a shuffled one (concert-race): the shuffle may
// interleave senders, never reorder one sender's channel.
struct WaveOrderCase {
  bool merge;
  std::uint64_t shuffle_seed;
};

class WaveOrder : public ::testing::TestWithParam<WaveOrderCase> {};

TEST_P(WaveOrder, PerSenderFifoHolds) {
  const WaveOrderCase c = GetParam();
  const std::size_t nodes = 5, per_sender = 48;
  MachineConfig cfg = test_config();
  if (c.merge) cfg.flush_policy = FlushPolicy::size_threshold(8);
  cfg.shuffle_seed = c.shuffle_seed;
  SimMachine m(nodes, cfg);
  register_log(m.registry());
  m.registry().finalize();
  const auto entries = run_log(m, per_sender);
  expect_per_sender_fifo(entries, nodes - 1, per_sender);
  const NodeStats s = m.total_stats();
  if (c.merge) {
    EXPECT_GT(s.bundles_received, 0u) << "messages never merged into a bundle";
  } else {
    EXPECT_EQ(s.bundles_received, 0u);
  }
  EXPECT_EQ(m.live_contexts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(MergeByShuffle, WaveOrder,
                         ::testing::Values(WaveOrderCase{false, 0}, WaveOrderCase{true, 0},
                                           WaveOrderCase{false, 42}, WaveOrderCase{true, 42}));

TEST(Delivery, ThreadedEngineKeepsPerSenderFifo) {
  ThreadedMachine m(4, test_config());
  register_log(m.registry());
  m.registry().finalize();
  const std::size_t per_sender = 200;
  const auto entries = run_log(m, per_sender);
  expect_per_sender_fifo(entries, 3, per_sender);
}

TEST(Delivery, BundleArrivalIsPaidOnce) {
  // Delivered straight into node 0: a bundle of two appends, a loose append,
  // then a bundle of an append and a locked append. Each bundle pays its
  // receive overhead once on arrival and its members never pay again; the
  // loose append pays its own.
  SimMachine m(2, test_config());
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
  EXPECT_EQ(obj->entries, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  const CostModel& c = m.costs();
  EXPECT_EQ(nd.stats.bundles_received, 2u);
  EXPECT_EQ(nd.stats.msgs_received, 5u);
  EXPECT_EQ(nd.stats.comm_instructions,
            2 * c.bundle_recv_cost(/*any_invoke=*/true, 2) + c.recv_cost(/*is_reply=*/false));
}

// --- BufferPool per-class acquire accounting ----------------------------------

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

  // A zero-capacity request is counted under class 0, whichever class
  // serves it (here the class of the 4-element buffer).
  pool.release(std::move(out));
  std::vector<int> any;
  EXPECT_TRUE(pool.try_acquire(any, 0));
  EXPECT_EQ(pool.class_stats()[Pool::class_of(0)].acquires, 1u);
  EXPECT_EQ(pool.class_stats()[Pool::class_of(0)].hits, 1u);
  EXPECT_EQ(c4.acquires, 2u);  // unchanged: accounting is per requested class
}

}  // namespace
}  // namespace concert
