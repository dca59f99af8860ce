// The compact message: its size and move-only layout, payloads inline up to
// Payload::kInline values and spilled past it, intact through the message
// factories and both engines' queues, spill buffers recycled into the
// receiving node's pool, no heap allocation per message for 1- to 3-value
// invocations and replies on either engine, and one per bundle flush.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "core/invoke.hpp"
#include "test_util.hpp"

// Allocations made by a thread while its counting flag is on, so a test can
// bound a burst's allocations: a replacement of the global operator new for
// this binary. Never inlined, so the compiler does not see the free of a
// pointer from operator new at the call sites of delete.
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

using testing::test_config;

static_assert(sizeof(Message) <= 128);
static_assert(!std::is_copy_constructible_v<Message>);
static_assert(std::is_nothrow_move_constructible_v<Message>);

/// Heap allocations `body` makes on this thread.
template <typename Body>
std::size_t allocations_in(Body&& body) {
  t_allocs = 0;
  t_counting = true;
  body();
  t_counting = false;
  return t_allocs;
}

/// Payload sizes on both sides of the inline capacity.
constexpr std::size_t kSizes[] = {0, 1, 3, 4, 64};

/// `n` values tagged with `tag`, distinct per position.
std::vector<Value> values(std::size_t n, std::int64_t tag) {
  std::vector<Value> v;
  for (std::size_t i = 0; i < n; ++i) v.emplace_back(tag * 1000 + static_cast<std::int64_t>(i));
  return v;
}

void expect_values(const Payload& p, std::size_t n, std::int64_t tag) {
  ASSERT_EQ(p.size(), n) << "tag " << tag;
  EXPECT_EQ(p.spilled(), n > Payload::kInline) << "tag " << tag;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(p[i].as_i64(), tag * 1000 + static_cast<std::int64_t>(i)) << "tag " << tag;
  }
}

/// Message `tag` of a mixed stream: invokes and replies of every kSizes size.
Message tagged(NodeId src, NodeId dst, std::int64_t tag) {
  const std::size_t n = kSizes[static_cast<std::size_t>(tag) % std::size(kSizes)];
  if (tag % 2 == 0) {
    return Message::invoke(src, dst, static_cast<MethodId>(tag), kNoObject, values(n, tag), {});
  }
  const std::vector<Value> v = values(n, tag);
  return Message::reply(src, dst, Continuation{ContextRef{dst, 0, 0}, 0, false},
                        Payload(v.data(), v.size()));
}

TEST(CompactMessage, FactoriesKeepPayloadsIntact) {
  for (const std::size_t n : kSizes) {
    const auto tag = static_cast<std::int64_t>(n);
    const Message inv = Message::invoke(0, 1, 7, kNoObject, values(n, tag), {});
    expect_values(inv.args, n, tag);
    const std::vector<Value> v = values(n, tag);
    const Message rep = Message::reply(0, 1, Continuation{}, Payload(v.data(), v.size()));
    expect_values(rep.args, n, tag);
    EXPECT_EQ(inv.size_bytes(), Message::kHeaderBytes + n * Value::wire_size());
  }
  const Message one = Message::reply(0, 1, Continuation{}, Value(std::int64_t{42}));
  ASSERT_EQ(one.args.size(), 1u);
  EXPECT_FALSE(one.args.spilled());
  EXPECT_EQ(one.args[0].as_i64(), 42);
}

TEST(CompactMessage, MovedFromHoldsEmptyPayloadAndNoBox) {
  for (const std::size_t n : kSizes) {
    Message a = Message::invoke(0, 1, 7, kNoObject, values(n, 3), {});
    a.box().vclock = {1, 2};
    Message b = std::move(a);
    expect_values(b.args, n, 3);
    EXPECT_EQ(b.vclock().size(), 2u);
    EXPECT_TRUE(a.args.empty());  // NOLINT(bugprone-use-after-move): the state under test
    EXPECT_FALSE(a.args.spilled());
    EXPECT_TRUE(a.vclock().empty());
    EXPECT_TRUE(a.bundle().empty());
    Message c;
    c = std::move(b);
    expect_values(c.args, n, 3);
    EXPECT_TRUE(b.args.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.vclock().empty());
    Message d = Message::invoke(0, 1, 8, kNoObject, values(64, 5), {});
    d = std::move(c);  // over a spilled payload, whose buffer is freed
    expect_values(d.args, n, 3);
  }
  std::vector<Message> elems;
  elems.push_back(Message::invoke(0, 1, 1, kNoObject, values(4, 1), {}));
  elems.push_back(Message::invoke(0, 1, 2, kNoObject, values(1, 2), {}));
  Message bundle = Message::bundle_of(0, 1, elems);
  const Message moved = std::move(bundle);
  ASSERT_EQ(moved.bundle().size(), 2u);
  expect_values(moved.bundle()[0].args, 4, 1);
  expect_values(moved.bundle()[1].args, 1, 2);
  EXPECT_TRUE(bundle.bundle().empty());  // NOLINT(bugprone-use-after-move)
}

TEST(CompactMessage, PayloadsCrossBothEnginesQueuesInOrder) {
  // Enough messages to cross several channel segments and ring growths.
  constexpr std::int64_t kCount = 200;
  {
    ThreadedMachine m(2, test_config());
    m.registry().finalize();
    Node& nd = m.node(1);
    for (std::int64_t t = 0; t < kCount; ++t) nd.push_inbox(tagged(0, 1, t));
    std::vector<Message> out;
    ASSERT_EQ(nd.drain_inbox(out, kCount), static_cast<std::size_t>(kCount));
    for (std::int64_t t = 0; t < kCount; ++t) {
      const std::size_t n = kSizes[static_cast<std::size_t>(t) % std::size(kSizes)];
      expect_values(out[static_cast<std::size_t>(t)].args, n, t);
    }
  }
  {
    SimNetwork net(2, CostModel::workstation());
    for (std::int64_t t = 0; t < kCount; ++t) net.inject(tagged(0, 1, t), 0);
    for (std::int64_t t = 0; t < kCount; ++t) {
      const std::size_t n = kSizes[static_cast<std::size_t>(t) % std::size(kSizes)];
      expect_values(net.pop_for(1).args, n, t);
    }
    EXPECT_EQ(net.in_flight(), 0u);
  }
}

TEST(CompactMessage, SpillReachesReceivingNodesPool) {
  SimMachine m(2, test_config());
  m.registry().finalize();
  Node& nd = m.node(1);
  constexpr std::size_t kWidth = Payload::kInline + 1;
  Context& sink = nd.alloc_context_raw(kInvalidMethod, kWidth);
  sink.status = ContextStatus::Proxy;
  for (SlotId s = 0; s < kWidth; ++s) sink.expect(s);
  Message msg = Message::reply(0, 1, Continuation{sink.ref(), 0, false}, values(kWidth, 9));
  ASSERT_TRUE(msg.args.spilled());
  const std::uint64_t releases = nd.stats.payload_releases;
  nd.deliver(msg);
  EXPECT_EQ(nd.stats.payload_releases, releases + 1);
  EXPECT_FALSE(msg.args.spilled());
  for (SlotId s = 0; s < kWidth; ++s) EXPECT_EQ(sink.get(s).as_i64(), 9000 + s);
  nd.free_context(sink);
}

// --- bursts of 1- and 3-value invokes and replies ---------------------------
// Node 0 sends a burst to node 1 through the runtime's own send sites
// (remote_invoke, Node::reply_to_multi), alternating invokes of a 1- and a
// 3-argument method with 1- and 3-value replies into one proxy context.

constexpr std::size_t kBurst = 10'000;
MethodId g_sink1 = kInvalidMethod;
MethodId g_sink3 = kInvalidMethod;
std::vector<std::int64_t> g_seen;  ///< args[0] of every sink invocation, in order.

Context* sink_seq(Node&, Value*, const CallerInfo&, GlobalRef, const Value* args,
                  std::size_t nargs) {
  for (std::size_t i = 1; i < nargs; ++i) {
    EXPECT_EQ(args[i].as_i64(), args[0].as_i64() + static_cast<std::int64_t>(i));
  }
  g_seen.push_back(args[0].as_i64());
  return nullptr;
}
void sink_par(Node&, Context&) { CONCERT_UNREACHABLE("sink_par"); }

void register_sinks(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "sink1";
  d.seq = sink_seq;
  d.par = sink_par;
  d.arg_count = 1;
  g_sink1 = reg.declare(d);
  d.name = "sink3";
  d.arg_count = 3;
  g_sink3 = reg.declare(d);
  reg.finalize();
}

struct LogObj {};

/// The burst's receiving side: a target object and a proxy context with one
/// slot per reply value.
struct BurstSink {
  GlobalRef target;
  Context* replies = nullptr;
  SlotId next_slot = 0;
};

BurstSink make_sink(Node& nd, std::size_t slots) {
  BurstSink s;
  s.target = nd.objects().create<LogObj>(0x5157u).first;
  s.replies = &nd.alloc_context_raw(kInvalidMethod, slots);
  s.replies->status = ContextStatus::Proxy;
  for (std::size_t i = 0; i < slots; ++i) s.replies->expect(static_cast<SlotId>(i));
  return s;
}

/// Sends message `i` of a burst from `from` to the sink.
void send_burst_message(Node& from, BurstSink& sink, std::size_t i) {
  const bool wide = (i / 2) % 2 == 1;
  const auto base = static_cast<std::int64_t>(i) * 10;
  const Value vs[3] = {Value(base), Value(base + 1), Value(base + 2)};
  const std::size_t n = wide ? 3 : 1;
  if (i % 2 == 0) {
    remote_invoke(from, wide ? g_sink3 : g_sink1, sink.target, vs, n, kNoContinuation);
  } else {
    from.reply_to_multi(Continuation{sink.replies->ref(), sink.next_slot, false}, vs, n);
    sink.next_slot = static_cast<SlotId>(sink.next_slot + n);
  }
}

/// Checks every invocation ran in send order and every reply value landed.
void expect_burst_delivered(const BurstSink& sink, std::size_t count) {
  ASSERT_EQ(g_seen.size(), (count + 1) / 2);
  for (std::size_t k = 0; k < g_seen.size(); ++k) {
    EXPECT_EQ(g_seen[k], static_cast<std::int64_t>(2 * k) * 10) << "invocation " << k;
  }
  SlotId slot = 0;
  for (std::size_t i = 1; i < count; i += 2) {
    const std::size_t n = (i / 2) % 2 == 1 ? 3 : 1;
    for (std::size_t j = 0; j < n; ++j, ++slot) {
      ASSERT_TRUE(sink.replies->slot_full(slot)) << "reply " << i;
      EXPECT_EQ(sink.replies->get(slot).as_i64(), static_cast<std::int64_t>(i * 10 + j));
    }
  }
}

/// The default config without the conformance sanitizer, whose vector-clock
/// stamp boxes every message it sends (on by default in verify builds).
MachineConfig burst_config() {
  MachineConfig cfg = test_config();
  cfg.verify = false;
  return cfg;
}

/// Reply slots a burst of `count` messages fills.
std::size_t reply_slots(std::size_t count) {
  std::size_t slots = 0;
  for (std::size_t i = 1; i < count; i += 2) slots += (i / 2) % 2 == 1 ? 3 : 1;
  return slots;
}

TEST(CompactMessage, ThreadedBurstAllocatesOnlyChannelSegments) {
  // The guard against a per-message payload allocation: Node::send ->
  // push_inbox -> drain_inbox -> deliver of the whole burst allocates one
  // inbox segment per kSeg messages and nothing else. A warm-up message of
  // each kind first touches what is allocated once per node (the event
  // ring, the drained batch).
  constexpr std::size_t kWarm = 4;
  ThreadedMachine m(2, burst_config());
  register_sinks(m.registry());
  Node& from = m.node(0);
  Node& to = m.node(1);
  BurstSink sink = make_sink(to, reply_slots(kWarm + kBurst));
  g_seen.clear();
  g_seen.reserve(kWarm + kBurst);
  std::vector<Message> batch;
  batch.reserve(kBurst);
  const auto drain_and_deliver = [&to, &batch] {
    batch.clear();
    const std::size_t n = to.drain_inbox(batch, kBurst);
    to.deliver(batch);
    to.work_retired(n);
    return n;
  };
  for (std::size_t i = 0; i < kWarm; ++i) send_burst_message(from, sink, i);
  ASSERT_EQ(drain_and_deliver(), kWarm);
  std::size_t delivered = 0;
  const std::size_t allocs = allocations_in([&] {
    for (std::size_t i = kWarm; i < kWarm + kBurst; ++i) send_burst_message(from, sink, i);
    delivered = drain_and_deliver();
  });
  EXPECT_EQ(delivered, kBurst);
  EXPECT_LE(allocs, (kBurst + ChannelFifo<Message>::kSeg - 1) / ChannelFifo<Message>::kSeg + 1);
  expect_burst_delivered(sink, kWarm + kBurst);
  to.free_context(*sink.replies);
}

TEST(CompactMessage, SimBurstInFlightAllocatesOnlyRingGrowth) {
  // The same burst held in flight on the deterministic engine: the only
  // allocations are the (src, dst) channel ring doubling as it fills.
  constexpr std::size_t kWarm = 4;
  SimMachine m(2, burst_config());
  register_sinks(m.registry());
  Node& from = m.node(0);
  BurstSink sink = make_sink(m.node(1), reply_slots(kWarm + kBurst));
  g_seen.clear();
  g_seen.reserve(kWarm + kBurst);
  for (std::size_t i = 0; i < kWarm; ++i) send_burst_message(from, sink, i);
  m.run_until_quiescent();
  const std::size_t allocs = allocations_in([&] {
    for (std::size_t i = kWarm; i < kWarm + kBurst; ++i) send_burst_message(from, sink, i);
  });
  EXPECT_EQ(m.network().in_flight(), kBurst);
  EXPECT_LE(allocs, static_cast<std::size_t>(std::bit_width(kBurst)) + 1);
  m.run_until_quiescent();
  expect_burst_delivered(sink, kWarm + kBurst);
  m.node(1).free_context(*sink.replies);
}

TEST(CompactMessage, BundleFlushAllocatesOnce) {
  // A flush of n >= 2 staged messages allocates one block, the bundle's box
  // with its elements in it: the outbox keeps its bucket's capacity and the
  // network ring its slots. A warm-up flush first grows both.
  MachineConfig cfg = burst_config();
  cfg.flush_policy = FlushPolicy::flush_on_idle();
  SimMachine m(2, cfg);
  register_sinks(m.registry());
  Node& from = m.node(0);
  const auto stage = [&from](std::size_t n, std::int64_t tag) {
    for (std::size_t i = 0; i < n; ++i) {
      const Value v(tag + static_cast<std::int64_t>(i));
      from.send(Message::invoke(0, 1, g_sink1, kNoObject, {v}, kNoContinuation));
    }
  };
  stage(8, 0);
  from.flush_outbox(1);
  (void)m.network().pop_for(1);
  for (const std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    stage(n, 100);
    EXPECT_EQ(allocations_in([&from] { from.flush_outbox(1); }), 1u) << "n=" << n;
    const Message b = m.network().pop_for(1);
    ASSERT_EQ(b.bundle().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(b.bundle()[i].args.at(0).as_i64(), 100 + static_cast<std::int64_t>(i));
    }
  }
}

}  // namespace
}  // namespace concert
