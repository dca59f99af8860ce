#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/network.hpp"
#include "support/rng.hpp"

namespace concert {
namespace {

Message mk(NodeId src, NodeId dst, int tag) {
  Message m = Message::invoke(src, dst, static_cast<MethodId>(tag), kNoObject, {}, {});
  return m;
}

TEST(SimNetwork, DeliversAfterLatency) {
  const CostModel costs = CostModel::workstation();
  SimNetwork net(2, costs);
  net.inject(mk(0, 1, 1), /*sender_clock=*/1000);
  ASSERT_FALSE(net.empty_for(1));
  EXPECT_GE(net.earliest_for(1), 1000 + costs.wire_latency);
  const Message m = net.pop_for(1);
  EXPECT_EQ(m.method, 1u);
  EXPECT_TRUE(net.empty_for(1));
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, FifoPerChannelEvenWithClockSkew) {
  SimNetwork net(2, CostModel::workstation());
  // Second message sent "earlier" on the sender clock (can't happen for a
  // single sender, but FIFO must clamp regardless of serialization effects).
  Message big = mk(0, 1, 1);
  big.args = std::vector<Value>(100, Value{1});  // long message -> late delivery
  net.inject(std::move(big), 100);
  net.inject(mk(0, 1, 2), 101);  // short message right behind it
  const Message first = net.pop_for(1);
  const Message second = net.pop_for(1);
  EXPECT_EQ(first.method, 1u);
  EXPECT_EQ(second.method, 2u);
  EXPECT_LE(first.deliver_at, second.deliver_at);
}

TEST(SimNetwork, IndependentChannelsDontBlock) {
  SimNetwork net(3, CostModel::workstation());
  Message slow = mk(0, 2, 1);
  slow.args = std::vector<Value>(1000, Value{1});
  net.inject(std::move(slow), 0);
  net.inject(mk(1, 2, 2), 0);
  // The message from node 1 may overtake node 0's long message.
  EXPECT_EQ(net.pop_for(2).method, 2u);
}

TEST(SimNetwork, EarliestReflectsMinimum) {
  SimNetwork net(2, CostModel::workstation());
  net.inject(mk(0, 1, 1), 5000);
  net.inject(mk(0, 1, 2), 100);
  // FIFO: the second can't be delivered before the first on the same channel.
  EXPECT_EQ(net.pop_for(1).method, 1u);
}

TEST(SimNetwork, DeterministicTieBreakBySeq) {
  SimNetwork net(3, CostModel::workstation());
  // Same timestamps from two different sources: pop order must be injection
  // order (seq tie-break), deterministically.
  net.inject(mk(0, 2, 10), 500);
  net.inject(mk(1, 2, 20), 500);
  EXPECT_EQ(net.pop_for(2).method, 10u);
  EXPECT_EQ(net.pop_for(2).method, 20u);
}

TEST(SimNetwork, SeqTieBreakHoldsAcrossManySources) {
  // A large batch of messages with identical deliver_at timestamps from
  // rotating sources must pop in injection (seq) order — the (deliver_at, seq)
  // key is a unique total order, so pop order must not depend on how the
  // channel heads are merged.
  SimNetwork net(5, CostModel::workstation());
  for (int tag = 0; tag < 32; ++tag) net.inject(mk(static_cast<NodeId>(tag % 4), 4, tag), 250);
  for (int tag = 0; tag < 32; ++tag) {
    EXPECT_EQ(net.pop_for(4).method, static_cast<MethodId>(tag)) << "at pop " << tag;
  }
  EXPECT_TRUE(net.empty_for(4));
}

TEST(SimNetwork, PerChannelFifoWithInterleavedSources) {
  // Two sources interleave sends to one destination with different payload
  // sizes (hence different latencies). Global pop order may interleave, but
  // within each (src, dst) channel the injection order must be preserved.
  SimNetwork net(3, CostModel::workstation());
  int tag = 0;
  for (int round = 0; round < 8; ++round) {
    for (NodeId src : {NodeId{0}, NodeId{1}}) {
      Message m = mk(src, 2, tag++);
      if (round % 3 == 0) m.args = std::vector<Value>(64, Value{1});  // occasional long message
      net.inject(std::move(m), static_cast<std::uint64_t>(round * 10));
    }
  }
  int last_from_0 = -1, last_from_1 = -1;
  while (!net.empty_for(2)) {
    const Message m = net.pop_for(2);
    int& last = m.src == 0 ? last_from_0 : last_from_1;
    EXPECT_LT(last, static_cast<int>(m.method)) << "FIFO violated on channel from " << m.src;
    last = static_cast<int>(m.method);
  }
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, PopMovesPayloadIntact) {
  // pop_for moves the message out of its channel's ring (no copy); the
  // payload must arrive complete after sharing the ring with another message.
  SimNetwork net(2, CostModel::workstation());
  Message big = mk(0, 1, 7);
  std::vector<Value> vals;
  for (int i = 0; i < 100; ++i) vals.push_back(Value{i});
  big.args = std::move(vals);
  net.inject(mk(0, 1, 6), 0);  // a second message ahead of it on the channel
  net.inject(std::move(big), 0);
  ASSERT_EQ(net.pop_for(1).method, 6u);
  const Message got = net.pop_for(1);
  ASSERT_EQ(got.method, 7u);
  ASSERT_EQ(got.args.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got.args[static_cast<std::size_t>(i)].as_i64(), i);
}

TEST(SimNetwork, InFlightCountsAllDestinations) {
  SimNetwork net(4, CostModel::workstation());
  net.inject(mk(0, 1, 1), 0);
  net.inject(mk(0, 2, 2), 0);
  net.inject(mk(3, 2, 3), 0);
  EXPECT_EQ(net.in_flight(), 3u);
  net.pop_for(1);
  EXPECT_EQ(net.in_flight(), 2u);
}

TEST(SimNetwork, RejectsBadNodes) {
  SimNetwork net(2, CostModel::workstation());
  EXPECT_THROW(net.inject(mk(0, 7, 1), 0), ProtocolError);
  EXPECT_THROW(net.pop_for(1), ProtocolError);
}

// ---------------------------------------------------------------------------
// Differential check against a brute-force model of the delivery order
// ---------------------------------------------------------------------------

/// The specification the network must reproduce exactly, kept as simple as
/// possible: every in-flight message sits in one unordered list per
/// destination, and each query scans it.
/// - A strict pop takes the destination's smallest (deliver_at, seq) message.
/// - A shuffled pop lists each source's earliest message, in source order,
///   keeps those with deliver_at within the horizon, and takes the one the
///   shuffle generator draws.
class ReferenceNetwork {
 public:
  struct Sent {
    NodeId src = kInvalidNode;
    std::uint64_t seq = 0;
    std::uint64_t deliver_at = 0;
    MethodId tag = kInvalidMethod;
  };

  ReferenceNetwork(std::size_t nodes, const CostModel& costs, std::uint64_t shuffle_seed)
      : costs_(costs), nodes_(nodes), queues_(nodes), last_(nodes * nodes, 0),
        rng_(shuffle_seed) {}

  void inject(NodeId src, NodeId dst, std::uint32_t bytes, MethodId tag,
              std::uint64_t sender_clock) {
    std::uint64_t at =
        sender_clock + costs_.wire_latency + costs_.per_packet * costs_.packets(bytes);
    std::uint64_t& last = last_[src * nodes_ + dst];
    clamped_ += at < last ? 1 : 0;
    at = std::max(at, last);
    last = at;
    queues_[dst].push_back(Sent{src, next_seq_++, at, tag});
  }

  std::uint64_t earliest_for(NodeId dst) const {
    std::uint64_t t = UINT64_MAX;
    for (const Sent& s : queues_[dst]) t = std::min(t, s.deliver_at);
    return t;
  }
  bool empty_for(NodeId dst) const { return queues_[dst].empty(); }
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
  }
  /// Injects whose deliver_at the FIFO clamp moved.
  std::size_t clamped() const { return clamped_; }
  /// Strict pops decided by seq among several earliest messages.
  std::size_t seq_ties() const { return seq_ties_; }

  Sent pop_for(NodeId dst) {
    const auto& q = queues_[dst];
    std::size_t best = 0;
    for (std::size_t i = 1; i < q.size(); ++i) {
      if (earlier(q[i], q[best])) best = i;
    }
    const auto tied = std::count_if(q.begin(), q.end(), [&](const Sent& s) {
      return s.deliver_at == q[best].deliver_at;
    });
    seq_ties_ += tied > 1 ? 1 : 0;
    return take(dst, best);
  }

  Sent pop_for_shuffled(NodeId dst, std::uint64_t horizon) {
    const auto& q = queues_[dst];
    constexpr std::size_t kNone = SIZE_MAX;
    std::vector<std::size_t> head(nodes_, kNone);
    for (std::size_t i = 0; i < q.size(); ++i) {
      std::size_t& h = head[q[i].src];
      if (h == kNone || earlier(q[i], q[h])) h = i;
    }
    std::vector<std::size_t> eligible;
    for (const std::size_t h : head) {
      if (h != kNone && q[h].deliver_at <= horizon) eligible.push_back(h);
    }
    return take(dst, eligible[rng_.uniform(eligible.size())]);
  }

 private:
  static bool earlier(const Sent& a, const Sent& b) {
    return a.deliver_at != b.deliver_at ? a.deliver_at < b.deliver_at : a.seq < b.seq;
  }
  Sent take(NodeId dst, std::size_t i) {
    auto& q = queues_[dst];
    const Sent s = q[i];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
    return s;
  }

  CostModel costs_;
  std::size_t nodes_;
  std::vector<std::vector<Sent>> queues_;
  std::vector<std::uint64_t> last_;
  std::uint64_t next_seq_ = 0;
  SplitMix64 rng_;
  std::size_t clamped_ = 0;
  std::size_t seq_ties_ = 0;
};

struct DiffCase {
  std::size_t nodes;
  std::uint64_t shuffle_seed;  ///< 0: strict pops only.
};

class NetworkVsReference : public ::testing::TestWithParam<DiffCase> {};

TEST_P(NetworkVsReference, SameDeliveriesAfterEveryOperation) {
  const DiffCase c = GetParam();
  const CostModel costs = CostModel::workstation();
  SimNetwork net(c.nodes, costs);
  if (c.shuffle_seed != 0) net.set_shuffle(c.shuffle_seed);
  ReferenceNetwork ref(c.nodes, costs, c.shuffle_seed);
  SplitMix64 ops(1000 * c.nodes + c.shuffle_seed);

  // Half the endpoints come from three hot nodes: deep channels (ring growth
  // and wrap-around), self-sends, and several sources per destination. The
  // rest spread over every channel.
  const auto pick_node = [&] {
    const std::size_t range = ops.chance(0.5) ? std::min<std::size_t>(c.nodes, 3) : c.nodes;
    return static_cast<NodeId>(ops.uniform(range));
  };
  const auto state_matches = [&](int op) {
    ASSERT_EQ(net.in_flight(), ref.in_flight()) << "after op " << op;
    for (NodeId d = 0; d < c.nodes; ++d) {
      ASSERT_EQ(net.empty_for(d), ref.empty_for(d)) << "node " << d << " after op " << op;
      ASSERT_EQ(net.earliest_for(d), ref.earliest_for(d)) << "node " << d << " after op " << op;
    }
  };

  constexpr int kOps = 6000;
  std::uint64_t now = 0;
  MethodId next_tag = 0;
  std::size_t shuffled_pops = 0;
  for (int op = 0; op < kOps || ref.in_flight() != 0; ++op) {
    // Inject-heavy and pop-heavy stretches alternate, so queues grow deep and
    // drain again; after kOps the rest is drained.
    const bool filling = (op / 256) % 2 == 0;
    if (op < kOps && ops.chance(filling ? 0.75 : 0.35)) {
      const NodeId src = pick_node();
      const NodeId dst = pick_node();
      Message m = mk(src, dst, static_cast<int>(next_tag));
      // Now and then a long message: it arrives late, so the short messages
      // sent right behind it on its channel are clamped to its deliver_at.
      if (ops.chance(0.1)) m.args = std::vector<Value>(8 + ops.uniform(200), Value{1});
      // Sender clocks on a coarse grid make equal deliver_at values common.
      now += 10 * ops.uniform(3);
      const std::uint64_t sent_at = now + 10 * ops.uniform(4);
      ref.inject(src, dst, m.size_bytes(), next_tag, sent_at);
      net.inject(std::move(m), sent_at);
      ++next_tag;
    } else if (ref.in_flight() != 0) {
      NodeId dst = pick_node();
      while (ref.empty_for(dst)) dst = static_cast<NodeId>((dst + 1) % c.nodes);
      // Shuffled runs also take strict pops. A shuffled pop's horizon is at
      // least the earliest deliver_at, as the engine's always is.
      const bool shuffle = c.shuffle_seed != 0 && ops.chance(0.8);
      const std::uint64_t horizon = ref.earliest_for(dst) + 10 * ops.uniform(40);
      const ReferenceNetwork::Sent want =
          shuffle ? ref.pop_for_shuffled(dst, horizon) : ref.pop_for(dst);
      const Message got = shuffle ? net.pop_for_shuffled(dst, horizon) : net.pop_for(dst);
      shuffled_pops += shuffle ? 1 : 0;
      ASSERT_EQ(got.method, want.tag) << "pop for node " << dst << " at op " << op;
      ASSERT_EQ(got.src, want.src) << "op " << op;
      ASSERT_EQ(got.dst, dst) << "op " << op;
      ASSERT_EQ(got.seq, want.seq) << "op " << op;
      ASSERT_EQ(got.deliver_at, want.deliver_at) << "op " << op;
    }
    state_matches(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The run exercised what it is meant to: many messages, FIFO clamps, seq
  // tie-breaks, and (seeded) mostly shuffled pops.
  EXPECT_GT(next_tag, static_cast<MethodId>(kOps / 3));
  EXPECT_GT(ref.clamped(), 0u);
  EXPECT_GT(ref.seq_ties(), 0u);
  if (c.shuffle_seed != 0) {
    EXPECT_GT(shuffled_pops, static_cast<std::size_t>(kOps / 4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, NetworkVsReference,
    ::testing::Values(DiffCase{1, 0}, DiffCase{1, 5}, DiffCase{4, 0}, DiffCase{4, 7},
                      DiffCase{4, 42}, DiffCase{64, 0}, DiffCase{64, 9}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      const DiffCase& c = info.param;
      return "n" + std::to_string(c.nodes) +
             (c.shuffle_seed == 0 ? std::string("_strict")
                                  : "_seed" + std::to_string(c.shuffle_seed));
    });

TEST(MessageTest, SizeGrowsWithArgs) {
  Message a = mk(0, 1, 1);
  Message b = mk(0, 1, 1);
  b.args = std::vector<Value>(10, Value{1});
  EXPECT_GT(b.size_bytes(), a.size_bytes());
  EXPECT_EQ(b.size_bytes() - a.size_bytes(), 10 * Value::wire_size());
}

TEST(MessageTest, ReplyCarriesValue) {
  const Continuation k{ContextRef{1, 2, 3}, 4, false};
  const Message r = Message::reply(0, 1, k, Value{99});
  EXPECT_EQ(r.kind, MsgKind::Reply);
  EXPECT_EQ(r.reply_to, k);
  ASSERT_EQ(r.args.size(), 1u);
  EXPECT_EQ(r.args[0].as_i64(), 99);
}

}  // namespace
}  // namespace concert
