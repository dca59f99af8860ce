// The threaded engine's inbox. First the single-producer channel FIFO it is
// built from: order across segment boundaries, bounded drains, teardown, a
// concurrent producer, allocation per segment rather than per element, and
// its publish contract (a deferred write is invisible until published, a
// full segment publishes itself, an in-place consume recycles a segment only
// after its callback returns, a self-push during a consume queues behind
// it). Then Node's inbox over one channel per source: per-source order under
// several producers, the park/wake protocol, round-robin draining, sends
// deferred to the end of a loop turn, and quiescence detection staying
// sound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "machine/channel_fifo.hpp"
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
constexpr std::size_t kSeg = ChannelFifo<int>::kSeg;

/// Heap allocations `body` makes on this thread.
template <typename Body>
std::size_t allocations_in(Body&& body) {
  t_allocs = 0;
  t_counting = true;
  body();
  t_counting = false;
  return t_allocs;
}

/// Moves the oldest published element into `out` through a drain of one;
/// false when nothing is published. `buf` is the drain's scratch, so a warm
/// buffer makes the call allocate nothing.
template <typename T>
bool drain_one(ChannelFifo<T>& ch, std::vector<T>& buf, T& out) {
  buf.clear();
  if (ch.drain(buf, 1) == 0) return false;
  out = std::move(buf.front());
  return true;
}

/// The same through Node::drain_inbox.
bool drain_one(Node& nd, Message& out) {
  std::vector<Message> buf;
  if (nd.drain_inbox(buf, 1) == 0) return false;
  out = std::move(buf.front());
  return true;
}

TEST(ChannelFifo, FifoAcrossSegmentBoundaries) {
  for (const std::size_t n : {kSeg - 1, kSeg, kSeg + 1, 3 * kSeg + 5}) {
    ChannelFifo<int> ch;
    EXPECT_TRUE(ch.empty());
    // Several rounds on one channel, so later rounds run in recycled segments.
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < n; ++i) ch.push(static_cast<int>(i));
      EXPECT_FALSE(ch.empty());
      int v = -1;
      std::vector<int> buf;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(drain_one(ch, buf, v)) << "n=" << n << " round " << round;
        EXPECT_EQ(v, static_cast<int>(i)) << "n=" << n << " round " << round;
      }
      EXPECT_FALSE(drain_one(ch, buf, v));
      EXPECT_TRUE(ch.empty());
    }
  }
}

TEST(ChannelFifo, DrainRespectsMaxAndAppends) {
  ChannelFifo<int> ch;
  const int n = static_cast<int>(kSeg) + 10;
  for (int i = 0; i < n; ++i) ch.push(int{i});
  std::vector<int> out{-1};
  EXPECT_EQ(ch.drain(out, 4), 4u);
  EXPECT_EQ(ch.drain(out, 1000), static_cast<std::size_t>(n - 4));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n + 1));
  EXPECT_EQ(out[0], -1);
  for (int i = 0; i < n; ++i) EXPECT_EQ(out[i + 1], i);
  EXPECT_EQ(ch.drain(out, 1000), 0u);
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelFifo, DestructorFreesQueuedElements) {
  // Covered by LSan in sanitizer builds: the consumer has left one segment
  // (now the spare) and the channel is destroyed with two more still queued.
  ChannelFifo<std::vector<int>> ch;
  for (std::size_t i = 0; i < 2 * kSeg + 3; ++i) ch.push(std::vector<int>(64, static_cast<int>(i)));
  std::vector<int> v;
  std::vector<std::vector<int>> buf;
  for (std::size_t i = 0; i <= kSeg; ++i) ASSERT_TRUE(drain_one(ch, buf, v));
  EXPECT_EQ(v.front(), static_cast<int>(kSeg));
}

TEST(ChannelFifo, ConcurrentProducerKeepsOrder) {
  // One producer thread against a consumer draining in odd-sized batches, so
  // drains end mid-segment and segments are recycled while the producer runs.
  constexpr int kCount = 100'000;
  ChannelFifo<int> ch;
  std::atomic<bool> go{false};
  std::thread producer([&ch, &go] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kCount; ++i) ch.push(int{i});
  });
  go.store(true, std::memory_order_release);
  std::vector<int> out;
  int next = 0;
  bool ordered = true;
  while (next < kCount) {
    out.clear();
    if (ch.drain(out, 7) == 0) std::this_thread::yield();
    for (const int v : out) ordered = ordered && v == next++;
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelFifo, AllocatesPerSegmentNotPerElement) {
  constexpr std::size_t kBurst = 10'000;
  ChannelFifo<Message> ch;
  const std::size_t burst = allocations_in([&ch] {
    for (std::size_t i = 0; i < kBurst; ++i) ch.push(Message{});
  });
  EXPECT_LE(burst, (kBurst + kSeg - 1) / kSeg + 1);
  std::vector<Message> out;
  out.reserve(kBurst);
  EXPECT_EQ(ch.drain(out, kBurst), kBurst);
  // Steady traffic cycles the segment being filled and the spare.
  Message m;
  std::vector<Message> buf;
  buf.reserve(1);
  const std::size_t steady = allocations_in([&ch, &m, &buf] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      ch.push(Message{});
      ASSERT_TRUE(drain_one(ch, buf, m));
    }
  });
  EXPECT_LE(steady, 1u);
}

TEST(ChannelFifo, QuantumBurstsAllocateOnlyInTheFirstRound) {
  // A threaded node's ready quantum runs up to 32 context slices before its
  // receiver consumes, so one channel takes a burst of several segments at
  // a time. The consumer hands every segment it leaves back to the spare
  // ring, so from the second burst on the producer writes into spares only.
  constexpr std::size_t kSlices = 32;
  constexpr std::size_t kBurst = kSlices * 3 + 4;  // three sends a slice, plus a few
  static_assert(kBurst > 3 * kSeg && kBurst <= ChannelFifo<Message>::kSpares * kSeg);
  ChannelFifo<Message> ch;
  std::vector<Message> out;
  out.reserve(kBurst);
  for (int round = 0; round < 6; ++round) {
    const std::size_t allocs = allocations_in([&ch] {
      for (std::size_t i = 0; i < kBurst; ++i) ch.write(Message{});
      ch.publish();
    });
    if (round == 0) {
      EXPECT_EQ(allocs, (kBurst + kSeg - 1) / kSeg);
    } else {
      EXPECT_EQ(allocs, 0u) << "round " << round;
    }
    out.clear();
    ASSERT_EQ(ch.drain(out, kBurst), kBurst);
  }
  EXPECT_TRUE(ch.empty());
}

/// An element that logs its value when destroyed (moved-from ones log
/// nothing), so a test can see when a consume destroys what it handed out.
std::vector<int> g_destroyed;
struct Logged {
  explicit Logged(int v) : value(v) {}
  Logged(Logged&& o) noexcept : value(o.value) { o.value = -1; }
  Logged& operator=(Logged&&) = delete;
  ~Logged() {
    if (value >= 0) g_destroyed.push_back(value);
  }
  int value;
};

TEST(ChannelFifo, DeferredWriteStaysInvisibleUntilPublish) {
  ChannelFifo<int> ch;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ch.write(int{i}), static_cast<std::size_t>(i + 1));
  EXPECT_TRUE(ch.empty());
  std::vector<int> out;
  EXPECT_EQ(ch.drain(out, 100), 0u);
  EXPECT_TRUE(ch.publish());
  EXPECT_FALSE(ch.publish());  // nothing new
  EXPECT_FALSE(ch.empty());
  ASSERT_EQ(ch.drain(out, 100), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelFifo, FullSegmentPublishesItself) {
  ChannelFifo<int> ch;
  for (std::size_t i = 0; i + 1 < kSeg; ++i) EXPECT_EQ(ch.write(static_cast<int>(i)), i + 1);
  EXPECT_TRUE(ch.empty());
  // The write that fills the segment publishes all of it, no publish() call.
  EXPECT_EQ(ch.write(static_cast<int>(kSeg - 1)), 0u);
  EXPECT_FALSE(ch.empty());
  EXPECT_EQ(ch.write(static_cast<int>(kSeg)), 1u);  // the next segment's first: unpublished
  std::vector<int> out;
  ASSERT_EQ(ch.drain(out, 1000), kSeg);
  for (std::size_t i = 0; i < kSeg; ++i) EXPECT_EQ(out[i], static_cast<int>(i));
  EXPECT_TRUE(ch.empty());
  EXPECT_TRUE(ch.publish());
  out.clear();
  ASSERT_EQ(ch.drain(out, 1000), 1u);
  EXPECT_EQ(out.front(), static_cast<int>(kSeg));
}

TEST(ChannelFifo, ConsumeInPlaceCrossesSegments) {
  ChannelFifo<int> ch;
  const std::size_t n = 2 * kSeg + 5;
  for (std::size_t i = 0; i < n; ++i) ch.push(static_cast<int>(i));
  std::vector<std::size_t> runs;
  std::vector<int> seen;
  EXPECT_EQ(ch.consume(1000, [&](std::span<int> run) {
    runs.push_back(run.size());
    seen.insert(seen.end(), run.begin(), run.end());
  }), n);
  EXPECT_EQ(runs, (std::vector<std::size_t>{kSeg, kSeg, 5}));
  ASSERT_EQ(seen.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], static_cast<int>(i));
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelFifo, ConsumeRecyclesSegmentOnlyAfterItsCallback) {
  g_destroyed.clear();
  ChannelFifo<Logged> ch;
  for (std::size_t i = 0; i < kSeg; ++i) ch.push(Logged(static_cast<int>(i)));  // one full segment
  std::size_t during = 0;
  bool intact = true;
  ASSERT_EQ(ch.consume(1000, [&](std::span<Logged> run) {
    EXPECT_TRUE(g_destroyed.empty());  // nothing destroyed under the callback
    // The producer must not get this segment back while it is being read:
    // its next write needs a fresh segment.
    during = allocations_in([&ch] { ch.push(Logged(1000)); });
    for (std::size_t i = 0; i < run.size(); ++i) {
      intact = intact && run[i].value == static_cast<int>(i);
    }
  }), kSeg);
  EXPECT_EQ(during, 1u);
  EXPECT_TRUE(intact);
  EXPECT_EQ(g_destroyed.size(), kSeg);  // the run, once its callback returned
  // Moving on to the next segment hands the first one back, so a producer
  // that fills the second continues in it without allocating.
  std::vector<Logged> out;
  out.reserve(1);
  ASSERT_EQ(ch.drain(out, 1), 1u);
  EXPECT_EQ(out.front().value, 1000);
  const std::size_t refill = allocations_in([&ch] {
    for (std::size_t i = 0; i < kSeg; ++i) ch.push(Logged(static_cast<int>(i)));
  });
  EXPECT_EQ(refill, 0u);
}

TEST(ChannelFifo, SelfPushDuringConsumeLandsAfterTheConsumedSpan) {
  // One thread as producer and consumer, like a node sending to itself while
  // it delivers: what the callback pushes is not part of this consume, and
  // comes out of the next one after everything older.
  ChannelFifo<int> ch;
  for (int i = 0; i < 5; ++i) ch.push(int{i});
  std::vector<int> seen;
  EXPECT_EQ(ch.consume(1000, [&](std::span<int> run) {
    for (const int v : run) {
      seen.push_back(v);
      ch.push(100 + v);
    }
  }), 5u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  std::vector<int> out;
  ASSERT_EQ(ch.drain(out, 1000), 5u);
  EXPECT_EQ(out, (std::vector<int>{100, 101, 102, 103, 104}));
}

TEST(ThreadedInbox, PushBurstAllocatesOnlySegments) {
  // The guard against per-message allocation in the inbox: a burst into one
  // channel allocates one segment per kSeg messages and nothing else.
  constexpr std::size_t kBurst = 10'000;
  ThreadedMachine m(2, test_config());
  m.registry().finalize();
  Node& nd = m.node(1);
  const std::size_t allocs = allocations_in([&nd] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      Message msg;
      msg.kind = MsgKind::Reply;
      msg.src = 0;
      msg.dst = 1;
      nd.push_inbox(std::move(msg));
    }
  });
  EXPECT_LE(allocs, (kBurst + kSeg - 1) / kSeg + 1);
  std::vector<Message> out;
  out.reserve(kBurst);
  EXPECT_EQ(nd.drain_inbox(out, kBurst), kBurst);
  EXPECT_TRUE(nd.inbox_empty());
}

TEST(ThreadedInbox, ThreeProducersKeepPerSourceOrder) {
  // Sources 1-3 each push tagged messages into node 0 while its owner (this
  // thread) drains: nothing is lost and each source's order holds; the
  // interleaving across sources is arbitrary.
  constexpr int kPerSource = 10'000;
  ThreadedMachine m(4, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (NodeId src = 1; src <= 3; ++src) {
    producers.emplace_back([&nd, &go, src] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerSource; ++i) {
        nd.push_inbox(Message::reply(src, 0, Continuation{}, Value(std::int64_t{i})));
      }
    });
  }
  go.store(true, std::memory_order_release);
  std::vector<std::int64_t> next(4, 0);
  std::vector<Message> batch;
  int received = 0;
  bool ordered = true;
  while (received < 3 * kPerSource) {
    batch.clear();
    if (nd.drain_inbox(batch, 128) == 0) std::this_thread::yield();
    for (const Message& msg : batch) {
      const NodeId src = msg.src >= 1 && msg.src <= 3 ? msg.src : 0;
      ordered = ordered && src != 0 && msg.args.at(0).as_i64() == next[src];
      ++next[src];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(nd.inbox_empty());
  for (NodeId src = 1; src <= 3; ++src) EXPECT_EQ(next[src], kPerSource);
}

TEST(ThreadedInbox, SmallDrainStarvesNoChannel) {
  // Channel 0 never runs dry, yet a drain of one message at a time reaches
  // channel 2 within one pass over the channels.
  ThreadedMachine m(3, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  for (int i = 0; i < 50; ++i) nd.push_inbox(Message::reply(0, 0, Continuation{}, Value(0)));
  nd.push_inbox(Message::reply(2, 0, Continuation{}, Value(2)));
  std::vector<Message> out;
  bool reached = false;
  for (std::size_t call = 0; call < m.node_count() && !reached; ++call) {
    nd.push_inbox(Message::reply(0, 0, Continuation{}, Value(0)));
    out.clear();
    ASSERT_EQ(nd.drain_inbox(out, 1), 1u);
    reached = out.front().src == 2;
  }
  EXPECT_TRUE(reached);
}

TEST(ThreadedInbox, ParkTimesOutWhenEmpty) {
  ThreadedMachine m(1, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  const auto parks_before = nd.stats.inbox_parks;
  nd.park_inbox(std::chrono::microseconds(500));  // empty inbox: must return
  EXPECT_EQ(nd.stats.inbox_parks, parks_before + 1);
}

TEST(ThreadedInbox, PushWakesParkedConsumer) {
  ThreadedMachine m(1, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  std::thread producer([&nd] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    nd.push_inbox(Message::reply(0, 0, Continuation{}, Value(7)));
  });
  // Generous timeout: the wake, not its expiry, must end the park.
  const auto t0 = std::chrono::steady_clock::now();
  while (nd.inbox_empty()) {
    nd.park_inbox(std::chrono::microseconds(2'000'000));
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  producer.join();
  EXPECT_LT(waited, std::chrono::seconds(1));
  Message msg;
  EXPECT_TRUE(drain_one(nd, msg));
  EXPECT_FALSE(drain_one(nd, msg));
}

TEST(ThreadedInbox, PushOnLaterChannelWakesParkedOwner) {
  ThreadedMachine m(3, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  std::thread producer([&nd] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    nd.push_inbox(Message::reply(2, 0, Continuation{}, Value(7)));
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (nd.inbox_empty()) {
    nd.park_inbox(std::chrono::microseconds(2'000'000));
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  producer.join();
  EXPECT_LT(waited, std::chrono::seconds(1));
  Message msg;
  ASSERT_TRUE(drain_one(nd, msg));
  EXPECT_EQ(msg.src, 2u);
  EXPECT_EQ(msg.args.at(0).as_i64(), 7);
}

TEST(ThreadedInbox, SkipsParkWhenMessagePending) {
  ThreadedMachine m(1, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  nd.push_inbox(Message::reply(0, 0, Continuation{}, Value(1)));
  const auto parks_before = nd.stats.inbox_parks;
  nd.park_inbox(std::chrono::microseconds(2'000'000));  // must return at once
  EXPECT_EQ(nd.stats.inbox_parks, parks_before);        // never actually waited
  Message msg;
  EXPECT_TRUE(drain_one(nd, msg));
}

TEST(ThreadedInbox, DeferredSelfSendsPublishAtTurnEnd) {
  // A node thread's sends during a delivery stay unpublished until the turn
  // ends (publish_sends), and then queue behind the batch just delivered.
  ThreadedMachine m(1, test_config());
  m.registry().finalize();
  Node& nd = m.node(0);
  for (int i = 0; i < 3; ++i) nd.push_inbox(Message::reply(0, 0, Continuation{}, Value(i)));
  nd.set_deferred_publish(true);
  std::vector<std::int64_t> seen;
  EXPECT_EQ(nd.consume_inbox(128, [&](std::span<Message> run) {
    for (const Message& msg : run) {
      seen.push_back(msg.args.at(0).as_i64());
      nd.post(nd, Message::reply(0, 0, Continuation{}, Value(10 + seen.back())));
    }
  }), 3u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_TRUE(nd.inbox_empty());
  nd.publish_sends();
  nd.set_deferred_publish(false);
  std::vector<Message> out;
  ASSERT_EQ(nd.drain_inbox(out, 128), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].args.at(0).as_i64(), static_cast<std::int64_t>(10 + i));
  }
}

TEST(ThreadedInbox, QuiescenceNotDeclaredEarly) {
  // Regression for the work-credit + inbox interaction: a message that is
  // pushed but not yet drained must keep the machine from quiescing, which
  // holds because route() counts its credit before the channel's release
  // store makes it visible. Message-heavy distributed runs, repeated: any
  // lost or prematurely-declared-done message shows up as a wrong result,
  // leaked contexts, or a send/receive mismatch.
  ThreadedMachine m(4, test_config(ExecMode::Hybrid3));
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  for (int round = 0; round < 8; ++round) {
    const GlobalRef arr = seqbench::make_qsort_array(m, round % 4, 128, 17 + round);
    const Value v = m.run_main((round + 1) % 4, ids.qsort, arr, {Value(0), Value(128)});
    ASSERT_GT(v.as_i64(), 0);
    const auto& vals = seqbench::array_values(m, arr);
    ASSERT_TRUE(std::is_sorted(vals.begin(), vals.end()));
    ASSERT_EQ(m.live_contexts(), 0u);
  }
  const NodeStats s = m.total_stats();
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
  EXPECT_GT(s.msgs_sent, 0u);
}

TEST(ThreadedInbox, ForwardingChainsSurviveBatchedDrain) {
  // chain forwards one continuation through every node repeatedly — each hop
  // is exactly one inbox message, so it exercises drain batching + the park
  // path (long chains leave nodes idle between their turns).
  ThreadedMachine m(3, test_config(ExecMode::Hybrid3));
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  for (int round = 0; round < 4; ++round) {
    ASSERT_EQ(m.run_main(round % 3, ids.chain, kNoObject, {Value(60)}).as_i64(), 42);
    ASSERT_EQ(m.live_contexts(), 0u);
  }
  const NodeStats s = m.total_stats();
  EXPECT_GT(s.inbox_batches, 0u);
  EXPECT_EQ(s.inbox_batched_msgs, s.msgs_received);
  EXPECT_GE(s.inbox_batch_max, 1u);
}

}  // namespace
}  // namespace concert
