// The threaded engine's inbox. First the single-producer channel FIFO it is
// built from: order across segment boundaries, bounded drains, teardown, a
// concurrent producer, and allocation per segment rather than per element.
// Then Node's inbox over one channel per source: per-source order under
// several producers, the park/wake protocol, round-robin draining, and
// quiescence detection staying sound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
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

TEST(ChannelFifo, FifoAcrossSegmentBoundaries) {
  for (const std::size_t n : {kSeg - 1, kSeg, kSeg + 1, 3 * kSeg + 5}) {
    ChannelFifo<int> ch;
    EXPECT_TRUE(ch.empty());
    // Several rounds on one channel, so later rounds run in recycled segments.
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < n; ++i) ch.push(static_cast<int>(i));
      EXPECT_FALSE(ch.empty());
      int v = -1;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(ch.pop(v)) << "n=" << n << " round " << round;
        EXPECT_EQ(v, static_cast<int>(i)) << "n=" << n << " round " << round;
      }
      EXPECT_FALSE(ch.pop(v));
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
  for (std::size_t i = 0; i <= kSeg; ++i) ASSERT_TRUE(ch.pop(v));
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
  const std::size_t steady = allocations_in([&ch, &m] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      ch.push(Message{});
      ASSERT_TRUE(ch.pop(m));
    }
  });
  EXPECT_LE(steady, 1u);
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
  EXPECT_TRUE(nd.pop_inbox(msg));
  EXPECT_FALSE(nd.pop_inbox(msg));
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
  ASSERT_TRUE(nd.pop_inbox(msg));
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
  EXPECT_TRUE(nd.pop_inbox(msg));
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
