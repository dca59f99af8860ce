// The lock-free MPSC inbox: FIFO-per-producer under contention, batched
// draining, the park/wake protocol, and (the property everything else leans
// on) quiescence detection staying sound around the queue's mid-push
// invisibility window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "machine/mpsc_queue.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

TEST(MpscQueue, FifoSingleThread) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.consumer_empty());
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_FALSE(q.consumer_empty());
  int v = -1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.pop(v));
  EXPECT_TRUE(q.consumer_empty());
}

TEST(MpscQueue, DrainRespectsMaxAndAppends) {
  MpscQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.drain(std::back_inserter(out), 4), 4u);
  EXPECT_EQ(q.drain(std::back_inserter(out), 100), 6u);
  EXPECT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.drain(std::back_inserter(out), 100), 0u);
}

TEST(MpscQueue, DestructorFreesUnconsumedElements) {
  // Covered by LSan in sanitizer builds: destruct with elements still queued.
  MpscQueue<std::vector<int>> q;
  for (int i = 0; i < 16; ++i) q.push(std::vector<int>(64, i));
  std::vector<int> v;
  ASSERT_TRUE(q.pop(v));
}

TEST(MpscQueue, MultiProducerFifoPerProducer) {
  // N producers push tagged sequences while the consumer concurrently drains;
  // the global interleaving is arbitrary, but each producer's elements must
  // come out in its own push order (the channel-FIFO property the runtime's
  // message ordering relies on).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpscQueue<std::pair<int, int>> q;
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &go, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) q.push({p, i});
    });
  }
  go.store(true, std::memory_order_release);

  std::vector<int> next_seq(kProducers, 0);
  int received = 0;
  std::pair<int, int> e;
  while (received < kProducers * kPerProducer) {
    if (!q.pop(e)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_GE(e.first, 0);
    ASSERT_LT(e.first, kProducers);
    EXPECT_EQ(e.second, next_seq[e.first]) << "producer " << e.first << " reordered";
    ++next_seq[e.first];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(q.consumer_empty());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

/// An element type only this test uses, so its queue instantiation has a
/// block pool of its own. Each construction records its address: a move
/// lands in a queue node (push), a default construction is a queue's dummy
/// node or a temporary.
struct Placed {
  static thread_local std::vector<const void*> moved, built;
  Placed() { built.push_back(this); }
  Placed(Placed&&) noexcept { moved.push_back(this); }
  Placed& operator=(Placed&&) noexcept { return *this; }
};
thread_local std::vector<const void*> Placed::moved, Placed::built;

TEST(MpscQueue, PoolRefillTakesBlocksADyingThreadDonated) {
  // Thread A pushes and pops a few elements, so its block cache holds the
  // consumed nodes, and donates them to the process-wide pool as it exits.
  // The last pushed node stays linked as the dummy and is freed for real.
  std::vector<const void*> donated;
  std::thread a([&donated] {
    MpscQueue<Placed> q;
    for (int i = 0; i < 8; ++i) q.push(Placed{});
    Placed out;
    while (q.pop(out)) {
    }
    donated = Placed::moved;
    donated.pop_back();
  });
  a.join();
  // Thread B starts with an empty cache, so its first allocations refill
  // from the pool: every block A donated must come back to B, since the
  // allocator cannot hand out a block the pool still holds.
  std::vector<const void*> reused;
  std::thread b([&reused] {
    MpscQueue<Placed> q;
    for (int i = 0; i < 1024; ++i) q.push(Placed{});
    reused = Placed::moved;
    reused.insert(reused.end(), Placed::built.begin(), Placed::built.end());
  });
  b.join();
  ASSERT_EQ(donated.size(), 7u);
  std::sort(reused.begin(), reused.end());
  for (const void* p : donated) {
    EXPECT_TRUE(std::binary_search(reused.begin(), reused.end(), p)) << p;
  }
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
  // Regression for the work-credit + MPSC interaction: a message that
  // is pushed but momentarily invisible to the consumer must not let the
  // machine quiesce. Message-heavy distributed runs, repeated: any lost or
  // prematurely-declared-done message shows up as a wrong result, leaked
  // contexts, or a send/receive mismatch.
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
