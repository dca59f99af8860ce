// Lock-free multi-producer / single-consumer queue (Vyukov's node-based
// MPSC). No longer the runtime's inbox: a node's inbox is one ChannelFifo
// per source node (channel_fifo.hpp), and no runtime code uses this queue.
// It is kept for bench/hem's machine.mpsc_handoff_ns probe, which times it,
// and for its own tests (test_mpsc_inbox). The notes below describe it as
// the inbox it was.
//
// Producers (any node thread routing a message here) push with one atomic
// exchange and one release store — no lock, no CAS loop, no waiting on other
// producers. The single consumer (the owning node's thread) pops from the
// other end without any atomic RMW at all. The queue is unbounded; each
// element lives in its own heap node, which matches the previous
// deque-under-mutex cost while removing the lock round trip per message.
//
// Progress fine print: between a producer's exchange on `head_` and its
// release store to `prev->next`, the pushed element (and any elements pushed
// after it) is momentarily invisible to the consumer — pop() reports empty.
// This is harmless here: the sender counts every message's work credit
// before pushing it, and the receiver retires it only after delivery, so
// quiescence cannot be declared around the blink; the consumer simply
// re-polls (or parks with a timeout) until the store lands.
//
// Node storage is recycled through a per-thread block cache rather than
// malloc/free per element: a node is allocated on the producer's thread but
// freed on the consumer's, exactly the cross-thread pattern that defeats the
// allocator's thread caches. Each thread instead keeps a small LIFO of raw
// node-sized blocks (shared across all queues with the same element type);
// in message-passing workloads every node thread both produces and consumes,
// so the caches self-balance, and a hard cap bounds them when traffic is
// one-sided.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <new>
#include <utility>

namespace concert {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    QNode* stub = new (alloc_block()) QNode();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    // Single-threaded by the time we destruct: free consumed dummy + leftovers.
    QNode* n = tail_;
    while (n != nullptr) {
      QNode* next = n->next.load(std::memory_order_relaxed);
      n->~QNode();
      ::operator delete(n);
      n = next;
    }
  }

  /// Multi-producer push: wait-free except for the (cached) allocator. The
  /// only producer-side atomic RMW is the exchange on `head_` — there is no
  /// shared size counter to bounce a second cache line between threads.
  void push(T v) {
    QNode* n = new (alloc_block()) QNode(std::move(v));
    QNode* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  /// Single-consumer pop. Returns false when empty (or when the head element
  /// is mid-push and not yet linked — see header comment).
  bool pop(T& out) {
    QNode* tail = tail_;
    QNode* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    out = std::move(next->value);
    tail_ = next;
    tail->~QNode();
    release_block(tail);
    return true;
  }

  /// Single-consumer batched drain: pops up to `max` elements into `out`
  /// (appended), moving each element exactly once (node -> *out). Returns
  /// the number popped.
  template <typename OutIt>
  std::size_t drain(OutIt out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
      QNode* tail = tail_;
      QNode* next = tail->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      *out++ = std::move(next->value);
      tail_ = next;
      tail->~QNode();
      release_block(tail);
      ++n;
    }
    return n;
  }

  /// Consumer-side emptiness probe: true when nothing is linked for popping.
  bool consumer_empty() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  struct QNode {
    QNode() = default;
    explicit QNode(T&& v) : value(std::move(v)) {}
    std::atomic<QNode*> next{nullptr};
    T value{};
  };

  /// Per-thread LIFO of raw node-sized blocks (freed blocks link through
  /// their first word). Capped so one-sided flows cannot hoard memory.
  ///
  /// Node threads are created fresh for every run_until_quiescent, so a
  /// purely thread_local cache would be built from malloc each run and
  /// thrown away at thread exit. Instead a dying thread donates its chain to
  /// a process-wide overflow pool, and a cold thread refills from it in one
  /// batched grab. Blocks arrive only at thread death, so mid-run the pool
  /// is almost always empty; an empty cache checks the pool's atomic count
  /// first and takes the mutex only when there are blocks to take.
  struct BlockCache {
    static constexpr std::size_t kMax = 1024;
    void* head = nullptr;
    std::size_t count = 0;

    ~BlockCache() { global_pool().donate(head, count); }
  };

  /// Mutex-guarded chain of donated blocks, shared by all queues of this
  /// element type. Bounded: donations beyond the cap are freed for real.
  /// `count` is written only under the mutex; refill() reads it unlocked to
  /// skip the lock when the chain is empty.
  struct GlobalBlockPool {
    static constexpr std::size_t kMax = 8192;
    std::mutex mu;
    void* head = nullptr;
    std::atomic<std::size_t> count{0};

    void donate(void* chain, std::size_t n) {
      if (chain == nullptr) return;
      std::scoped_lock lk(mu);
      std::size_t have = count.load(std::memory_order_relaxed);
      while (chain != nullptr && have < kMax) {
        void* next = *static_cast<void**>(chain);
        *static_cast<void**>(chain) = head;
        head = chain;
        ++have;
        chain = next;
      }
      count.store(have, std::memory_order_relaxed);
      while (chain != nullptr) {
        void* next = *static_cast<void**>(chain);
        ::operator delete(chain);
        chain = next;
      }
      (void)n;
    }

    /// Moves up to `max` blocks into `cache_head`, returning how many moved.
    /// A stale nonzero count only costs a lock that finds nothing; a stale
    /// zero sends this refill to the allocator, as an empty pool would.
    std::size_t refill(void*& cache_head, std::size_t max) {
      if (count.load(std::memory_order_relaxed) == 0) return 0;
      std::scoped_lock lk(mu);
      std::size_t moved = 0;
      while (head != nullptr && moved < max) {
        void* b = head;
        head = *static_cast<void**>(b);
        *static_cast<void**>(b) = cache_head;
        cache_head = b;
        ++moved;
      }
      count.store(count.load(std::memory_order_relaxed) - moved, std::memory_order_relaxed);
      return moved;
    }

    ~GlobalBlockPool() {
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
    }
  };

  static GlobalBlockPool& global_pool() {
    static GlobalBlockPool pool;
    return pool;
  }

  static BlockCache& block_cache() {
    thread_local BlockCache cache;
    return cache;
  }

  static void* alloc_block() {
    // Construct (and so register) the global pool before this thread's cache:
    // destructors run in reverse, and the cache's dtor donates into the pool.
    GlobalBlockPool& pool = global_pool();
    BlockCache& c = block_cache();
    if (c.head == nullptr) c.count = pool.refill(c.head, 64);
    if (c.head != nullptr) {
      void* b = c.head;
      c.head = *static_cast<void**>(b);
      --c.count;
      return b;
    }
    return ::operator new(sizeof(QNode));
  }

  static void release_block(void* b) {
    BlockCache& c = block_cache();
    if (c.count >= BlockCache::kMax) {
      ::operator delete(b);
      return;
    }
    *static_cast<void**>(b) = c.head;
    c.head = b;
    ++c.count;
  }

  // Each end on its own cache line: producers' exchanges on head_ must not
  // invalidate the line holding tail_, or whatever fields of the enclosing
  // Node happen to share it, on every push. It also makes Node 64-byte
  // aligned, so which of its fields share a line no longer depends on where
  // the allocator placed it.
  alignas(64) std::atomic<QNode*> head_;  ///< Push end (producers exchange onto it).
  alignas(64) QNode* tail_;               ///< Pop end: a consumed dummy node (consumer only).
};

}  // namespace concert
