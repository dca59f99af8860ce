// Per-node memory subsystem: ASan poisoning and payload buffer pools.
//
// The paper's central cost argument is that a heap context creation is ~130
// instructions against ~5 for a C call — a promise a general-purpose
// malloc/new on the hot path quietly breaks. The context arena
// (core/context.hpp) carves one block per activation out of large chunks and
// recycles it by id; this header supplies what it and the message layer
// share:
//
//   * arena_poison / arena_unpoison — manual AddressSanitizer poisoning, so
//                      a freed-but-retained block traps at the faulting load
//                      instead of corrupting the next activation.
//
//   * BufferPool<T>  — a recycler for std::vector<T> buffers: the node's
//                      spilled message payloads (more values than a
//                      message carries inline). Buffers keep their grown
//                      capacity across acquire/release cycles.
//
// A pool is a single-owner structure: each node owns one and touches it only
// from its own thread (acquire on the sending node, release into the
// *receiving* node's pool, so no locking; a node that sends more spills than
// it receives still misses and allocates).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

// ASan manual poisoning: no-ops unless the build is instrumented.
#if defined(__SANITIZE_ADDRESS__)
#define CONCERT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CONCERT_ASAN 1
#endif
#endif

#ifdef CONCERT_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace concert {

/// Poisons [p, p+n): any read/write traps under ASan. No-op otherwise.
inline void arena_poison(const void* p, std::size_t n) {
#ifdef CONCERT_ASAN
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

/// Re-arms [p, p+n) for normal use. Must be called before the memory is
/// handed back to code that reads it — including the allocator (poisoned
/// bytes must be unpoisoned before free).
inline void arena_unpoison(const void* p, std::size_t n) {
#ifdef CONCERT_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

/// True when ASan poisoning is live in this build (tests use it to gate
/// trap-on-use-after-recycle assertions).
constexpr bool arena_poisoning_enabled() {
#ifdef CONCERT_ASAN
  return true;
#else
  return false;
#endif
}

/// Recycler for std::vector<T> buffers (spilled message payloads). Released
/// buffers keep their capacity and are bucketed by power-of-two capacity
/// class, so a sized request goes straight to a bucket whose every entry fits
/// instead of scanning a mixed LIFO stack. Payload sizes are bimodal (a few
/// values vs. row-sized bulk); with one stack, a burst of small releases
/// buries the big buffers and a row-sized acquire either walks past them or
/// gives up and mallocs. A cap bounds the pool so one-sided flows cannot
/// hoard memory; trim() releases excess at quiescence.
template <typename T>
class BufferPool {
 public:
  /// Capacity classes: class c holds capacities in [2^c, 2^(c+1)), with 0-
  /// and 1-element buffers in class 0 and everything >= 2^(kClasses-1) lumped
  /// into the top class.
  static constexpr std::size_t kClasses = 20;

  /// Per-size-class acquire accounting, keyed by the *requested* capacity's
  /// class (not the served buffer's) — the question the counters answer is
  /// "which request sizes miss", for diagnosing hit-rate regressions.
  struct ClassStats {
    std::uint64_t acquires = 0;  ///< try_acquire calls requesting this class.
    std::uint64_t hits = 0;      ///< ... that were served from the pool.
  };

  explicit BufferPool(std::size_t max_pooled = 512) : max_pooled_(max_pooled) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Moves a pooled buffer of at least `min_capacity` elements into `out`
  /// (cleared, capacity kept). Returns false — leaving `out` untouched —
  /// when no pooled buffer fits; the caller allocates fresh and the pool
  /// keeps its (too-small) buffers for later, smaller requests. Handing back
  /// an undersized buffer would be worse than a miss: the caller's reserve()
  /// reallocates anyway and the pooled capacity is freed, not reused.
  /// The search starts at the request's own class and climbs, which keeps
  /// large capacities for the requests that need them.
  bool try_acquire(std::vector<T>& out, std::size_t min_capacity) {
    ClassStats& cs = class_stats_[class_of(min_capacity)];
    ++cs.acquires;
    if (total_ == 0) return false;
    // The request's own class spans [2^c, 2^(c+1)), so entries there may or
    // may not fit — scan the newest few. Every class above is all-fits.
    auto& home = classes_[class_of(min_capacity)];
    const std::size_t floor = home.size() > kFitScan ? home.size() - kFitScan : 0;
    for (std::size_t i = home.size(); i-- > floor;) {
      if (home[i].capacity() >= min_capacity) {
        ++cs.hits;
        return take(home, i, out);
      }
    }
    for (std::size_t c = class_of(min_capacity) + 1; c < kClasses; ++c) {
      if (!classes_[c].empty()) {
        ++cs.hits;
        return take(classes_[c], classes_[c].size() - 1, out);
      }
    }
    return false;
  }

  /// Returns a buffer to its capacity class. When the pool is full, a buffer
  /// from a *smaller* populated class is evicted to make room — small
  /// capacities are cheap to rebuild, large ones are the pool's value — and
  /// only if no smaller class is populated is the incoming buffer dropped
  /// (freed normally; returns false).
  bool release(std::vector<T>&& buf) {
    const std::size_t cls = class_of(buf.capacity());
    if (total_ >= max_pooled_) {
      std::size_t victim = kClasses;
      for (std::size_t c = 0; c < cls; ++c) {
        if (!classes_[c].empty()) {
          victim = c;
          break;
        }
      }
      if (victim == kClasses) return false;
      classes_[victim].pop_back();
      --total_;
    }
    classes_[cls].push_back(std::move(buf));
    ++total_;
    return true;
  }

  /// Frees buffers beyond `keep` (quiescence housekeeping), smallest classes
  /// first — large capacities are the expensive ones to rebuild. Returns how
  /// many were dropped.
  std::size_t trim(std::size_t keep) {
    std::size_t dropped = 0;
    for (auto& cls : classes_) {
      while (!cls.empty() && total_ > keep) {
        cls.pop_back();
        --total_;
        ++dropped;
      }
      if (total_ <= keep) break;
    }
    return dropped;
  }

  std::size_t size() const { return total_; }
  std::size_t capacity_limit() const { return max_pooled_; }

  /// Acquire/hit counters per requested-capacity class (see ClassStats).
  const std::array<ClassStats, kClasses>& class_stats() const { return class_stats_; }

  /// The capacity class a request/buffer of `cap` elements belongs to
  /// (exposed for tests and stats reporting).
  static std::size_t class_of(std::size_t cap) {
    std::size_t c = 0;
    while (cap > 1 && c + 1 < kClasses) {
      cap >>= 1;
      ++c;
    }
    return c;
  }

 private:
  /// How many of the newest same-class buffers try_acquire scans for an
  /// exact fit before escalating to the (all-fits) classes above.
  static constexpr std::size_t kFitScan = 8;

  bool take(std::vector<std::vector<T>>& cls, std::size_t i, std::vector<T>& out) {
    out = std::move(cls[i]);
    if (i != cls.size() - 1) cls[i] = std::move(cls.back());
    cls.pop_back();
    --total_;
    out.clear();
    return true;
  }

  std::array<std::vector<std::vector<T>>, kClasses> classes_{};
  std::array<ClassStats, kClasses> class_stats_{};
  std::size_t total_ = 0;
  std::size_t max_pooled_;
};

}  // namespace concert
