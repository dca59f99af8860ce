// One message channel of the threaded engine: an unbounded single-producer /
// single-consumer FIFO. A destination node keeps one per source node.
//
// The machine promises FIFO per (source, destination) channel and nothing
// across channels, so no queue needs to be shared by every sender. Channel
// (s, d) is written only by node s's thread and consumed only by node d's, so
// neither end makes an atomic read-modify-write. The producer move-constructs
// each element into the next slot (write) and makes everything written so far
// visible with one release store of its count (publish); a write that fills
// its segment publishes at once, so at most kSeg - 1 elements wait for an
// explicit publish. The consumer reads that count with one acquire load and
// hands the published elements to a callback in place, one span per run of a
// segment, destroying each run once the callback returns. An element is
// visible exactly from the release store that publishes it on.
//
// Storage is a chain of segments of kSeg slots. The producer allocates a
// segment only when its current one is full, and nothing before the first
// write. The consumer hands each segment it has left back through a ring of
// kSpares spares, which the producer takes from before it allocates, so a
// channel in steady traffic cycles its segments and allocates nothing — also
// when a sender writes several segments between two consumes, as a threaded
// node's ready quantum does.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace concert {

template <typename T>
class ChannelFifo {
 public:
  /// Slots per segment: one allocation per kSeg elements in a burst, and the
  /// most elements a producer leaves unpublished.
  static constexpr std::size_t kSeg = 32;
  /// Emptied segments kept for the producer: room for the sends a 32-slice
  /// ready quantum makes to one node between two consumes.
  static constexpr std::size_t kSpares = 8;

  ChannelFifo() = default;
  ChannelFifo(const ChannelFifo&) = delete;
  ChannelFifo& operator=(const ChannelFifo&) = delete;

  ~ChannelFifo() {
    // Single-threaded by now: destroy every element written and not yet
    // consumed (published or not), then free the chain and the spares.
    Segment* s = head_ != nullptr ? head_ : first_;
    std::size_t i = head_ != nullptr ? head_idx_ : 0;
    for (std::uint64_t left = written_ - popped_; left > 0; --left, ++i) {
      if (i == kSeg) {
        s = s->next;
        i = 0;
      }
      std::destroy_at(s->slot(i));
    }
    s = head_ != nullptr ? head_ : first_;
    while (s != nullptr) {
      Segment* next = s->next;
      delete s;
      s = next;
    }
    const std::uint64_t kept = spares_kept_.load(std::memory_order_relaxed);
    for (std::uint64_t i = spares_taken_.load(std::memory_order_relaxed); i != kept; ++i) {
      delete spares_[i % kSpares];
    }
  }

  /// Producer only: appends `v` behind every element written so far. The
  /// write that fills a segment publishes it; any other write stays invisible
  /// to the consumer until publish(). Returns how many written elements are
  /// still unpublished (0 after a publishing write).
  std::size_t write(T&& v) {
    if (tail_idx_ == kSeg) grow();
    ::new (static_cast<void*>(tail_->slot(tail_idx_++))) T(std::move(v));
    ++written_;
    if (tail_idx_ == kSeg) {
      publish();
      return 0;
    }
    return static_cast<std::size_t>(written_ - published_);
  }

  /// Producer only: makes every written element visible with one release
  /// store. Returns false when there was nothing new to publish.
  bool publish() {
    if (published_ == written_) return false;
    published_ = written_;
    pushed_.store(written_, std::memory_order_release);
    return true;
  }

  /// Producer only: write then publish.
  void push(T&& v) {
    if (write(std::move(v)) != 0) publish();
  }

  /// Consumer only: hands up to `max` published elements, oldest first, to
  /// `f` in place as one std::span<T> per run within a segment. A run's
  /// elements are destroyed, and a segment the consumer has left is
  /// recycled, only after the callback that saw them returns; elements the
  /// callback's own thread writes meanwhile (a self-send) queue behind the
  /// runs this call hands out. Returns the number consumed.
  template <typename F>
  std::size_t consume(std::size_t max, F&& f) {
    const std::uint64_t avail = pushed_.load(std::memory_order_acquire) - popped_;
    const std::size_t n = avail < max ? static_cast<std::size_t>(avail) : max;
    for (std::size_t left = n; left > 0;) {
      if (head_idx_ == kSeg) advance();
      const std::size_t run = std::min(left, kSeg - head_idx_);
      T* first = head_->slot(head_idx_);
      f(std::span<T>(first, run));
      std::destroy_n(first, run);
      head_idx_ += run;
      popped_ += run;
      left -= run;
    }
    return n;
  }

  /// Consumer only: moves up to `max` published elements onto `out`, oldest
  /// first. Returns the number moved.
  std::size_t drain(std::vector<T>& out, std::size_t max) {
    return consume(max, [&out](std::span<T> run) {
      for (T& v : run) out.push_back(std::move(v));
    });
  }

  /// Consumer only: true when every published element has been consumed.
  bool empty() const { return pushed_.load(std::memory_order_acquire) == popped_; }

 private:
  struct Segment {
    T* slot(std::size_t i) { return reinterpret_cast<T*>(raw) + i; }
    alignas(T) unsigned char raw[kSeg * sizeof(T)];
    /// Written by the producer before it publishes the first element past
    /// this segment, so the consumer's acquire load orders it.
    Segment* next = nullptr;
  };

  /// Producer: the current segment is full, or none exists yet. Continues in
  /// the oldest spare the consumer has handed back, else in a new segment.
  void grow() {
    Segment* s;
    const std::uint64_t taken = spares_taken_.load(std::memory_order_relaxed);
    if (spares_kept_.load(std::memory_order_acquire) != taken) {
      s = spares_[taken % kSpares];
      spares_taken_.store(taken + 1, std::memory_order_release);
      s->next = nullptr;
    } else {
      s = new Segment;
    }
    if (tail_ != nullptr) {
      tail_->next = s;
    } else {
      first_ = s;
    }
    tail_ = s;
    tail_idx_ = 0;
  }

  /// Consumer: moves to the next segment (an element in it is published).
  /// The one left is handed back: the producer has moved past it, since it
  /// linked the next segment before publishing anything there.
  void advance() {
    Segment* next = head_ != nullptr ? head_->next : first_;
    if (head_ != nullptr) recycle(head_);
    head_ = next;
    head_idx_ = 0;
  }

  /// Consumer: keeps `s` in the spare ring, or frees it when the ring is
  /// full. Only the consumer advances spares_kept_ and only the producer
  /// spares_taken_; each side's release of its count orders its access to a
  /// ring slot before the other side's next access to it.
  void recycle(Segment* s) {
    const std::uint64_t kept = spares_kept_.load(std::memory_order_relaxed);
    if (kept - spares_taken_.load(std::memory_order_acquire) < kSpares) {
      spares_[kept % kSpares] = s;
      spares_kept_.store(kept + 1, std::memory_order_release);
    } else {
      delete s;
    }
  }

  // Producer's line: read and written by the producer only, so writes that
  // are not yet published touch no line the consumer reads.
  alignas(64) Segment* tail_ = nullptr;  ///< Segment being filled.
  std::size_t tail_idx_ = kSeg;          ///< Next slot in tail_ (kSeg: full).
  std::uint64_t written_ = 0;            ///< Elements written.
  std::uint64_t published_ = 0;          ///< The producer's copy of pushed_.
  // Shared line: the producer stores pushed_ once per publish and the
  // consumer loads it on every consume; the spare counts trade a segment
  // each way once per segment, and first_ is written before the first
  // publish and read once after it.
  alignas(64) std::atomic<std::uint64_t> pushed_{0};  ///< Elements published.
  std::atomic<std::uint64_t> spares_kept_{0};   ///< Segments the consumer handed back.
  std::atomic<std::uint64_t> spares_taken_{0};  ///< Of those, taken by the producer.
  Segment* first_ = nullptr;                    ///< The first segment ever filled.
  std::array<Segment*, kSpares> spares_{};      ///< Ring of emptied segments.
  // Consumer's line: touched by the consumer only.
  alignas(64) Segment* head_ = nullptr;  ///< Segment being consumed.
  std::size_t head_idx_ = kSeg;          ///< Next slot in head_ (kSeg: done).
  std::uint64_t popped_ = 0;             ///< Elements consumed.
};

}  // namespace concert
