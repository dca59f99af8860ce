// One message channel of the threaded engine: an unbounded single-producer /
// single-consumer FIFO. A destination node keeps one per source node.
//
// The machine promises FIFO per (source, destination) channel and nothing
// across channels, so no queue needs to be shared by every sender. Channel
// (s, d) is pushed only by node s's thread and drained only by node d's, so
// neither end makes an atomic read-modify-write: the producer move-assigns
// into the next slot and publishes it with one release store of its count;
// the consumer reads that count with one acquire load and moves out every
// element below it. An element is visible exactly from its release store on.
//
// Storage is a chain of segments of kSeg slots. The producer allocates a
// segment only when its current one is full, and nothing before the first
// push. The consumer hands each segment it has emptied back through a
// one-slot spare, which the producer takes before it allocates, so a channel
// in steady traffic cycles two segments and allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace concert {

template <typename T>
class ChannelFifo {
 public:
  /// Slots per segment: one allocation per kSeg elements in a burst.
  static constexpr std::size_t kSeg = 32;

  ChannelFifo() = default;
  ChannelFifo(const ChannelFifo&) = delete;
  ChannelFifo& operator=(const ChannelFifo&) = delete;

  ~ChannelFifo() {
    // Single-threaded by now: the live chain (destroying any element still
    // queued) and the spare.
    Segment* s = head_ != nullptr ? head_ : first_;
    while (s != nullptr) {
      Segment* next = s->next;
      delete s;
      s = next;
    }
    delete spare_.load(std::memory_order_relaxed);
  }

  /// Producer only.
  void push(T&& v) {
    if (tail_idx_ == kSeg) grow();
    tail_->slots[tail_idx_++] = std::move(v);
    pushed_.store(pushed_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  /// Consumer only: appends up to `max` elements to `out`, oldest first,
  /// moving each once. Returns the number moved.
  std::size_t drain(std::vector<T>& out, std::size_t max) {
    const std::uint64_t avail = pushed_.load(std::memory_order_acquire) - popped_;
    const std::size_t n = avail < max ? static_cast<std::size_t>(avail) : max;
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(take()));
    popped_ += n;
    return n;
  }

  /// Consumer only: moves the oldest element into `out`; false when empty.
  bool pop(T& out) {
    if (empty()) return false;
    out = std::move(take());
    ++popped_;
    return true;
  }

  /// Consumer only: true when every published element has been consumed.
  bool empty() const { return pushed_.load(std::memory_order_acquire) == popped_; }

 private:
  struct Segment {
    T slots[kSeg];
    /// Written by the producer before it publishes the first element past
    /// this segment, so the consumer's acquire load orders it.
    Segment* next = nullptr;
  };

  /// Producer: the current segment is full, or none exists yet. Continues in
  /// the spare when the consumer has handed one back, else in a new one.
  void grow() {
    Segment* s = spare_.load(std::memory_order_acquire);
    if (s != nullptr) {
      spare_.store(nullptr, std::memory_order_relaxed);
      s->next = nullptr;
    } else {
      s = new Segment;
    }
    (tail_ != nullptr ? tail_->next : first_) = s;
    tail_ = s;
    tail_idx_ = 0;
  }

  /// Consumer: the slot of the oldest unconsumed element (one is published).
  /// Leaving a segment hands it back: the producer has moved past it, since
  /// the element being taken lives in a later one.
  T& take() {
    if (head_idx_ == kSeg) {
      Segment* next = head_ != nullptr ? head_->next : first_;
      if (head_ != nullptr) recycle(head_);
      head_ = next;
      head_idx_ = 0;
    }
    return head_->slots[head_idx_++];
  }

  /// Consumer: keeps `s` as the producer's spare, or frees it when the spare
  /// slot is still full. Only the consumer fills the slot and only the
  /// producer empties it, so a load then a store suffices on either side.
  void recycle(Segment* s) {
    if (spare_.load(std::memory_order_relaxed) == nullptr) {
      spare_.store(s, std::memory_order_release);
    } else {
      delete s;
    }
  }

  // Producer's line: written by the producer; the consumer reads pushed_
  // on every drain and writes spare_ once per segment.
  alignas(64) Segment* tail_ = nullptr;  ///< Segment being filled.
  std::size_t tail_idx_ = kSeg;          ///< Next slot in tail_ (kSeg: full).
  Segment* first_ = nullptr;             ///< The first segment ever filled.
  std::atomic<std::uint64_t> pushed_{0};  ///< Elements published.
  std::atomic<Segment*> spare_{nullptr};  ///< An emptied segment for reuse.
  // Consumer's line: touched by the consumer only.
  alignas(64) Segment* head_ = nullptr;  ///< Segment being drained.
  std::size_t head_idx_ = kSeg;          ///< Next slot in head_ (kSeg: done).
  std::uint64_t popped_ = 0;             ///< Elements consumed.
};

}  // namespace concert
