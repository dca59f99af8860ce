// Per-destination staging buffers for outgoing messages (the comms layer).
//
// An Outbox holds messages a node has logically sent but not yet handed to
// the network. Messages are staged per destination in send order, so a flush
// of one destination preserves the per-channel FIFO the runtime relies on.
// The owning node is the only mutator (its own thread in the threaded engine,
// the single simulation thread otherwise), so no locking is needed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "machine/message.hpp"
#include "support/panic.hpp"

namespace concert {

class Outbox {
 public:
  /// Sizes the per-destination buckets. Called once by the machine after all
  /// nodes exist (a node cannot know the machine size mid-construction).
  void reset(std::size_t nodes) {
    by_dst_.clear();  // a Message is move-only, so no assign(n, {})
    by_dst_.resize(nodes);
    total_ = 0;
  }

  /// Stages `msg` for its destination, preserving send order.
  void push(Message&& msg) {
    CONCERT_CHECK(msg.dst < by_dst_.size(), "outbox push for nonexistent node " << msg.dst);
    std::vector<Message>& bucket = by_dst_[msg.dst];
    // First touch of a cold bucket: jump straight to a useful capacity
    // instead of growing 1 -> 2 -> 4 (each step moves every staged Message).
    if (bucket.capacity() == 0) bucket.reserve(8);
    bucket.push_back(std::move(msg));
    ++total_;
  }

  std::size_t pending(NodeId dst) const {
    CONCERT_CHECK(dst < by_dst_.size(), "outbox query for nonexistent node " << dst);
    return by_dst_[dst].size();
  }
  std::size_t total() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Removes and returns everything staged for `dst`, in send order.
  std::vector<Message> drain(NodeId dst) {
    CONCERT_CHECK(dst < by_dst_.size(), "outbox drain for nonexistent node " << dst);
    std::vector<Message> out;
    out.swap(by_dst_[dst]);
    total_ -= out.size();
    return out;
  }

  /// Everything staged for `dst`, in send order, for a flush to move out;
  /// clear(dst) then empties the bucket.
  std::span<Message> staged(NodeId dst) {
    CONCERT_CHECK(dst < by_dst_.size(), "outbox drain for nonexistent node " << dst);
    return by_dst_[dst];
  }
  /// Empties the bucket of `dst` once its messages were moved out, keeping
  /// its capacity, so a steady-state flush cycle allocates nothing here.
  void clear(NodeId dst) {
    std::vector<Message>& bucket = by_dst_[dst];
    total_ -= bucket.size();
    bucket.clear();
  }

  /// Smallest destination id with staged messages (deterministic flush
  /// order), or kInvalidNode when empty.
  NodeId first_nonempty() const {
    for (std::size_t d = 0; d < by_dst_.size(); ++d) {
      if (!by_dst_[d].empty()) return static_cast<NodeId>(d);
    }
    return kInvalidNode;
  }

 private:
  std::vector<std::vector<Message>> by_dst_;
  std::size_t total_ = 0;
};

}  // namespace concert
