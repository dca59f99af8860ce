// The simulated interconnect for the deterministic engine.
//
// Messages are timestamped at injection (sender clock + wire latency + packet
// serialization) and become visible to the receiver when its local clock
// reaches `deliver_at`. Delivery is FIFO per (src,dst) channel — both the
// CM-5 data network and the T3D torus preserve channel order for the runtime's
// usage — and globally deterministic via a send-sequence tie-break.
//
// Each channel is a FIFO ring. Injection order within a channel is already
// (deliver_at, seq) order — deliver_at is clamped to the channel's previous
// message and seq only grows — so a channel's head is its earliest message,
// and a destination's earliest message is the smallest of its channel heads.
// A small per-destination heap of head keys finds it; a message itself moves
// once into its ring and once out.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/cost_model.hpp"
#include "machine/message.hpp"
#include "support/rng.hpp"

namespace concert {

class SimNetwork {
 public:
  /// Keeps its own copy of `costs`, so a temporary cost model is fine.
  SimNetwork(std::size_t nodes, CostModel costs);

  /// Injects a message, moving it once into its channel's ring.
  /// `sender_clock` is the sender's clock *after* it paid the send overhead.
  /// Computes and stamps deliver_at.
  void inject(Message&& msg, std::uint64_t sender_clock);

  /// Earliest deliver_at of any message destined for `dst`, or UINT64_MAX.
  std::uint64_t earliest_for(NodeId dst) const {
    const auto& h = heads_[dst];
    return h.empty() ? UINT64_MAX : h.front().deliver_at;
  }

  /// Pops the earliest (deliver_at, seq) message for `dst` and returns its
  /// ring slot. The message stays there until the next inject into its
  /// channel (src -> dst): the caller may deliver it in place if nothing
  /// injects into that channel meanwhile, else must move it out first
  /// (once, payload and all). Must be non-empty.
  Message& pop_slot(NodeId dst);
  /// pop_slot, moved out.
  Message pop_for(NodeId dst) { return std::move(pop_slot(dst)); }

  /// Shuffle mode only: pops a seeded pseudo-random message for `dst` among
  /// the eligible candidates — per-channel heads (FIFO preserved) whose
  /// deliver_at is within `horizon` (the time the receiver would deliver at,
  /// so no message is ever delivered "early"), in source order — and returns
  /// its ring slot, as pop_slot does. Must be non-empty.
  Message& pop_slot_shuffled(NodeId dst, std::uint64_t horizon);
  /// pop_slot_shuffled, moved out.
  Message pop_for_shuffled(NodeId dst, std::uint64_t horizon) {
    return std::move(pop_slot_shuffled(dst, horizon));
  }

  /// Enables delivery-order shuffling (MachineConfig::shuffle_seed).
  void set_shuffle(std::uint64_t seed);
  bool shuffled() const { return shuffle_; }

  bool empty_for(NodeId dst) const { return heads_[dst].empty(); }

  /// Total undelivered messages (quiescence check).
  std::size_t in_flight() const { return in_flight_; }

 private:
  /// One (src, dst) channel: a power-of-two ring of the messages in flight,
  /// oldest at `head`. Slots outside [head, head + size) hold delivered or
  /// moved-from messages.
  struct Channel {
    std::vector<Message> ring;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::uint64_t last = 0;  ///< deliver_at of the newest message, for the FIFO clamp.

    const Message& front() const { return ring[head]; }
    void push(Message&& msg);
    /// Removes the head; returns its slot, which holds the message until
    /// the channel's next push.
    Message& pop();
  };

  /// A non-empty channel's entry in its destination's heap: the head's
  /// (deliver_at, seq) key, unique because seq is.
  struct HeadKey {
    std::uint64_t deliver_at = 0;
    std::uint64_t seq = 0;
    NodeId src = kInvalidNode;
    bool before(const HeadKey& o) const {
      return deliver_at != o.deliver_at ? deliver_at < o.deliver_at : seq < o.seq;
    }
  };
  using Heads = std::vector<HeadKey>;

  /// Channel src -> dst, laid out destination-major so one destination's
  /// channels are contiguous in source order. Null until its first inject.
  std::unique_ptr<Channel>& channel(NodeId src, NodeId dst) {
    return channels_[dst * nnodes_ + src];
  }
  /// Pops the head of the channel whose key sits at `pos` in heads_[dst],
  /// then re-keys that heap entry, or removes it if the channel is drained.
  Message& pop_channel(NodeId dst, std::size_t pos);
  static void sift_up(Heads& h, std::size_t i);
  static void sift_down(Heads& h, std::size_t i);

  CostModel costs_;
  std::size_t nnodes_;
  /// Per-destination min-heap over the heads of its non-empty channels.
  std::vector<Heads> heads_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  /// Shuffle mode (concert-race): pop_for_shuffled draws from `shuffle_rng_`.
  /// Off by default; strict pops never touch the generator.
  bool shuffle_ = false;
  SplitMix64 shuffle_rng_{0};
};

}  // namespace concert
