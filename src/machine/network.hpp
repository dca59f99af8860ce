// The simulated interconnect for the deterministic engine.
//
// Messages are timestamped at injection (sender clock + wire latency + packet
// serialization) and become visible to the receiver when its local clock
// reaches `deliver_at`. Delivery is FIFO per (src,dst) channel — both the
// CM-5 data network and the T3D torus preserve channel order for the runtime's
// usage — and globally deterministic via a send-sequence tie-break.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/cost_model.hpp"
#include "machine/message.hpp"
#include "support/rng.hpp"

namespace concert {

class SimNetwork {
 public:
  /// Keeps its own copy of `costs`, so a temporary cost model is fine.
  SimNetwork(std::size_t nodes, CostModel costs);

  /// Injects a message. `sender_clock` is the sender's clock *after* it paid
  /// the send overhead. Computes and stamps deliver_at.
  void inject(Message msg, std::uint64_t sender_clock);

  /// Earliest deliver_at of any message destined for `dst`, or UINT64_MAX.
  std::uint64_t earliest_for(NodeId dst) const;

  /// Pops the earliest message for `dst` (moved out, payload and all — a
  /// bundle's element vector never gets copied on delivery). Must be
  /// non-empty.
  Message pop_for(NodeId dst);

  /// Shuffle mode only: pops a seeded pseudo-random message for `dst` among
  /// the eligible candidates — per-channel heads (FIFO preserved) whose
  /// deliver_at is within `horizon` (the time the receiver would deliver at,
  /// so no message is ever delivered "early"). Must be non-empty.
  Message pop_for_shuffled(NodeId dst, std::uint64_t horizon);

  /// Enables delivery-order shuffling (MachineConfig::shuffle_seed). Must be
  /// called before any inject — the queues switch from heaps to plain
  /// vectors.
  void set_shuffle(std::uint64_t seed);
  bool shuffled() const { return shuffle_; }

  bool empty_for(NodeId dst) const;

  /// Total undelivered messages (quiescence check).
  std::size_t in_flight() const { return in_flight_; }

 private:
  /// Heap comparator: the max element under `Later` is the message with the
  /// smallest (deliver_at, seq) — a unique key, so pop order is a total
  /// order independent of heap internals.
  struct Later {
    bool operator()(const Message& a, const Message& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  CostModel costs_;
  std::size_t nnodes_;
  /// Per-destination min-heaps (std::push_heap/pop_heap over a plain vector,
  /// so pop can *move* the message out instead of copying off top()).
  std::vector<std::vector<Message>> queues_;
  std::vector<std::uint64_t> channel_last_;  ///< [src*n+dst] last deliver_at, for FIFO.
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  /// Shuffle mode (concert-race): queues are plain unordered vectors and
  /// pop_for_shuffled draws from `shuffle_rng_`. Off by default — the heap
  /// path above is untouched, keeping strict runs bit-identical.
  bool shuffle_ = false;
  SplitMix64 shuffle_rng_{0};
};

}  // namespace concert
