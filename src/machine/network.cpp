#include "machine/network.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace concert {

SimNetwork::SimNetwork(std::size_t nodes, CostModel costs)
    : costs_(costs), nnodes_(nodes), queues_(nodes), channel_last_(nodes * nodes, 0) {}

void SimNetwork::inject(Message msg, std::uint64_t sender_clock) {
  CONCERT_CHECK(msg.dst < nnodes_, "message to nonexistent node " << msg.dst);
  CONCERT_CHECK(msg.src < nnodes_, "message from nonexistent node " << msg.src);
  const std::uint64_t serialization = costs_.per_packet * costs_.packets(msg.size_bytes());
  std::uint64_t at = sender_clock + costs_.wire_latency + serialization;
  // FIFO per channel: never deliver before an earlier message on the same channel.
  std::uint64_t& last = channel_last_[msg.src * nnodes_ + msg.dst];
  at = std::max(at, last);
  last = at;
  msg.deliver_at = at;
  msg.seq = next_seq_++;
  auto& q = queues_[msg.dst];
  q.push_back(std::move(msg));
  if (!shuffle_) std::push_heap(q.begin(), q.end(), Later{});
  ++in_flight_;
}

std::uint64_t SimNetwork::earliest_for(NodeId dst) const {
  const auto& q = queues_[dst];
  if (q.empty()) return UINT64_MAX;
  if (!shuffle_) return q.front().deliver_at;
  std::uint64_t earliest = UINT64_MAX;
  for (const Message& m : q) earliest = std::min(earliest, m.deliver_at);
  return earliest;
}

void SimNetwork::set_shuffle(std::uint64_t seed) {
  CONCERT_CHECK(in_flight_ == 0, "set_shuffle with messages in flight");
  shuffle_ = true;
  shuffle_rng_.seed(seed);
}

Message SimNetwork::pop_for(NodeId dst) {
  auto& q = queues_[dst];
  CONCERT_CHECK(!q.empty(), "pop from empty network queue for node " << dst);
  if (shuffle_) {
    // Unordered vector: pop the strict (deliver_at, seq) minimum by scan.
    std::size_t best = 0;
    for (std::size_t i = 1; i < q.size(); ++i) {
      if (Later{}(q[best], q[i])) best = i;
    }
    std::swap(q[best], q.back());
    Message m = std::move(q.back());
    q.pop_back();
    --in_flight_;
    return m;
  }
  std::pop_heap(q.begin(), q.end(), Later{});
  Message m = std::move(q.back());
  q.pop_back();
  --in_flight_;
  return m;
}

Message SimNetwork::pop_for_shuffled(NodeId dst, std::uint64_t horizon) {
  CONCERT_CHECK(shuffle_, "pop_for_shuffled without set_shuffle");
  auto& q = queues_[dst];
  CONCERT_CHECK(!q.empty(), "pop from empty network queue for node " << dst);
  // Per-channel FIFO: only each source's earliest (deliver_at, seq) message
  // is a candidate; among candidates within the horizon, the seeded RNG
  // picks. The strict minimum is always within the horizon (the engine's
  // delivery time is max(receiver clock, earliest)), so the candidate set is
  // never empty.
  std::vector<std::size_t> head(nnodes_, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < q.size(); ++i) {
    const std::size_t src = q[i].src;
    if (head[src] == static_cast<std::size_t>(-1) || Later{}(q[head[src]], q[i])) head[src] = i;
  }
  std::vector<std::size_t> eligible;
  for (std::size_t src = 0; src < nnodes_; ++src) {
    if (head[src] != static_cast<std::size_t>(-1) && q[head[src]].deliver_at <= horizon) {
      eligible.push_back(head[src]);
    }
  }
  CONCERT_CHECK(!eligible.empty(),
                "no eligible delivery for node " << dst << " within horizon " << horizon);
  const std::size_t pick = eligible[shuffle_rng_.uniform(eligible.size())];
  std::swap(q[pick], q.back());
  Message m = std::move(q.back());
  q.pop_back();
  --in_flight_;
  return m;
}

bool SimNetwork::empty_for(NodeId dst) const { return queues_[dst].empty(); }

}  // namespace concert
