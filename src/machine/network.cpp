#include "machine/network.hpp"

#include <algorithm>

#include "support/panic.hpp"

namespace concert {

SimNetwork::SimNetwork(std::size_t nodes, CostModel costs)
    : costs_(costs), nnodes_(nodes), heads_(nodes), channels_(nodes * nodes) {}

void SimNetwork::Channel::push(Message&& msg) {
  if (size == ring.size()) {
    // Full: move into a ring twice the size, oldest message first. A ring
    // starts at one slot, so a channel that never holds more than one
    // message costs one message's storage.
    std::vector<Message> bigger(ring.empty() ? 1 : 2 * ring.size());
    for (std::uint32_t i = 0; i < size; ++i) {
      bigger[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    }
    ring.swap(bigger);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = std::move(msg);
  ++size;
}

Message& SimNetwork::Channel::pop() {
  Message& m = ring[head];
  head = (head + 1) & static_cast<std::uint32_t>(ring.size() - 1);
  --size;
  return m;
}

void SimNetwork::inject(Message&& msg, std::uint64_t sender_clock) {
  CONCERT_CHECK(msg.dst < nnodes_, "message to nonexistent node " << msg.dst);
  CONCERT_CHECK(msg.src < nnodes_, "message from nonexistent node " << msg.src);
  const std::uint64_t serialization = costs_.per_packet * costs_.packets(msg.size_bytes());
  std::unique_ptr<Channel>& slot = channel(msg.src, msg.dst);
  if (!slot) slot = std::make_unique<Channel>();
  Channel& ch = *slot;
  // FIFO per channel: never deliver before an earlier message on the same channel.
  const std::uint64_t at =
      std::max(sender_clock + costs_.wire_latency + serialization, ch.last);
  ch.last = at;
  msg.deliver_at = at;
  msg.seq = next_seq_++;
  if (ch.size == 0) {
    Heads& h = heads_[msg.dst];
    h.push_back(HeadKey{at, msg.seq, msg.src});
    sift_up(h, h.size() - 1);
  }
  ch.push(std::move(msg));
  ++in_flight_;
}

void SimNetwork::set_shuffle(std::uint64_t seed) {
  shuffle_ = true;
  shuffle_rng_.seed(seed);
}

Message& SimNetwork::pop_slot(NodeId dst) {
  CONCERT_CHECK(!heads_[dst].empty(), "pop from empty network queue for node " << dst);
  return pop_channel(dst, 0);
}

Message& SimNetwork::pop_slot_shuffled(NodeId dst, std::uint64_t horizon) {
  CONCERT_CHECK(shuffle_, "pop_for_shuffled without set_shuffle");
  Heads& h = heads_[dst];
  CONCERT_CHECK(!h.empty(), "pop from empty network queue for node " << dst);
  // Per-channel FIFO: only each source's head is a candidate; among the
  // candidates within the horizon, in source order, the seeded RNG picks.
  // The strict minimum is always within the horizon (the engine's delivery
  // time is max(receiver clock, earliest)), so the candidate set is never
  // empty.
  const std::unique_ptr<Channel>* row = &channels_[dst * nnodes_];
  const auto eligible = [&](NodeId src) {
    const Channel* ch = row[src].get();
    return ch != nullptr && ch->size != 0 && ch->front().deliver_at <= horizon;
  };
  std::size_t candidates = 0;
  for (NodeId src = 0; src < nnodes_; ++src) candidates += eligible(src) ? 1 : 0;
  CONCERT_CHECK(candidates != 0,
                "no eligible delivery for node " << dst << " within horizon " << horizon);
  std::uint64_t k = shuffle_rng_.uniform(candidates);
  NodeId pick = 0;
  for (;; ++pick) {
    if (eligible(pick) && k-- == 0) break;
  }
  std::size_t pos = 0;
  while (h[pos].src != pick) ++pos;
  return pop_channel(dst, pos);
}

Message& SimNetwork::pop_channel(NodeId dst, std::size_t pos) {
  Heads& h = heads_[dst];
  Channel& ch = *channel(h[pos].src, dst);
  Message& m = ch.pop();
  if (ch.size != 0) {
    // The channel's next message is never earlier than the one before it,
    // so its key only grows.
    h[pos].deliver_at = ch.front().deliver_at;
    h[pos].seq = ch.front().seq;
    sift_down(h, pos);
  } else {
    h[pos] = h.back();
    h.pop_back();
    if (pos < h.size()) {
      if (pos > 0 && h[pos].before(h[(pos - 1) / 2])) {
        sift_up(h, pos);
      } else {
        sift_down(h, pos);
      }
    }
  }
  --in_flight_;
  return m;
}

void SimNetwork::sift_up(Heads& h, std::size_t i) {
  const HeadKey k = h[i];
  while (i > 0 && k.before(h[(i - 1) / 2])) {
    h[i] = h[(i - 1) / 2];
    i = (i - 1) / 2;
  }
  h[i] = k;
}

void SimNetwork::sift_down(Heads& h, std::size_t i) {
  const HeadKey k = h[i];
  for (std::size_t c = 2 * i + 1; c < h.size(); c = 2 * i + 1) {
    if (c + 1 < h.size() && h[c + 1].before(h[c])) ++c;
    if (!h[c].before(k)) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = k;
}

}  // namespace concert
