#include "machine/sim_machine.hpp"

#include <chrono>

namespace concert {

SimMachine::SimMachine(std::size_t nodes, MachineConfig config)
    : Machine(nodes, config), network_(nodes, config_.costs) {
  if (config_.shuffle_seed != 0) network_.set_shuffle(config_.shuffle_seed);
}

void SimMachine::route(Node& from, Message&& msg) {
  network_.inject(std::move(msg), from.clock());
}

void SimMachine::run_until_quiescent() {
  // Postmortem (concert-insight): any ProtocolError that unwinds this run —
  // the stall budget below, or a protocol check firing inside a node action
  // or the quiescence verifier — dumps the machine-readable POSTMORTEM.json
  // before rethrowing. The engine is single-threaded, so node-private state
  // (event rings, queues) is safe to read from the catch.
  arm_postmortem();
  try {
    run_loop();
    quiesce_memory();
    verify_at_quiescence();
  } catch (const ProtocolError&) {
    dump_postmortem("panic");
    throw;
  }
}

void SimMachine::run_loop() {
  const std::size_t n = nodes_.size();
  // Stall watchdog (MachineConfig::stall_timeout): the conservative scheduler
  // cannot stall while work remains — it either acts or declares quiescence —
  // but a forwarding livelock keeps it acting forever. The timeout is
  // therefore a per-run wall-clock budget, probed every 4096 actions so the
  // steady_clock read stays off the per-action path (and off entirely when
  // the watchdog is disabled, keeping runs bit-identical).
  const std::uint64_t timeout_ms = config_.stall_timeout;
  const auto entered = std::chrono::steady_clock::now();
  while (true) {
    // Health sampling shares the watchdog's every-4096-actions cadence (and
    // fires once at action 0, so even tiny runs get one sample per run).
    // Outside the cost model: clocks are untouched.
    if ((actions_ & 0xfff) == 0) sample_health_all();
    if (timeout_ms > 0 && (actions_ & 0xfff) == 0 &&
        std::chrono::steady_clock::now() - entered >= std::chrono::milliseconds(timeout_ms)) {
      const std::string pm = dump_postmortem("stall");
      CONCERT_CHECK(false, "deterministic engine exceeded its stall budget of "
                               << timeout_ms << " ms after " << actions_
                               << " actions (livelock?)"
                               << (pm.empty() ? "" : "\npostmortem written to " + pm) << "\n"
                               << stall_report());
    }
    // Pick the enabled action with the smallest timestamp. Message delivery
    // beats context execution at equal time; node id breaks remaining ties.
    // A node whose ready queue and inbox are both empty but whose outbox
    // holds staged messages gets a flush action instead — buffered messages
    // thus count as outstanding work, and no node is declared idle while it
    // still owes the network a flush.
    NodeId best_node = kInvalidNode;
    std::uint64_t best_t = UINT64_MAX;
    bool best_is_msg = false;
    bool best_is_flush = false;

    for (std::size_t i = 0; i < n; ++i) {
      Node& nd = *nodes_[i];
      const bool inbox_empty = network_.empty_for(static_cast<NodeId>(i));
      if (!inbox_empty) {
        const std::uint64_t t =
            std::max(nd.clock(), network_.earliest_for(static_cast<NodeId>(i)));
        if (t < best_t || (t == best_t && !best_is_msg)) {
          best_t = t;
          best_node = static_cast<NodeId>(i);
          best_is_msg = true;
          best_is_flush = false;
        }
      }
      if (nd.has_ready()) {
        const std::uint64_t t = nd.clock();
        if (t < best_t) {
          best_t = t;
          best_node = static_cast<NodeId>(i);
          best_is_msg = false;
          best_is_flush = false;
        }
      } else if (inbox_empty && !nd.outbox_empty()) {
        const std::uint64_t t = nd.clock();
        if (t < best_t) {
          best_t = t;
          best_node = static_cast<NodeId>(i);
          best_is_msg = false;
          best_is_flush = true;
        }
      }
    }

    if (best_node == kInvalidNode) break;  // quiescent

    Node& nd = *nodes_[best_node];
    if (best_is_msg) {
      // Shuffle mode (concert-race) may deliver any channel head within the
      // horizon instead of the strict earliest; `best_t` is exactly the time
      // this delivery happens at, so nothing is delivered early. Per-channel
      // FIFO holds because pops stay in network order (or shuffle-eligible
      // order, which preserves it per channel). One message is delivered in
      // place from its ring slot. The receiver's sends go into its own
      // outgoing channels, so only a self-send can reuse that slot or regrow
      // that ring meanwhile: it moves out first.
      Message& msg = network_.shuffled() ? network_.pop_slot_shuffled(best_node, best_t)
                                         : network_.pop_slot(best_node);
      nd.advance_clock_to(msg.deliver_at);
      if (msg.src == best_node) {
        Message own = std::move(msg);
        nd.deliver(own);
      } else {
        nd.deliver(msg);
      }
    } else if (best_is_flush) {
      nd.flush_all_outboxes();
    } else {
      nd.run_one();
    }
    ++actions_;
  }
}

}  // namespace concert
