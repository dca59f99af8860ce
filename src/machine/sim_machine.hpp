// Deterministic conservative-simulation engine.
//
// Global rule: among all nodes that have an enabled action (a deliverable
// message or a ready context), the one whose action has the smallest
// timestamp acts; message delivery at equal time beats context execution, and
// node id breaks remaining ties. Messages become deliverable when the
// receiver's clock reaches their deliver_at (an idle receiver's clock jumps
// forward to the arrival). The result is bit-reproducible runs — the property
// the entire test suite leans on.
#pragma once

#include "machine/machine.hpp"
#include "machine/network.hpp"

namespace concert {

class SimMachine final : public Machine {
 public:
  SimMachine(std::size_t nodes, MachineConfig config);

  void route(Node& from, Message&& msg) override;
  void run_until_quiescent() override;

  SimNetwork& network() { return network_; }

  /// Total scheduler actions executed (determinism probes in tests).
  std::uint64_t actions() const { return actions_; }

 private:
  /// The scheduling loop proper; run_until_quiescent wraps it with the
  /// postmortem dump-on-panic bracket (concert-insight).
  void run_loop();

  SimNetwork network_;
  std::uint64_t actions_ = 0;
  /// The messages one delivery action hands to its receiver: one, or with
  /// MachineConfig::merge_waves every message deliverable at that time.
  /// Reused across deliveries.
  std::vector<Message> batch_;
};

}  // namespace concert
