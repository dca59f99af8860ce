// Real-thread engine: one std::thread per node.
//
// Messages go straight into the destination node's inbox: one
// single-producer FIFO per source node (machine/channel_fifo.hpp), pushed by
// the sender's thread and drained round-robin by the receiver's.
// Quiescence is detected with work credits: every routed message, context
// enqueue and outbox staging creates one, and finishing the corresponding
// action retires it (a drained inbox batch retires its messages' credits
// together, once Node::deliver returns). Each node counts its own creates
// and retires in two counters that only its thread writes
// (Node::work_created/work_retired), so the accounting costs a plain store,
// not a read-modify-write on a line every node thread shares. A monitor on
// the thread that called run_until_quiescent sums them every 50 µs: it reads
// every node's `retired`, then every node's `created`, and declares
// quiescence when the two sums are equal.
//
// Why that read order is sound: a credit's create is published before
// anything that depends on it can be seen by another thread (route() counts
// the sender's create before the channel's release store makes the message
// visible, and a message is visible from exactly that store on; a node
// counts its local products before retiring the action that made them). So every retire
// the monitor counts has its create counted too, and equal sums mean every
// counted create has its retire counted. A credit alive between the two
// reading phases would have a counted create and an uncounted retire, so none
// was alive — and with no live credit, no action runs and nothing can create
// one. Reading `created` first, or counting a message's create after its push,
// can declare quiescence early.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

#include "machine/machine.hpp"

namespace concert {

class ThreadedMachine final : public Machine {
 public:
  ThreadedMachine(std::size_t nodes, MachineConfig config);
  ~ThreadedMachine() override;

  void route(Node& from, Message msg) override;
  /// Runs every node on its own thread until quiescence. A protocol error on
  /// a node thread (a failed CONCERT_CHECK) stops the run and is rethrown
  /// here after the join, as is a work-credit imbalance; both dump the
  /// "panic" postmortem first.
  void run_until_quiescent() override;

  void on_work_created() override { ++external_created_; }
  void on_work_retired() override { ++external_retired_; }

 private:
  void node_loop(NodeId id);
  /// Total work credits created and retired so far, every node's `retired`
  /// read before any node's `created` (the header comment says why).
  struct Credits {
    std::uint64_t created = 0;
    std::uint64_t retired = 0;
  };
  Credits sum_credits() const;

  std::atomic<bool> stop_{false};
  /// Set by a node thread whose loop threw, or by the monitor on a credit
  /// imbalance; node threads poll it every 1024 loop turns and abandon the
  /// run. `failure_` is written once, by the node thread whose exchange on
  /// `failed_` won, and read after the join.
  std::atomic<bool> failed_{false};
  std::exception_ptr failure_;
  /// Credits added between runs through on_work_created/on_work_retired.
  /// Written and summed only by the thread that runs the monitor.
  std::uint64_t external_created_ = 0;
  std::uint64_t external_retired_ = 0;
};

}  // namespace concert
