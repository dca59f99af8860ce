// The multicomputer: a set of nodes plus an execution engine.
//
// Two engines share all runtime code and differ only in how node actions are
// interleaved and how messages travel:
//
//   * SimMachine (sim_machine.hpp) — deterministic conservative simulation.
//     The node with the smallest local clock acts next; messages are
//     delivered at sender-clock + latency, FIFO per channel. Simulated time
//     (instructions / clock rate) reproduces the paper's CM-5/T3D tables.
//
//   * ThreadedMachine (threaded_machine.hpp) — one std::thread per node with
//     lock-free inboxes and quiescence detection by a monitor that sums
//     per-node work-credit counters. Demonstrates the runtime is safe under
//     genuine concurrency; wall-clock time is its metric.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "machine/machine_config.hpp"
#include "machine/node.hpp"

namespace concert {

class Machine {
 public:
  Machine(std::size_t nodes, MachineConfig config);
  virtual ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(NodeId id) {
    CONCERT_CHECK(id < nodes_.size(), "bad node id " << id);
    return *nodes_[id];
  }
  const Node& node(NodeId id) const {
    CONCERT_CHECK(id < nodes_.size(), "bad node id " << id);
    return *nodes_[id];
  }
  const MethodRegistry& registry() const { return registry_; }
  const MachineConfig& config() const { return config_; }
  const CostModel& costs() const { return config_.costs; }
  MethodRegistry& registry() { return registry_; }

  /// Routes a message from a node. Called by Node::send after the sender paid
  /// its overhead. Engine-specific (network timestamping vs inbox write);
  /// the message moves once, into the engine's queue.
  virtual void route(Node& from, Message&& msg) = 0;

  /// Runs until no node has work and no message is in flight.
  virtual void run_until_quiescent() = 0;

  /// Work credits from outside a run (nodes count their own work through
  /// Node::work_created/work_retired): a credit added here holds the next
  /// run open until one is retired here — tests and demos use a phantom credit
  /// to trip the stall watchdog. Call only between runs, from the thread that
  /// calls run_until_quiescent. The deterministic engine tracks work
  /// structurally and ignores these.
  virtual void on_work_created() {}
  virtual void on_work_retired() {}

  /// Convenience driver: injects an invocation of `method` on `target`
  /// (executed on `where`) with a continuation to a fresh root future, runs to
  /// quiescence, and returns the root value (Nil if the program was reactive
  /// and never replied).
  Value run_main(NodeId where, MethodId method, GlobalRef target, std::vector<Value> args);

  /// Sum of all nodes' counters.
  NodeStats total_stats() const;
  /// Messages staged in outboxes but not yet flushed (0 under Immediate and
  /// after any quiescent run). Only meaningful when the machine is not
  /// actively running.
  std::size_t buffered_msgs() const;
  /// Makespan: the largest node clock, in instructions.
  std::uint64_t max_clock() const;
  /// Makespan in simulated seconds under this machine's cost model.
  double elapsed_seconds() const { return config_.costs.seconds(max_clock()); }

  /// Asserts no contexts leaked (test support): every arena's live count is 0.
  std::size_t live_contexts() const;

  /// Runs the conformance sanitizer (panics on violation) when
  /// MachineConfig::verify is set; no-op otherwise. Engines call this once
  /// they reach quiescence.
  void verify_at_quiescence() const;

  /// Stall-watchdog dump (concert-progress): per-node ready/outbox/arena
  /// depths, each verifier's suspended-context table (method names + trace
  /// flow ids) and vclock frontier. Engines print this via CONCERT_CHECK when
  /// MachineConfig::stall_timeout expires; callable any time the nodes are
  /// not concurrently mutating (tests call it directly).
  std::string stall_report() const;

  // ---- concert-insight (postmortems) ----
  /// Serializes the machine-readable postmortem: per-node queue depths, the
  /// newest 256 events of each node's ring, health aggregates,
  /// suspended-context chains and vclock frontiers (machine/postmortem.cpp).
  /// Callable any time the nodes are not concurrently mutating.
  void write_postmortem(std::ostream& os, const std::string& reason) const;
  /// Writes the postmortem to MachineConfig::postmortem_path — at most once
  /// per run (engines re-arm at run start) and a no-op when the path is
  /// empty. Returns the path written, or "" when nothing was written.
  std::string dump_postmortem(const std::string& reason);

  // ---- concert-scope (tracing / metrics) ----
  /// Draws a machine-unique causal id (> 0) for trace flow events: assigned
  /// to a message at send time and re-recorded at receive, or to a suspend
  /// and re-recorded at resume. Relaxed atomic — any thread may draw.
  std::uint64_t next_trace_cause() {
    return trace_cause_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Shared wall-clock origin for every node's trace/metrics timestamps
  /// (stamped at machine construction), so cross-node flows line up.
  Tracer::Clock::time_point trace_epoch() const { return trace_epoch_; }
  /// Nanoseconds of steady_clock elapsed since the trace epoch.
  std::uint64_t wall_now_ns() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          Tracer::Clock::now() - trace_epoch_)
                                          .count());
  }

 protected:
  /// Quiescence-time memory housekeeping on every node (arena freelist
  /// canonicalization, payload-pool trim). Engines call it once the system is
  /// idle; it charges nothing, so simulated clocks are unaffected.
  void quiesce_memory();

  /// Re-arms the once-per-run postmortem dump; engines call it at run start.
  void arm_postmortem() { postmortem_dumped_ = false; }

  /// Takes a queue-depth health sample on every node. The deterministic
  /// engine calls this on its watchdog cadence (single-threaded, outside the
  /// cost model); the threaded engine samples per node from the owning
  /// thread instead and never calls this.
  void sample_health_all();

  MachineConfig config_;
  MethodRegistry registry_;
  std::vector<std::unique_ptr<Node>> nodes_;

 private:
  Tracer::Clock::time_point trace_epoch_{};
  std::atomic<std::uint64_t> trace_cause_{0};
  bool postmortem_dumped_ = false;
};

class MetricsRegistry;

/// Fills `out` with the machine's counters and histograms: every NodeStats
/// field summed across nodes and the trace rings' dropped-record total, plus
/// (when MachineConfig::metrics was on) the merged invocation-latency,
/// per-method latency, inbox-depth, context-lifetime and flush-size
/// histograms, plus (once an engine has sampled) merged queue-depth health
/// histograms and a load-skew gauge, plus (when MachineConfig::profile_sites
/// was on) per-call-edge counters and latency histograms. Call after
/// quiescence.
void export_metrics(const Machine& machine, MetricsRegistry& out);

/// Dumps the per-call-site profile (SITES_*.json): every (caller, callee)
/// edge merged across nodes with invocation / NB-hit / fallback / divert
/// counts, latency quantiles and the NodeStats totals the counts reconcile
/// against. Empty `sites` array unless MachineConfig::profile_sites was on.
void write_sites_json(const Machine& machine, std::ostream& os);

}  // namespace concert
