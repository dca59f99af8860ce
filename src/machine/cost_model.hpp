// Abstract instruction-cost model — the stand-in for the paper's CM-5 and
// T3D hardware.
//
// The paper reports overheads in SPARC instructions (Table 2) and runtimes in
// seconds on 33 MHz CM-5 nodes and 150 MHz T3D nodes. We charge abstract
// "instructions" to a node's local clock at the exact points the runtime does
// work; simulated time is instructions / clock_hz. The constants below are
// calibrated from the paper's own published numbers:
//
//   * a C function call costs 5 instructions (SPARC register windows);
//   * sequential schema calls add 6-8 instructions;
//   * a local heap-based parallel invocation costs ~130 instructions;
//   * fallback (stack unwinding into the heap) costs 8-140 instructions
//     depending on the caller/callee schema pair;
//   * on the CM-5 a remote invocation costs ~10x a local heap invocation,
//     and replies are cheap (a single packet);
//   * on the T3D per-message software overhead dominates, so reducing the
//     message count (the `forward` EM3D variant) pays off.
//
// Costs are charged where the work happens (context allocation, state saving,
// linkage installation, message injection), so Table 2 is *measured* from the
// same code paths the applications execute, not read back from this file.
#pragma once

#include <cstdint>
#include <string>

namespace concert {

struct CostModel {
  std::string name = "workstation";
  double clock_hz = 40.0e6;  ///< Simulated node clock (instructions/second).

  // --- sequential call machinery (paper Sec. 4.1) ---
  std::uint64_t c_call = 5;          ///< Base C function call.
  std::uint64_t nb_call_extra = 6;   ///< Extra for a Non-blocking schema call.
  std::uint64_t mb_call_extra = 7;   ///< Extra for a May-block schema call.
  std::uint64_t cp_call_extra = 8;   ///< Extra for a Continuation-passing call.

  // --- parallelization checks (speculative inlining support, Sec. 4.2) ---
  std::uint64_t name_translation = 4;  ///< Global name -> local address.
  std::uint64_t locality_check = 3;    ///< Is the target object on this node?
  std::uint64_t lock_check = 2;        ///< Is the target object unlocked?

  // --- heap context machinery ---
  std::uint64_t context_alloc = 32;   ///< Allocate + initialize a heap context.
  std::uint64_t context_free = 12;    ///< Return a context to the arena.
  std::uint64_t save_word = 2;        ///< Save one live value into a context slot.
  std::uint64_t linkage_install = 8;  ///< Install a return continuation.
  std::uint64_t schedule_enqueue = 12;///< Push a ready context on the scheduler queue.
  std::uint64_t dispatch = 14;        ///< Pop + dispatch a ready context.
  std::uint64_t future_expect = 3;    ///< Mark a slot as an awaited future.
  std::uint64_t touch = 2;            ///< Test a future (the counter-based touch).
  std::uint64_t reply_store = 6;      ///< Deliver a value into a future slot.
  std::uint64_t continuation_create = 9;  ///< Materialize a first-class continuation.
  std::uint64_t proxy_setup = 18;     ///< Build a proxy context for a stored/forwarded continuation.
  std::uint64_t heap_invoke_fixed = 10;   ///< Residual linkage work of a local heap invocation
                                          ///< (argument marshalling, queue linkage) so the whole
                                          ///< path sums to the paper's ~130 instructions.
  std::uint64_t respeculation = 60;       ///< Ablation A1: cost of re-attempting sequential
                                          ///< execution (and unwinding again) each time an
                                          ///< already-fallen-back activation resumes, under
                                          ///< FallbackPolicy::AlwaysRetrySequential.

  // --- interconnect ---
  std::uint64_t msg_send_overhead = 300;   ///< Sender-side software overhead per message.
  std::uint64_t msg_recv_overhead = 300;   ///< Receiver-side software overhead per message.
  std::uint64_t reply_send_overhead = 150; ///< Sender-side overhead for a reply message.
  std::uint64_t reply_recv_overhead = 150; ///< Receiver-side overhead for a reply.
  std::uint64_t per_packet = 60;           ///< Additional cost per network packet.
  std::uint32_t packet_bytes = 16;         ///< Packet payload size.
  std::uint64_t wire_latency = 300;        ///< Flight time (receiver-clock instructions).

  // --- message coalescing (per-destination outboxes) ---
  std::uint64_t outbox_stage = 4;    ///< Staging one message in an outbox bucket.
  std::uint64_t bundle_marshal = 4;  ///< Per-element marshalling when a flush combines >1.
  std::uint64_t bundle_demux = 6;    ///< Per-element dispatch when unpacking a bundle.

  /// Number of packets a message of `bytes` occupies (at least one).
  std::uint64_t packets(std::uint32_t bytes) const {
    return 1 + (bytes > 0 ? (bytes - 1) / packet_bytes : 0);
  }

  /// Sender-side cost of one plain message: fixed software overhead plus
  /// processor-driven injection of each packet.
  std::uint64_t send_cost(bool is_reply, std::uint32_t bytes) const {
    return (is_reply ? reply_send_overhead : msg_send_overhead) + per_packet * packets(bytes);
  }
  /// Receiver-side fixed overhead of one plain message.
  std::uint64_t recv_cost(bool is_reply) const {
    return is_reply ? reply_recv_overhead : msg_recv_overhead;
  }

  /// Amortized sender-side cost of a bundle of `elems` staged messages: ONE
  /// per-message overhead (request-grade if any element is a request) plus
  /// per-packet costs for the combined payload plus per-element marshalling.
  /// With elems == 1 callers should use send_cost (no bundle envelope).
  std::uint64_t bundle_send_cost(bool any_invoke, std::uint32_t bytes, std::size_t elems) const {
    return (any_invoke ? msg_send_overhead : reply_send_overhead) + per_packet * packets(bytes) +
           bundle_marshal * elems;
  }
  /// Amortized receiver-side cost: one overhead plus per-element demux.
  std::uint64_t bundle_recv_cost(bool any_invoke, std::size_t elems) const {
    return (any_invoke ? msg_recv_overhead : reply_recv_overhead) + bundle_demux * elems;
  }

  /// Simulated seconds for an instruction count.
  double seconds(std::uint64_t instructions) const {
    return static_cast<double>(instructions) / clock_hz;
  }

  /// 33 MHz SPARC nodes, fat-tree network, cheap single-packet replies.
  static CostModel cm5();
  /// 150 MHz Alpha nodes; higher per-message software overhead, bigger
  /// packets, so message *count* matters more than message size.
  static CostModel t3d();
  /// Single 40 MHz SPARC workstation (Table 3's sequential experiments).
  static CostModel workstation();
};

}  // namespace concert
