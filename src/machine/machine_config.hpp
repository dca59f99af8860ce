// MachineConfig: the immutable per-machine settings (cost model, execution
// mode, policies, observability switches). Kept apart from machine.hpp so
// that node.hpp can bind a node's config once at construction and answer
// the invoke fast path's config questions with inline loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/schema.hpp"
#include "machine/cost_model.hpp"
#include "machine/flush_policy.hpp"

namespace concert {

#ifdef CONCERT_VERIFY
inline constexpr bool kVerifyByDefault = true;
#else
inline constexpr bool kVerifyByDefault = false;
#endif

struct MachineConfig {
  CostModel costs = CostModel::workstation();
  ExecMode mode = ExecMode::Hybrid3;
  FallbackPolicy policy = FallbackPolicy::RevertToParallel;
  /// Full-detail event ring (machine/trace.hpp): every event kind, with wall
  /// stamps and causal flow ids, for chrome://tracing / Perfetto export. Off,
  /// each node still keeps its always-on coarse window of the newest 256
  /// scheduler events for POSTMORTEM.json.
  bool trace = false;
  /// Per-node full-detail ring capacity, in records. When a node's ring
  /// fills, the oldest records are overwritten and counted as dropped
  /// (surfaced in the export metadata and concert_trace_records_dropped_total)
  /// — long traced runs keep the newest window instead of growing without
  /// bound.
  std::size_t trace_capacity = std::size_t{1} << 20;
  /// concert-scope latency/queue-depth histograms: per-method invocation
  /// latency, inbox depth at drain, context lifetime and outbox flush size.
  /// NodeMetrics is a sink of Node::trace: each run the trace pairs is
  /// one latency record, whether or not `trace` is on. One branch per
  /// metered trace site when off; steady_clock stamps when on. Recording is
  /// outside the cost model either way, so simulated clocks, message counts
  /// and the paper tables are bit-identical with it on or off.
  bool metrics = false;
  /// Ablation A2: when false, futures are modeled as separately allocated
  /// (one extra memory indirection charged on every touch and fill, as in
  /// StackThreads); when true (default, the paper's design) they live in the
  /// context.
  bool futures_in_context = true;
  /// Comms layer: when outgoing messages leave the per-destination outboxes.
  /// Immediate (default) bypasses staging and reproduces the seed behaviour
  /// bit-for-bit; SizeThreshold/FlushOnIdle coalesce messages into bundles.
  FlushPolicy flush_policy = FlushPolicy::immediate();
  /// Dynamic conformance sanitizer (src/verify/): nodes record observed call
  /// edges and blocking/continuation events, checked against the registry's
  /// declared facts at quiescence. Recording is outside the cost model, so
  /// simulated clocks and message counts are identical either way. Defaults
  /// on when built with -DCONCERT_VERIFY; runtime-togglable per machine.
  bool verify = kVerifyByDefault;
  /// Threaded engine only: pin each node's thread to a CPU, with CPUs
  /// interleaved across NUMA domains (parsed from /sys on Linux) so
  /// neighbouring node ids land on different memory domains — the multi-
  /// computer-on-a-multicomputer placement. Off by default; a no-op on
  /// platforms without affinity support and in the deterministic engine.
  bool pin_threads = false;
  /// Delivery-order shuffle (concert-race; deterministic engine only): when
  /// nonzero, SimNetwork picks a seeded pseudo-random message among all
  /// channel-FIFO-eligible deliveries (deliver_at within the receiver's
  /// current horizon) instead of strict (deliver_at, seq) order — the
  /// adversarial schedules a real interconnect is allowed to produce, so
  /// latent delivery-order races manifest under test. Each seed is itself
  /// fully deterministic. 0 (default) keeps the strict order, bit-identical
  /// to every pre-existing run; per-channel FIFO holds either way.
  std::uint64_t shuffle_seed = 0;
  /// Stall watchdog (concert-progress): when nonzero, a run that makes no
  /// scheduling progress for this many milliseconds panics with a full
  /// stall_report() — per-node queue depths, suspended-context tables and the
  /// vclock frontier — instead of hanging. The threaded engine measures
  /// wall time since the summed per-node work-credit counters (created plus
  /// retired) last moved while credits were outstanding; the deterministic engine
  /// treats it as a per-run wall-clock budget (its scheduler cannot stall
  /// while work remains, but a forwarding livelock keeps it busy forever).
  /// 0 (default) disables the watchdog; every pre-existing run, clock and
  /// paper table is bit-identical with it off.
  std::uint64_t stall_timeout = 0;
  /// Per-call-site profiler (concert-insight): per declared call edge
  /// (caller method -> callee method) invocation / NB-hit / fallback /
  /// divert counters and log2 stack-latency histograms, recorded on the
  /// invoke and fallback paths. Off by default — one predictable branch per
  /// site when off, steady_clock stamps when on; recording is outside the
  /// cost model, so simulated clocks are bit-identical either way.
  /// Exported through MetricsRegistry and write_sites_json (SITES_*.json).
  bool profile_sites = false;
  /// Where the stall watchdog and the engines' panic paths write the
  /// machine-readable postmortem (event rings, queue depths, suspended-
  /// context chains, vclock frontier) before rethrowing. One dump per run;
  /// empty disables the file without affecting the free-text stall_report()
  /// carried in the exception message. Rendered by `concert_trace postmortem`.
  std::string postmortem_path = "POSTMORTEM.json";
};

}  // namespace concert
