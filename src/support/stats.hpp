// Runtime event counters and simple summary statistics.
//
// Every node keeps a `NodeStats`; benchmark harnesses aggregate them to report
// the quantities the paper's tables sweep (local vs remote invocation ratios,
// heap contexts created, fallbacks taken, messages sent, ...). Figure 9's
// "contexts only on the block perimeter" claim is checked from these counters.
#pragma once

#include <cstdint>
#include <string>

namespace concert {

/// Every scalar NodeStats counter, listed once: X(field, merge, metric).
/// `merge` is how operator+= combines two nodes' values — `sum`, or `max`
/// for the two high-water marks — and `metric` is the name export_metrics
/// gives the machine-wide value (Prometheus style: event counts end in
/// _total). The struct, operator+= and the export table are generated from
/// this list; summary() groups the counters by hand.
#define CONCERT_NODE_STATS(X)                                                \
  /* Invocation mix. */                                                      \
  /* Sequential invocations begun on the stack ... */                        \
  X(stack_calls, sum, "concert_stack_calls_total")                           \
  /* ... of which ran to completion on the stack. */                         \
  X(stack_completions, sum, "concert_stack_completions_total")               \
  /* Call sites bound NB by edge specialization. */                          \
  X(spec_stack_calls, sum, "concert_spec_stack_calls_total")                 \
  /* Stack invocations that unwound into the heap. */                        \
  X(fallbacks, sum, "concert_fallbacks_total")                               \
  /* Invocations that went straight to a heap context. */                    \
  X(heap_invokes, sum, "concert_heap_invokes_total")                         \
  /* Invocations whose target object was local / remote. */                  \
  X(local_invokes, sum, "concert_local_invokes_total")                       \
  X(remote_invokes, sum, "concert_remote_invokes_total")                     \
  /* Context machinery. */                                                   \
  X(contexts_allocated, sum, "concert_contexts_allocated_total")             \
  X(contexts_freed, sum, "concert_contexts_freed_total")                     \
  /* Contexts blocked on unsatisfied futures, and re-enqueued after. */      \
  X(suspensions, sum, "concert_suspensions_total")                           \
  X(resumptions, sum, "concert_resumptions_total")                           \
  X(proxy_contexts, sum, "concert_proxy_contexts_total")                     \
  /* Continuations. */                                                       \
  X(continuations_created, sum, "concert_continuations_created_total")       \
  X(continuations_forwarded, sum, "concert_continuations_forwarded_total")   \
  /* Messaging. msgs_sent/received count logical messages (bundle */         \
  /* elements, not envelopes), so sent == received holds under every */      \
  /* flush policy; bytes_sent counts actual wire bytes. */                   \
  X(msgs_sent, sum, "concert_msgs_sent_total")                               \
  X(msgs_received, sum, "concert_msgs_received_total")                       \
  X(bytes_sent, sum, "concert_bytes_sent_total")                             \
  X(replies_sent, sum, "concert_replies_sent_total")                         \
  /* Comms layer (per-destination outboxes, message coalescing): outbox */   \
  /* drains (one network message each), flushes that combined >1 staged */   \
  /* message, bundles delivered, logical messages that left inside a */      \
  /* bundle, and instructions charged to messaging overhead */               \
  /* (send/recv/stage/flush; excludes wire latency). */                      \
  X(outbox_flushes, sum, "concert_outbox_flushes_total")                     \
  X(bundles_sent, sum, "concert_bundles_sent_total")                         \
  X(bundles_received, sum, "concert_bundles_received_total")                 \
  X(msgs_coalesced, sum, "concert_msgs_coalesced_total")                     \
  X(comm_instructions, sum, "concert_comm_instructions_total")               \
  /* Threaded-engine inbox: non-empty batches, messages consumed across */   \
  /* them, the largest single batch, idle parks, and parks that woke to */   \
  /* find work waiting. */                                                   \
  X(inbox_batches, sum, "concert_inbox_batches_total")                       \
  X(inbox_batched_msgs, sum, "concert_inbox_batched_msgs_total")             \
  X(inbox_batch_max, max, "concert_inbox_batch_max")                         \
  X(inbox_parks, sum, "concert_inbox_parks_total")                           \
  X(park_wakeups, sum, "concert_park_wakeups_total")                         \
  /* Location cache (resolve_forwarding): hits, misses (full chase), */      \
  /* entries dropped at migration, entries displaced by a collision. */      \
  X(loc_cache_hits, sum, "concert_loc_cache_hits_total")                     \
  X(loc_cache_misses, sum, "concert_loc_cache_misses_total")                 \
  X(loc_cache_invalidations, sum, "concert_loc_cache_invalidations_total")   \
  X(cache_evictions, sum, "concert_cache_evictions_total")                   \
  /* Context slab arena: allocs that bumped a slab (first use of an id), */  \
  /* allocs served from the freelist, bytes reserved in slabs, and */        \
  /* quiescence-time arena/pool housekeeping passes. */                      \
  X(ctx_fresh, sum, "concert_ctx_fresh_total")                               \
  X(ctx_recycled, sum, "concert_ctx_recycled_total")                         \
  X(arena_slab_bytes, sum, "concert_arena_slab_bytes")                       \
  X(arena_resets, sum, "concert_arena_resets_total")                         \
  /* Message payloads: outgoing payloads of >= 1 value (inline or */         \
  /* spilled), those built without a heap allocation (inline, or a spill */  \
  /* buffer from the pool), delivered spill buffers returned to the pool, */ \
  /* spills dropped at the pool cap or trimmed at quiescence, and */         \
  /* payloads handed over uncopied (a spill swapped into a context, a */     \
  /* re-routed payload). */                                                  \
  X(payload_acquires, sum, "concert_payload_acquires_total")                 \
  X(payload_pool_hits, sum, "concert_payload_pool_hits_total")               \
  X(payload_releases, sum, "concert_payload_releases_total")                 \
  X(payload_discards, sum, "concert_payload_discards_total")                 \
  X(payload_moves, sum, "concert_payload_moves_total")                       \
  /* Node threads pinned to a CPU (MachineConfig::pin_threads). */           \
  X(thread_pins, sum, "concert_thread_pins_total")                           \
  /* Merged-wave dispatch (MachineConfig::merge_waves): runs of >= 2 */      \
  /* same-method messages executed as one loop, the messages inside */       \
  /* them, and the largest run. A run of one is not counted here. */         \
  X(wave_runs, sum, "concert_wave_runs_total")                               \
  X(wave_msgs, sum, "concert_wave_msgs_total")                               \
  X(wave_max, max, "concert_wave_max")

/// Per-node counters for runtime events. Plain aggregates so they can be
/// combined across nodes with operator+=.
struct NodeStats {
#define CONCERT_NODE_STATS_FIELD(field, merge, metric) std::uint64_t field = 0;
  CONCERT_NODE_STATS(CONCERT_NODE_STATS_FIELD)
#undef CONCERT_NODE_STATS_FIELD

  /// Flush-size histogram buckets: 1, 2, 3, 4, 5-8, 9-16, 17-32, 33+.
  static constexpr std::size_t kBundleBuckets = 8;
  std::uint64_t bundle_size_hist[kBundleBuckets] = {};

  /// Records one inbox drain of `n` messages.
  void record_inbox_batch(std::size_t n) {
    ++inbox_batches;
    inbox_batched_msgs += n;
    if (n > inbox_batch_max) inbox_batch_max = n;
  }
  /// Mean messages per non-empty inbox drain (0 before any drain).
  double mean_inbox_batch() const {
    return inbox_batches ? static_cast<double>(inbox_batched_msgs) /
                               static_cast<double>(inbox_batches)
                         : 0.0;
  }

  /// Records one merged wave of `n` messages.
  void record_wave(std::size_t n) {
    ++wave_runs;
    wave_msgs += n;
    if (n > wave_max) wave_max = n;
  }
  /// Mean messages per merged wave (0 when none ran).
  double mean_wave_size() const {
    return wave_runs ? static_cast<double>(wave_msgs) / static_cast<double>(wave_runs) : 0.0;
  }

  /// Records one flush of `n` staged messages into the histogram.
  void record_bundle(std::size_t n);
  /// Mean staged messages per flush (0 when nothing was ever flushed).
  double mean_bundle_size() const {
    return outbox_flushes ? static_cast<double>(msgs_coalesced + (outbox_flushes - bundles_sent)) /
                                static_cast<double>(outbox_flushes)
                          : 0.0;
  }

  NodeStats& operator+=(const NodeStats& o);

  /// Multi-line human-readable dump (used by benches with --verbose).
  std::string summary() const;
};

/// Streaming min/mean/max accumulator.
class RunningStat {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace concert
