#include "support/stats.hpp"

#include <sstream>

namespace concert {

namespace {

// The two ways operator+= combines a counter across nodes (the `merge`
// column of CONCERT_NODE_STATS).
std::uint64_t sum(std::uint64_t a, std::uint64_t b) { return a + b; }
std::uint64_t max(std::uint64_t a, std::uint64_t b) { return a > b ? a : b; }

}  // namespace

NodeStats& NodeStats::operator+=(const NodeStats& o) {
#define CONCERT_NODE_STATS_MERGE(field, merge, metric) field = merge(field, o.field);
  CONCERT_NODE_STATS(CONCERT_NODE_STATS_MERGE)
#undef CONCERT_NODE_STATS_MERGE
  for (std::size_t i = 0; i < kBundleBuckets; ++i) bundle_size_hist[i] += o.bundle_size_hist[i];
  return *this;
}

void NodeStats::record_bundle(std::size_t n) {
  std::size_t b;
  if (n <= 4) {
    b = n > 0 ? n - 1 : 0;
  } else if (n <= 8) {
    b = 4;
  } else if (n <= 16) {
    b = 5;
  } else if (n <= 32) {
    b = 6;
  } else {
    b = 7;
  }
  ++bundle_size_hist[b];
}

std::string NodeStats::summary() const {
  std::ostringstream os;
  os << "invocations: stack=" << stack_calls << " (completed " << stack_completions
     << ", fell back " << fallbacks << "), heap=" << heap_invokes << ", local=" << local_invokes
     << ", remote=" << remote_invokes << "\n"
     << "contexts: alloc=" << contexts_allocated << " free=" << contexts_freed
     << " suspend=" << suspensions << " resume=" << resumptions << " proxy=" << proxy_contexts
     << "\n"
     << "continuations: created=" << continuations_created << " forwarded="
     << continuations_forwarded << "\n"
     << "messages: sent=" << msgs_sent << " recv=" << msgs_received << " bytes=" << bytes_sent
     << " replies=" << replies_sent << "\n"
     << "comms: flushes=" << outbox_flushes << " bundles=" << bundles_sent << " coalesced="
     << msgs_coalesced << " mean_bundle=" << mean_bundle_size() << " overhead_insns="
     << comm_instructions << "\n"
     << "bundle size hist [1,2,3,4,5-8,9-16,17-32,33+]:";
  for (std::size_t i = 0; i < kBundleBuckets; ++i) os << " " << bundle_size_hist[i];
  os << "\n"
     << "inbox: batches=" << inbox_batches << " drained=" << inbox_batched_msgs
     << " mean_batch=" << mean_inbox_batch() << " max_batch=" << inbox_batch_max
     << " parks=" << inbox_parks << " wakeups=" << park_wakeups << "\n"
     << "location cache: hits=" << loc_cache_hits << " misses=" << loc_cache_misses
     << " invalidations=" << loc_cache_invalidations << " evictions=" << cache_evictions << "\n"
     << "memory: ctx_fresh=" << ctx_fresh << " ctx_recycled=" << ctx_recycled
     << " slab_bytes=" << arena_slab_bytes << " resets=" << arena_resets << "\n"
     << "payloads: acquires=" << payload_acquires << " pool_hits=" << payload_pool_hits
     << " releases=" << payload_releases << " discards=" << payload_discards
     << " moves=" << payload_moves << "\n";
  return os.str();
}

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  sum_ += x;
  ++n_;
}

}  // namespace concert
