// Machine-readable postmortems (concert-insight).
//
// The stall watchdog (concert-progress) carries a free-text stall_report()
// inside its exception message — fine for a human scrolling a CI log, hostile
// to anything that wants to *parse* the failure. write_postmortem serializes
// the same state, plus the newest events of each node's ring and its health
// aggregates, as a structured JSON document: per-node queue depths, the last
// 256 scheduler events, the suspended contexts read from each node's arena
// (in every run, verify or not) with their local continuation chains, and
// the vclock frontier. Both engines dump it (at most once per run) when the
// watchdog fires or a protocol panic unwinds the run, then rethrow;
// `concert_trace postmortem` renders the file.
//
// Thread-safety: the dump reads node-private state (rings, queues, arenas),
// so it runs only from single-threaded positions — the deterministic engine's
// scheduling loop, or the threaded engine after its node threads joined.
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "machine/machine.hpp"
#include "support/json.hpp"

namespace concert {

namespace {

/// POSTMORTEM.json schema version. 2: `flight` holds the newest records of
/// the node's one event ring, so kind "deliver" became "msg_recv" and traced
/// runs add the fine kinds (msg_send, dispatch_end, stack_run, run_end).
constexpr int kPostmortemSchema = 2;

std::string method_name(const Machine& m, MethodId id) {
  if (id == kInvalidMethod) return "(none)";
  return method_name_or_id(m.registry().methods(), id);
}

void write_hist(std::ostream& os, const char* key, const Histogram& h) {
  os << "\"" << key << "\": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
     << ", \"p50\": " << h.quantile(0.5) << ", \"p99\": " << h.quantile(0.99)
     << ", \"max\": " << h.max() << "}";
}

/// Walks a suspended context's local continuation chain upward (the method
/// each reply unwinds into), hop-capped; remote hops end the walk — the rest
/// of the chain lives on another node's postmortem entry.
std::vector<std::string> continuation_chain(const Machine& m, const Node& nd,
                                            const Context* ctx) {
  std::vector<std::string> chain;
  constexpr int kMaxHops = 16;
  Continuation k = ctx->ret;
  for (int hop = 0; hop < kMaxHops && k.valid(); ++hop) {
    if (k.target.node != nd.id()) {
      std::string remote = "(remote node ";
      remote.append(std::to_string(k.target.node)).append(")");
      chain.push_back(std::move(remote));
      break;
    }
    const Context* up = nd.arena().try_resolve(k.target);
    if (up == nullptr) break;
    chain.push_back(method_name(m, up->method));
    k = up->ret;
  }
  return chain;
}

}  // namespace

void Machine::write_postmortem(std::ostream& os, const std::string& reason) const {
  os << "{\n";
  os << "  \"tool\": \"concert-insight\",\n";
  os << "  \"analysis\": \"postmortem\",\n";
  os << "  \"schema_version\": " << kPostmortemSchema << ",\n";
  os << "  \"reason\": \"" << json_escape(reason) << "\",\n";
  os << "  \"nodes\": " << nodes_.size() << ",\n";
  os << "  \"max_clock\": " << max_clock() << ",\n";
  os << "  \"live_contexts\": " << live_contexts() << ",\n";
  os << "  \"buffered_msgs\": " << buffered_msgs() << ",\n";
  os << "  \"node_reports\": [";
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const Node& nd = *nodes_[n];
    os << (n == 0 ? "\n" : ",\n");
    os << "    {\"node\": " << n << ", \"clock\": " << nd.clock()
       << ", \"ready\": " << nd.ready_count() << ", \"outbox\": " << nd.outbox_pending()
       << ", \"live_ctx\": " << nd.arena().live_count() << ",\n";
    const NodeStats& st = nd.stats;
    os << "     \"stats\": {\"msgs_sent\": " << st.msgs_sent
       << ", \"msgs_received\": " << st.msgs_received << ", \"stack_calls\": " << st.stack_calls
       << ", \"stack_completions\": " << st.stack_completions
       << ", \"fallbacks\": " << st.fallbacks << ", \"suspensions\": " << st.suspensions
       << ", \"resumptions\": " << st.resumptions
       << ", \"contexts_allocated\": " << st.contexts_allocated << "},\n";

    // Health aggregates (periodic queue-depth samples; zero-count when the
    // engine never reached a sampling point).
    os << "     \"health\": {\"samples\": " << nd.health.samples << ", ";
    write_hist(os, "ready_depth", nd.health.ready_depth);
    os << ", ";
    write_hist(os, "outbox_depth", nd.health.outbox_depth);
    os << ", ";
    write_hist(os, "live_ctx", nd.health.live_ctx);
    os << "},\n";

    // The newest events of the node's ring, oldest first; flight_total counts
    // every event the ring recorded.
    os << "     \"flight_total\": " << nd.tracer.total() << ",\n";
    os << "     \"flight\": [";
    const std::vector<TraceRecord> ring = nd.tracer.snapshot(Tracer::kCoarseWindow);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const TraceRecord& r = ring[i];
      os << (i == 0 ? "\n" : ",\n");
      os << "       {\"clock\": " << r.clock << ", \"kind\": \"" << trace_kind_name(r.kind)
         << "\", \"method\": \"" << json_escape(method_name(*this, r.method)) << "\", \"arg\": "
         << r.arg << "}";
    }
    os << (ring.empty() ? "]" : "\n     ]") << ",\n";

    // Suspended contexts, in id order, with their continuation chains.
    os << "     \"suspended\": [";
    const std::vector<const Context*> susp = nd.suspended_contexts();
    for (std::size_t s = 0; s < susp.size(); ++s) {
      os << (s == 0 ? "\n" : ",\n");
      os << "       {\"ctx\": " << susp[s]->id << ", \"method\": \""
         << json_escape(method_name(*this, susp[s]->method)) << "\", \"flow\": "
         << susp[s]->trace_flow << ", \"chain\": [";
      const std::vector<std::string> chain = continuation_chain(*this, nd, susp[s]);
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (i > 0) os << ", ";
        os << "\"" << json_escape(chain[i]) << "\"";
      }
      os << "]}";
    }
    os << (susp.empty() ? "]" : "\n     ]") << ",\n";

    // Vclock frontier (delivery-order sanitizer; empty when verify is off).
    os << "     \"vclock\": [";
    const verify::VerifyRecorder& rec = nd.verifier;
    if (rec.enabled()) {
      const std::vector<std::uint32_t>& vc = rec.vclock();
      for (std::size_t i = 0; i < vc.size(); ++i) {
        if (i > 0) os << ", ";
        os << vc[i];
      }
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
}

std::string Machine::dump_postmortem(const std::string& reason) {
  if (postmortem_dumped_ || config_.postmortem_path.empty()) return "";
  postmortem_dumped_ = true;
  std::ofstream out(config_.postmortem_path);
  if (!out) return "";
  write_postmortem(out, reason);
  return config_.postmortem_path;
}

}  // namespace concert
