#include "machine/machine.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/json.hpp"
#include "support/metrics.hpp"
#include "verify/conformance.hpp"

namespace concert {

Machine::Machine(std::size_t nodes, MachineConfig config)
    : config_(config), trace_epoch_(Tracer::Clock::now()) {
  CONCERT_CHECK(nodes > 0, "machine needs at least one node");
  // The registry must know before seal() whether to materialize spec spans
  // (apps declare + finalize against this machine's registry afterwards).
  registry_.set_site_specialization(config_.specialize_edges);
  nodes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(i), *this));
    if (config_.trace) nodes_.back()->tracer.enable(config_.trace_capacity, trace_epoch_);
  }
  // Outboxes are sized once every node exists (a node cannot know the
  // machine size mid-construction).
  for (auto& n : nodes_) n->init_comms(nodes);
}

Machine::~Machine() = default;

Value Machine::run_main(NodeId where, MethodId method, GlobalRef target,
                        std::vector<Value> args) {
  CONCERT_CHECK(registry_.finalized(), "registry must be finalized before running");
  Node& nd = node(where);

  // The root future lives in a proxy context: it receives the program's
  // answer but is never scheduled.
  Context& root = nd.alloc_context_raw(kInvalidMethod, 1);
  root.status = ContextStatus::Proxy;
  root.expect(0);

  // Seed through the normal send path so message accounting stays balanced
  // (the "spawn" costs one self-message on the seeding node).
  Message msg = Message::invoke(where, where, method, target, std::move(args),
                                Continuation{root.ref(), 0});
  nd.send(std::move(msg));
  run_until_quiescent();

  const Value result = root.slot_full(0) ? root.get(0) : Value::nil();
  nd.free_context(root);
  return result;
}

NodeStats Machine::total_stats() const {
  NodeStats total;
  for (const auto& n : nodes_) total += n->stats;
  return total;
}

std::uint64_t Machine::max_clock() const {
  std::uint64_t mx = 0;
  for (const auto& n : nodes_) mx = std::max(mx, n->clock());
  return mx;
}

std::size_t Machine::buffered_msgs() const {
  std::size_t n = 0;
  for (const auto& nd : nodes_) n += nd->outbox_pending();
  return n;
}

void Machine::quiesce_memory() {
  for (auto& n : nodes_) n->quiesce_memory();
}

void Machine::sample_health_all() {
  for (auto& n : nodes_) n->sample_health();
}

void Machine::verify_at_quiescence() const {
  if (config_.verify) verify::enforce_conformance(*this);
}

std::string Machine::stall_report() const {
  std::ostringstream os;
  os << "stall report (" << nodes_.size() << " nodes):\n";
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const Node& nd = *nodes_[n];
    const std::vector<const Context*> susp = nd.suspended_contexts();
    os << "  node " << n << ": ready=" << nd.ready_count() << " outbox=" << nd.outbox_pending()
       << " live_ctx=" << nd.arena().live_count() << " suspended=" << susp.size();
    for (const Context* ctx : susp) {
      os << "\n    ctx " << n << ":" << ctx->id << " in "
         << method_name_or_id(registry_.methods(), ctx->method) << " (flow " << ctx->trace_flow
         << ")";
    }
    const verify::VerifyRecorder& rec = nd.verifier;
    if (rec.enabled() && !rec.vclock().empty()) {
      os << "\n    vclock frontier:";
      for (std::uint32_t c : rec.vclock()) os << " " << c;
    }
    os << "\n";
  }
  return os.str();
}

std::size_t Machine::live_contexts() const {
  std::size_t live = 0;
  for (const auto& n : nodes_) live += n->arena().live_count();
  return live;
}

namespace {

/// One call edge of the site profile, merged across nodes (concert-insight).
struct MergedSite {
  MethodId caller = kInvalidMethod;  ///< kInvalidMethod = "(message)" wrapper path
  SiteRecord rec;
};

std::vector<MergedSite> merged_sites(const Machine& m) {
  std::vector<MergedSite> out;
  for (NodeId nid = 0; nid < m.node_count(); ++nid) {
    const auto& table = m.node(nid).sites().by_caller();
    for (std::size_t c = 0; c < table.size(); ++c) {
      const MethodId caller = c == 0 ? kInvalidMethod : static_cast<MethodId>(c - 1);
      for (const SiteRecord& r : table[c]) {
        MergedSite* slot = nullptr;
        for (MergedSite& s : out) {
          if (s.caller == caller && s.rec.callee == r.callee) {
            slot = &s;
            break;
          }
        }
        if (slot == nullptr) {
          out.emplace_back();
          out.back().caller = caller;
          out.back().rec.callee = r.callee;
          slot = &out.back();
        }
        slot->rec.merge(r);
      }
    }
  }
  // Deterministic export order: hottest edges first, names break ties.
  std::sort(out.begin(), out.end(), [](const MergedSite& a, const MergedSite& b) {
    if (a.rec.invokes != b.rec.invokes) return a.rec.invokes > b.rec.invokes;
    if (a.caller != b.caller) return a.caller < b.caller;
    return a.rec.callee < b.rec.callee;
  });
  return out;
}

std::string site_method_name(const Machine& m, MethodId id) {
  if (id == kInvalidMethod) return "(message)";
  return method_name_or_id(m.registry().methods(), id);
}

}  // namespace

void export_metrics(const Machine& machine, MetricsRegistry& out) {
  const NodeStats t = machine.total_stats();
  out.add_counter("concert_nodes", "Nodes in the machine", machine.node_count());

  // Every scalar NodeStats counter, combined across nodes, under the name
  // CONCERT_NODE_STATS gives it.
#define CONCERT_NODE_STATS_ROW(field, merge, metric) {metric, t.field},
  const std::pair<const char*, std::uint64_t> counters[] = {
      CONCERT_NODE_STATS(CONCERT_NODE_STATS_ROW)};
#undef CONCERT_NODE_STATS_ROW
  for (const auto& [name, value] : counters) out.add_counter(name, "", value);
  std::uint64_t dropped = 0;
  for (NodeId nid = 0; nid < machine.node_count(); ++nid) {
    dropped += machine.node(nid).tracer.dropped();
  }
  out.add_counter("concert_trace_records_dropped_total", "", dropped);

  // concert-insight: merged queue-depth health samples plus a load-skew
  // gauge (max/mean of per-node mean live contexts). Empty until an engine
  // has taken samples.
  {
    Histogram ready_h;
    Histogram outbox_h;
    Histogram live_h;
    std::uint64_t samples = 0;
    double max_mean = 0.0;
    double sum_mean = 0.0;
    std::size_t sampled_nodes = 0;
    for (NodeId nid = 0; nid < machine.node_count(); ++nid) {
      const HealthStats& h = machine.node(nid).health;
      if (h.samples == 0) continue;
      samples += h.samples;
      ready_h += h.ready_depth;
      outbox_h += h.outbox_depth;
      live_h += h.live_ctx;
      const double mean = h.live_ctx.mean();
      max_mean = std::max(max_mean, mean);
      sum_mean += mean;
      ++sampled_nodes;
    }
    if (samples > 0) {
      out.add_counter("concert_health_samples_total", "Queue-depth health samples taken",
                      samples);
      out.add_histogram("concert_health_ready_depth", "Ready-queue depth at health samples",
                        ready_h);
      out.add_histogram("concert_health_outbox_depth", "Outbox backlog at health samples",
                        outbox_h);
      out.add_histogram("concert_health_live_ctx", "Live heap contexts at health samples",
                        live_h);
      const double avg = sampled_nodes > 0 ? sum_mean / static_cast<double>(sampled_nodes) : 0.0;
      const double skew = avg > 0.0 ? max_mean / avg : 1.0;
      out.add_counter("concert_load_skew_x1000",
                      "Load skew: max/mean of per-node mean live contexts, scaled by 1000",
                      static_cast<std::uint64_t>(skew * 1000.0));
    }
  }

  // concert-insight: per-call-edge profile (MachineConfig::profile_sites).
  for (const MergedSite& s : merged_sites(machine)) {
    const MetricLabels labels = {{"caller", site_method_name(machine, s.caller)},
                                 {"callee", site_method_name(machine, s.rec.callee)}};
    out.add_counter("concert_site_invokes_total", "Invocations issued at this call edge",
                    s.rec.invokes, labels);
    out.add_counter("concert_site_attempts_total", "Stack speculations begun at this call edge",
                    s.rec.attempts, labels);
    out.add_counter("concert_site_nb_hits_total", "Speculations completed on the stack",
                    s.rec.nb_hits, labels);
    out.add_counter("concert_site_fallbacks_total", "Speculations that fell back to the heap",
                    s.rec.fallbacks, labels);
    out.add_counter("concert_site_diverts_total",
                    "Invocations diverted to the heap or a remote node with no stack attempt",
                    s.rec.diverts, labels);
    if (s.rec.stack_ns.count() > 0) {
      out.add_histogram("concert_site_stack_latency_ns",
                        "Wall latency of stack attempts that hit", s.rec.stack_ns, labels);
    }
    if (s.rec.fallback_ns.count() > 0) {
      out.add_histogram("concert_site_fallback_latency_ns",
                        "Wall latency of stack attempts that fell back", s.rec.fallback_ns,
                        labels);
    }
  }

  // Histograms: per-node recorders merged machine-wide; per-method latency
  // labeled by method name.
  Histogram invoke_lat, inbox_depth, ctx_life, flush_size, wave_size;
  std::vector<Histogram> per_method;
  bool any = false;
  for (NodeId nid = 0; nid < machine.node_count(); ++nid) {
    const NodeMetrics* mx = machine.node(nid).metrics();
    if (mx == nullptr) continue;
    any = true;
    invoke_lat += mx->invoke_latency_ns;
    inbox_depth += mx->inbox_depth;
    ctx_life += mx->ctx_lifetime_ns;
    flush_size += mx->flush_size;
    wave_size += mx->wave_size;
    if (mx->per_method.size() > per_method.size()) per_method.resize(mx->per_method.size());
    for (std::size_t m = 0; m < mx->per_method.size(); ++m) per_method[m] += mx->per_method[m];
  }
  if (!any) return;
  out.add_histogram("concert_invoke_latency_ns", "Invocation wall latency (all methods)",
                    invoke_lat);
  out.add_histogram("concert_inbox_depth", "Messages drained per inbox batch", inbox_depth);
  out.add_histogram("concert_ctx_lifetime_ns", "Context allocation-to-free wall time", ctx_life);
  out.add_histogram("concert_flush_size", "Staged messages per outbox flush", flush_size);
  if (wave_size.count() > 0) {
    out.add_histogram("concert_wave_size", "Messages per merged wave", wave_size);
  }
  for (std::size_t m = 0; m < per_method.size(); ++m) {
    if (per_method[m].count() == 0) continue;
    const std::string& name = m < machine.registry().size()
                                  ? machine.registry().info(static_cast<MethodId>(m)).name
                                  : "(unknown)";
    out.add_histogram("concert_method_latency_ns", "Invocation wall latency", per_method[m],
                      {{"method", name}});
  }
}

void write_sites_json(const Machine& machine, std::ostream& os) {
  const auto hist = [&os](const char* key, const Histogram& h) {
    os << "\"" << key << "\": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
       << ", \"p50\": " << h.quantile(0.5) << ", \"p99\": " << h.quantile(0.99)
       << ", \"max\": " << h.max() << "}";
  };

  const NodeStats t = machine.total_stats();
  os << "{\n";
  os << "  \"tool\": \"concert-insight\",\n";
  os << "  \"analysis\": \"sites\",\n";
  os << "  \"profile_sites\": " << (machine.config().profile_sites ? "true" : "false") << ",\n";
  os << "  \"nodes\": " << machine.node_count() << ",\n";
  // The aggregate NodeStats the per-site counts reconcile against:
  //   sum(attempts) == stack_calls, sum(nb_hits) == stack_completions,
  //   sum(invokes) == local_invokes + remote_invokes.
  os << "  \"totals\": {\"stack_calls\": " << t.stack_calls
     << ", \"stack_completions\": " << t.stack_completions << ", \"fallbacks\": " << t.fallbacks
     << ", \"local_invokes\": " << t.local_invokes
     << ", \"remote_invokes\": " << t.remote_invokes << "},\n";
  os << "  \"sites\": [";
  bool first = true;
  for (const MergedSite& s : merged_sites(machine)) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"caller\": \"" << json_escape(site_method_name(machine, s.caller))
       << "\", \"callee\": \"" << json_escape(site_method_name(machine, s.rec.callee))
       << "\", \"invokes\": " << s.rec.invokes << ", \"remote\": " << s.rec.remote
       << ", \"attempts\": " << s.rec.attempts << ", \"nb_hits\": " << s.rec.nb_hits
       << ", \"fallbacks\": " << s.rec.fallbacks << ", \"diverts\": " << s.rec.diverts
       << ", \"nb_hit_frac\": "
       << (s.rec.attempts > 0
               ? static_cast<double>(s.rec.nb_hits) / static_cast<double>(s.rec.attempts)
               : 0.0)
       << ", ";
    hist("stack_ns", s.rec.stack_ns);
    os << ", ";
    hist("fallback_ns", s.rec.fallback_ns);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace concert
