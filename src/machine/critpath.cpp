#include "machine/critpath.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <unordered_map>

#include "support/json.hpp"

namespace concert {

const char* crit_kind_name(CritKind k) {
  switch (k) {
    case CritKind::Compute: return "compute";
    case CritKind::Network: return "network";
    case CritKind::Wait: return "wait";
    case CritKind::Sched: return "sched";
  }
  return "?";
}

namespace {

/// Batch-level annotations (drains, parks, and waves no run_end closes) mark
/// no causal step of their own. Walking through them would let a drain
/// recorded between a send and its receive outrank the send as the
/// receive's predecessor, hiding every network hop, so the analysis skips
/// them.
bool annotation(TraceKind k) {
  return k == TraceKind::InboxDrain || k == TraceKind::WaveRun || k == TraceKind::Park;
}

}  // namespace

CritPathReport analyze_critical_path(const TraceDump& dump) {
  CritPathReport rep;
  const std::size_t n_ev = dump.events.size();
  if (n_ev == 0) return rep;

  std::vector<double> ts(n_ev);
  for (std::size_t i = 0; i < n_ev; ++i) ts[i] = dump.display_us(dump.events[i].rec);

  // Runs (trace_runs pairs them; they nest). run_of[i] is the begin of the
  // innermost closed run that event i lies in, after the begin and up to
  // the end (n_ev: none); every program-order hop inside a run is that
  // run's compute. run_self holds each method's runs' self time, nested
  // runs excluded.
  std::vector<std::size_t> run_of(n_ev, n_ev);
  std::vector<bool> closed(n_ev, false);
  std::unordered_map<MethodId, double> run_self;
  for (const TraceRun& run : trace_runs(dump)) {
    const NodeId nd = dump.events[run.begin].node;
    closed[run.begin] = true;
    // Inner runs close first, so the innermost claims each event.
    for (std::size_t j = run.begin + 1; j <= run.end; ++j) {
      if (dump.events[j].node == nd && run_of[j] == n_ev) run_of[j] = run.begin;
    }
    run_self[dump.events[run.begin].rec.method] += ts[run.end] - ts[run.begin] - run.nested_us;
  }

  // Flatten: per-node program-order index lists, and each event's position
  // within its node's list (its program-order predecessor is the previous
  // entry). Annotations stay out of the lists.
  std::vector<std::vector<std::size_t>> by_node(dump.node_count);
  std::vector<std::size_t> pos(n_ev);
  std::vector<std::size_t> live;  // non-annotation events, in dump order
  live.reserve(n_ev);
  for (std::size_t i = 0; i < n_ev; ++i) {
    if (annotation(dump.events[i].rec.kind) && !closed[i]) continue;
    live.push_back(i);
    const NodeId nd = dump.events[i].node;
    if (nd >= by_node.size()) by_node.resize(nd + 1);
    pos[i] = by_node[nd].size();
    by_node[nd].push_back(i);
  }
  if (live.empty()) return rep;

  // Causal sources: flow id -> originating event. A recv whose send was
  // overwritten in the ring simply has no entry (the walk falls back to
  // program order).
  std::unordered_map<std::uint64_t, std::size_t> send_by_cause;
  std::unordered_map<std::uint64_t, std::size_t> suspend_by_cause;
  for (std::size_t i = 0; i < n_ev; ++i) {
    const TraceRecord& r = dump.events[i].rec;
    if (r.cause == 0) continue;
    if (r.kind == TraceKind::MsgSend) send_by_cause[r.cause] = i;
    if (r.kind == TraceKind::Suspend) suspend_by_cause[r.cause] = i;
  }

  // Terminal event: globally latest (ties broken by node then position, so
  // the walk is deterministic on deterministic traces).
  std::size_t terminal = live.front();
  for (const std::size_t i : live) {
    const bool later =
        ts[i] > ts[terminal] ||
        (ts[i] == ts[terminal] && (dump.events[i].node > dump.events[terminal].node ||
                                   (dump.events[i].node == dump.events[terminal].node &&
                                    pos[i] > pos[terminal])));
    if (later) terminal = i;
  }
  double t_min = ts[terminal];
  for (const std::size_t i : live) t_min = std::min(t_min, ts[i]);
  rep.t_min_us = t_min;
  rep.t_max_us = ts[terminal];
  rep.span_us = rep.t_max_us - t_min;

  // Backward walk. Predecessor of an event = the later of its program-order
  // predecessor and its causal source (never later than the event itself).
  // On a tie the causal source wins so cross-node hops classify as network
  // rather than degenerate zero-width sched segments.
  std::vector<CritSegment> path;  // built newest -> oldest, reversed below
  std::size_t cur = terminal;
  for (std::size_t step = 0; step <= n_ev; ++step) {
    const TraceEvent& ce = dump.events[cur];
    // Candidate 1: program order.
    bool have_prev = pos[cur] > 0;
    std::size_t prev = have_prev ? by_node[ce.node][pos[cur] - 1] : 0;
    // Candidate 2: causal source.
    bool have_cause = false;
    std::size_t src = 0;
    if (ce.rec.cause != 0) {
      if (ce.rec.kind == TraceKind::MsgRecv) {
        auto it = send_by_cause.find(ce.rec.cause);
        if (it != send_by_cause.end() && ts[it->second] <= ts[cur]) {
          have_cause = true;
          src = it->second;
        }
      } else if (ce.rec.kind == TraceKind::Resume) {
        auto it = suspend_by_cause.find(ce.rec.cause);
        if (it != suspend_by_cause.end() && ts[it->second] <= ts[cur]) {
          have_cause = true;
          src = it->second;
        }
      }
    }
    if (!have_prev && !have_cause) break;  // reached a node's first event
    std::size_t pick;
    if (have_prev && have_cause) {
      pick = ts[src] >= ts[prev] ? src : prev;
    } else {
      pick = have_prev ? prev : src;
    }

    const TraceEvent& pe = dump.events[pick];
    CritSegment seg;
    seg.t0_us = ts[pick];
    seg.t1_us = ts[cur];
    seg.from_node = pe.node;
    seg.node = ce.node;
    seg.method = kInvalidMethod;
    const bool causal = have_cause && pick == src;
    if (causal && pe.rec.kind == TraceKind::MsgSend && ce.rec.kind == TraceKind::MsgRecv) {
      seg.kind = CritKind::Network;
      seg.method = ce.rec.method;
    } else if (causal && pe.rec.kind == TraceKind::Suspend && ce.rec.kind == TraceKind::Resume) {
      seg.kind = CritKind::Wait;
      seg.method = ce.rec.method;
    } else if (!causal && run_of[cur] != n_ev) {
      // A program-order hop that ends inside a run starts inside it too.
      seg.kind = CritKind::Compute;
      seg.method = dump.events[run_of[cur]].rec.method;
    } else {
      seg.kind = CritKind::Sched;
    }
    path.push_back(seg);
    cur = pick;
  }
  rep.untraced_us = ts[cur] - t_min;

  // Bucket totals, per-method on-path compute, per-edge network totals.
  std::unordered_map<MethodId, CritMethodRow> methods;
  std::unordered_map<std::uint64_t, CritEdgeRow> edges;
  for (const CritSegment& s : path) {
    const double us = s.us();
    switch (s.kind) {
      case CritKind::Compute: {
        rep.compute_us += us;
        CritMethodRow& row = methods[s.method];
        row.method = s.method;
        row.on_path_us += us;
        ++row.segments;
        break;
      }
      case CritKind::Network: {
        rep.network_us += us;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(s.from_node) << 32) | s.node;
        CritEdgeRow& e = edges[key];
        e.from = s.from_node;
        e.to = s.node;
        e.us += us;
        ++e.hops;
        break;
      }
      case CritKind::Wait: rep.wait_us += us; break;
      case CritKind::Sched: rep.sched_us += us; break;
    }
  }
  if (rep.span_us > 0) {
    rep.attributed_frac =
        (rep.compute_us + rep.network_us + rep.wait_us + rep.sched_us) / rep.span_us;
  }

  // Slack: each method's total run self-time minus its on-path share.
  for (const auto& [m, total] : run_self) {
    CritMethodRow& row = methods[m];
    row.method = m;
    row.slack_us = std::max(0.0, total - row.on_path_us);
  }

  for (auto& [m, row] : methods) {
    row.name = dump.method_name(m);
    rep.methods.push_back(row);
  }
  std::sort(rep.methods.begin(), rep.methods.end(), [](const auto& a, const auto& b) {
    if (a.on_path_us != b.on_path_us) return a.on_path_us > b.on_path_us;
    return a.method < b.method;
  });
  for (auto& [k, e] : edges) rep.edges.push_back(e);
  std::sort(rep.edges.begin(), rep.edges.end(), [](const auto& a, const auto& b) {
    if (a.us != b.us) return a.us > b.us;
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });

  // Chronological path, with adjacent same-kind/same-place segments coalesced
  // (long sched runs through a busy node compress to one row; the telescoping
  // sum is preserved because each merge glues t1 == next t0).
  std::reverse(path.begin(), path.end());
  for (const CritSegment& s : path) {
    if (!rep.path.empty()) {
      CritSegment& last = rep.path.back();
      if (last.kind == s.kind && last.node == s.node && last.from_node == s.from_node &&
          last.method == s.method && last.t1_us == s.t0_us && s.kind != CritKind::Network) {
        last.t1_us = s.t1_us;
        continue;
      }
    }
    rep.path.push_back(s);
  }
  return rep;
}

void write_critpath_json(const CritPathReport& r, const TraceDump& dump, std::ostream& os) {
  os << "{\n";
  os << "  \"tool\": \"concert-insight\",\n";
  os << "  \"analysis\": \"critpath\",\n";
  os << "  \"domain\": \"" << (dump.wall_time ? "wall" : "sim") << "\",\n";
  os << "  \"nodes\": " << dump.node_count << ",\n";
  os << "  \"events\": " << dump.events.size() << ",\n";
  os << "  \"dropped_events\": " << dump.dropped << ",\n";
  os << "  \"span_us\": " << r.span_us << ",\n";
  os << "  \"attributed_frac\": " << r.attributed_frac << ",\n";
  os << "  \"buckets\": {\"compute_us\": " << r.compute_us << ", \"network_us\": " << r.network_us
     << ", \"wait_us\": " << r.wait_us << ", \"sched_us\": " << r.sched_us
     << ", \"untraced_us\": " << r.untraced_us << "},\n";
  os << "  \"methods\": [";
  for (std::size_t i = 0; i < r.methods.size(); ++i) {
    const CritMethodRow& m = r.methods[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"method\": \"" << json_escape(m.name) << "\", \"on_path_us\": " << m.on_path_us
       << ", \"slack_us\": " << m.slack_us << ", \"segments\": " << m.segments << "}";
  }
  os << (r.methods.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"edges\": [";
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    const CritEdgeRow& e = r.edges[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"from\": " << e.from << ", \"to\": " << e.to << ", \"us\": " << e.us
       << ", \"hops\": " << e.hops << "}";
  }
  os << (r.edges.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"path\": [";
  for (std::size_t i = 0; i < r.path.size(); ++i) {
    const CritSegment& s = r.path[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"kind\": \"" << crit_kind_name(s.kind) << "\", \"from_node\": " << s.from_node
       << ", \"node\": " << s.node << ", \"method\": \""
       << json_escape(dump.method_name(s.method)) << "\", \"t0_us\": " << s.t0_us
       << ", \"t1_us\": " << s.t1_us << "}";
  }
  os << (r.path.empty() ? "]" : "\n  ]") << "\n}\n";
}

void write_critpath_text(const CritPathReport& r, const TraceDump& dump, std::ostream& os) {
  const auto pct = [&](double us) {
    return r.span_us > 0 ? 100.0 * us / r.span_us : 0.0;
  };
  os << "critical path (" << (dump.wall_time ? "wall" : "sim") << " time, "
     << dump.events.size() << " events";
  if (dump.dropped > 0) os << ", " << dump.dropped << " dropped";
  os << ")\n";
  os << std::fixed << std::setprecision(1);
  os << "  span      " << std::setw(12) << r.span_us << " us\n";
  os << "  compute   " << std::setw(12) << r.compute_us << " us  (" << pct(r.compute_us)
     << "%)\n";
  os << "  network   " << std::setw(12) << r.network_us << " us  (" << pct(r.network_us)
     << "%)\n";
  os << "  wait      " << std::setw(12) << r.wait_us << " us  (" << pct(r.wait_us) << "%)\n";
  os << "  sched     " << std::setw(12) << r.sched_us << " us  (" << pct(r.sched_us) << "%)\n";
  os << "  untraced  " << std::setw(12) << r.untraced_us << " us  (" << pct(r.untraced_us)
     << "%)\n";
  os << std::setprecision(3);
  os << "  attributed_frac " << r.attributed_frac << "\n";
  os << std::setprecision(1);

  if (!r.methods.empty()) {
    os << "\nmethods (on-path compute vs slack):\n";
    os << "  " << std::setw(28) << std::left << "method" << std::right << std::setw(12)
       << "on_path_us" << std::setw(12) << "slack_us" << std::setw(10) << "segments" << "\n";
    for (const CritMethodRow& m : r.methods) {
      os << "  " << std::setw(28) << std::left << m.name << std::right << std::setw(12)
         << m.on_path_us << std::setw(12) << m.slack_us << std::setw(10) << m.segments << "\n";
    }
  }
  if (!r.edges.empty()) {
    os << "\nnetwork edges on path:\n";
    os << "  " << std::setw(12) << std::left << "edge" << std::right << std::setw(12) << "us"
       << std::setw(8) << "hops" << "\n";
    for (const CritEdgeRow& e : r.edges) {
      const std::string edge = std::to_string(e.from) + " -> " + std::to_string(e.to);
      os << "  " << std::setw(12) << std::left << edge << std::right << std::setw(12) << e.us
         << std::setw(8) << e.hops << "\n";
    }
  }
  os.unsetf(std::ios::fixed);
}

void write_critpath_chrome(const CritPathReport& r, const TraceDump& dump, std::ostream& os) {
  std::vector<ChromeSlice> extra;
  extra.reserve(r.path.size());
  for (const CritSegment& s : r.path) {
    ChromeSlice slice;
    slice.cat = crit_kind_name(s.kind);
    slice.name = crit_kind_name(s.kind);
    if (s.method != kInvalidMethod) {
      slice.name.append(":").append(dump.method_name(s.method));
    }
    if (s.kind == CritKind::Network) {
      slice.name.append(" ").append(std::to_string(s.from_node)).append("->");
      slice.name.append(std::to_string(s.node));
    }
    slice.ts_us = s.t0_us;
    slice.dur_us = s.us();
    extra.push_back(std::move(slice));
  }
  write_chrome_trace(dump, os, extra);
}

}  // namespace concert
