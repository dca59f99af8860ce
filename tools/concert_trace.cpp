// concert_trace: converts, filters, and summarizes concert-scope binary
// trace dumps (the "CTRACE02" files written by write_binary_trace, e.g.
// `wallclock_suite --trace`), and renders concert-insight artifacts.
//
//   concert_trace FILE [--summary] [--chrome] [--out PATH] [--top N]
//                 [--node N] [--method NAME] [--kind KIND]
//   concert_trace critpath FILE [--json] [--top N] [--out PATH]
//                 [--perfetto PATH]
//   concert_trace postmortem FILE
//
//   --summary   (default) prints trace statistics: top-N methods by self
//               time, flow latency (MsgSend->MsgRecv, Suspend->Resume)
//               p50/p99, per-kind event counts, and data-quality counters
//               (dropped records, incomplete flows).
//   --chrome    writes Chrome trace-event JSON (Perfetto-loadable) to stdout
//               or --out PATH.
//   --node/--method/--kind restrict both modes to one node id, one method
//               name, or one event kind (msg_send, msg_recv, dispatch,
//               dispatch_end, suspend, resume, stack_run, outbox_flush,
//               inbox_drain, wave_run, park, run_end).
//
//   critpath    extracts the causal critical path: ranked per-method
//               on-path/slack table (default), machine-readable JSON
//               (--json), or a Perfetto export with the path overlaid as its
//               own track (--perfetto PATH).
//   postmortem  renders a POSTMORTEM.json (written by a stalled or panicked
//               run) as per-node tables: queue depths, health aggregates,
//               the newest ring events, suspended-context chains.
//
// Filters drop events *before* conversion/summary, so e.g.
// `--method sor_step --chrome` yields a timeline of just that method.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/critpath.hpp"
#include "machine/trace.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace concert {
namespace {

struct Options {
  std::string file;
  bool summary = false;
  bool chrome = false;
  std::string out;
  std::size_t top = 10;
  bool have_node = false;
  NodeId node = 0;
  std::string method;
  bool have_kind = false;
  TraceKind kind = TraceKind::MsgSend;
};

int usage() {
  std::cerr << "usage: concert_trace FILE [--summary] [--chrome] [--out PATH] [--top N]\n"
               "                     [--node N] [--method NAME] [--kind KIND]\n"
               "       concert_trace critpath FILE [--json] [--top N] [--out PATH]\n"
               "                     [--perfetto PATH]\n"
               "       concert_trace postmortem FILE\n";
  return 2;
}

/// Parses `flag`'s value: decimal digits only (no sign, no spaces), at most
/// `max`. Otherwise prints an error naming the flag and the value and
/// returns false.
bool parse_number(const char* flag, const char* text, std::uint64_t max, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  // from_chars takes no sign for an unsigned type, and no leading space.
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec == std::errc() && ptr == end && out <= max) return true;
  std::cerr << "concert_trace: " << flag << " wants a whole number from 0 to " << max
            << ", got '" << text << "'\n";
  return false;
}

/// --top: any row count.
bool parse_top(const char* text, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_number("--top", text, std::numeric_limits<std::size_t>::max(), v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

void apply_filters(TraceDump& d, const Options& opt) {
  if (!opt.have_node && !opt.have_kind && opt.method.empty()) return;
  MethodId wanted_method = kInvalidMethod;
  bool method_found = opt.method.empty();
  for (std::size_t m = 0; m < d.method_names.size(); ++m) {
    if (d.method_names[m] == opt.method) {
      wanted_method = static_cast<MethodId>(m);
      method_found = true;
      break;
    }
  }
  if (!method_found) {
    std::cerr << "concert_trace: warning: method '" << opt.method
              << "' not in this trace's registry\n";
  }
  std::vector<TraceEvent> kept;
  kept.reserve(d.events.size());
  for (const TraceEvent& e : d.events) {
    if (opt.have_node && e.node != opt.node) continue;
    if (!opt.method.empty() && e.rec.method != wanted_method) continue;
    if (opt.have_kind && e.rec.kind != opt.kind) continue;
    kept.push_back(e);
  }
  d.events = std::move(kept);
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

struct FlowStats {
  Histogram latency_ns;  ///< wall-ns (or sim-insn) start -> finish
  std::uint64_t unmatched_starts = 0;
  std::uint64_t unmatched_finishes = 0;
};

/// Pairs flow starts and finishes by causal id. Latency is measured in the
/// dump's display domain (wall ns, or sim instructions). Events are ordered
/// per node, not globally, so a finish can precede its start in the flat
/// list — collect both sides first, join by cause afterwards.
FlowStats pair_flows(const TraceDump& d, TraceKind start, TraceKind finish) {
  FlowStats fs;
  std::unordered_map<std::uint64_t, std::uint64_t> starts, finishes;
  auto stamp = [&](const TraceRecord& r) { return d.wall_time ? r.wall_ns : r.clock; };
  for (const TraceEvent& e : d.events) {
    if (e.rec.cause == 0) continue;
    if (e.rec.kind == start) starts[e.rec.cause] = stamp(e.rec);
    if (e.rec.kind == finish) finishes[e.rec.cause] = stamp(e.rec);
  }
  for (const auto& [cause, t0] : starts) {
    auto it = finishes.find(cause);
    if (it == finishes.end()) {
      ++fs.unmatched_starts;
      continue;
    }
    fs.latency_ns.record(it->second > t0 ? it->second - t0 : 0);
  }
  for (const auto& [cause, t1] : finishes) {
    if (!starts.count(cause)) ++fs.unmatched_finishes;
  }
  return fs;
}

struct MethodSelf {
  std::string name;
  std::uint64_t dispatches = 0;
  std::uint64_t stack_runs = 0;
  double self_us = 0.0;  ///< summed run durations, nested runs excluded (display domain)
};

std::vector<MethodSelf> method_self_times(const TraceDump& d) {
  std::unordered_map<MethodId, MethodSelf> by_method;
  for (const TraceEvent& e : d.events) {
    if (e.rec.kind == TraceKind::DispatchBegin) ++by_method[e.rec.method].dispatches;
    if (e.rec.kind == TraceKind::StackRun || e.rec.kind == TraceKind::WaveRun) {
      ++by_method[e.rec.method].stack_runs;
    }
  }
  for (const TraceRun& run : trace_runs(d)) {
    const TraceRecord& begin = d.events[run.begin].rec;
    by_method[begin.method].self_us +=
        d.display_us(d.events[run.end].rec) - d.display_us(begin) - run.nested_us;
  }
  std::vector<MethodSelf> out;
  for (auto& [m, ms] : by_method) {
    ms.name = d.method_name(m);
    out.push_back(std::move(ms));
  }
  std::sort(out.begin(), out.end(), [](const MethodSelf& a, const MethodSelf& b) {
    return a.self_us != b.self_us ? a.self_us > b.self_us : a.name < b.name;
  });
  return out;
}

std::string fmt_us(double us) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << us;
  return os.str();
}

void print_flow_line(const char* label, const TraceDump& d, const FlowStats& fs) {
  const char* unit = d.wall_time ? "us" : "insn";
  const double scale = d.wall_time ? 1e-3 : 1.0;  // ns -> us for wall traces
  std::cout << label << ": pairs=" << fs.latency_ns.count()
            << " unmatched_start=" << fs.unmatched_starts
            << " unmatched_finish=" << fs.unmatched_finishes;
  if (fs.latency_ns.count() > 0) {
    std::cout << " p50=" << fmt_us(fs.latency_ns.quantile(0.5) * scale) << unit
              << " p99=" << fmt_us(fs.latency_ns.quantile(0.99) * scale) << unit
              << " max=" << fmt_us(static_cast<double>(fs.latency_ns.max()) * scale) << unit;
  }
  std::cout << "\n";
}

int run_summary(const TraceDump& d, const Options& opt) {
  std::uint64_t kind_counts[kTraceKindCount] = {};
  double t_min = 0.0, t_max = 0.0;
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    ++kind_counts[static_cast<std::size_t>(d.events[i].rec.kind)];
    const double ts = d.display_us(d.events[i].rec);
    if (i == 0) {
      t_min = t_max = ts;
    } else {
      t_min = std::min(t_min, ts);
      t_max = std::max(t_max, ts);
    }
  }
  const std::uint64_t incomplete = count_incomplete_flows(d);
  std::cout << "trace: " << d.events.size() << " events, " << d.node_count << " nodes, "
            << d.dropped << " dropped, incomplete_flows=" << incomplete
            << ", domain=" << (d.wall_time ? "wall" : "sim")
            << ", span=" << fmt_us(t_max - t_min) << "us\n";
  if (d.dropped > 0) {
    std::cout << "WARNING: " << d.dropped << " trace record(s) were overwritten in full rings"
              << (incomplete > 0
                      ? " and " + std::to_string(incomplete) + " flow(s) lost their send record"
                      : "")
              << ";\n         self times, flow latencies, and critical paths below are computed"
                 " from a\n         truncated event graph -- raise"
                 " MachineConfig::trace_capacity to trace the full run\n";
  }
  std::cout << "kinds:";
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    if (kind_counts[k] > 0) {
      std::cout << " " << trace_kind_name(static_cast<TraceKind>(k)) << "=" << kind_counts[k];
    }
  }
  std::cout << "\n\n";

  const std::vector<MethodSelf> methods = method_self_times(d);
  std::cout << "top " << std::min(opt.top, methods.size()) << " methods by self time:\n";
  TablePrinter t({"method", "self (us)", "dispatches", "stack runs"});
  for (std::size_t i = 0; i < methods.size() && i < opt.top; ++i) {
    const MethodSelf& ms = methods[i];
    t.add_row({ms.name, fmt_us(ms.self_us), std::to_string(ms.dispatches),
               std::to_string(ms.stack_runs)});
  }
  t.print(std::cout);
  std::cout << "\n";

  print_flow_line("msg flow (send->recv)", d,
                  pair_flows(d, TraceKind::MsgSend, TraceKind::MsgRecv));
  print_flow_line("ctx flow (suspend->resume)", d,
                  pair_flows(d, TraceKind::Suspend, TraceKind::Resume));
  return 0;
}

// ---------------------------------------------------------------------------
// critpath subcommand (concert-insight)
// ---------------------------------------------------------------------------

int run_critpath(int argc, char** argv) {
  std::string file, out, perfetto;
  bool json = false;
  std::size_t top = 15;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(a, "--perfetto") == 0 && i + 1 < argc) {
      perfetto = argv[++i];
    } else if (std::strcmp(a, "--top") == 0 && i + 1 < argc) {
      if (!parse_top(argv[++i], top)) return usage();
    } else if (a[0] == '-') {
      return usage();
    } else if (file.empty()) {
      file = a;
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();
  std::ifstream is(file, std::ios::binary);
  if (!is.good()) {
    std::cerr << "concert_trace: cannot open " << file << "\n";
    return 1;
  }
  TraceDump d;
  std::string err;
  if (!read_binary_trace(is, d, &err)) {
    std::cerr << "concert_trace: " << file << ": " << err << "\n";
    return 1;
  }
  if (d.events.empty()) {
    std::cerr << "concert_trace: " << file << ": no events (was the run traced?)\n";
    return 1;
  }
  CritPathReport rep = analyze_critical_path(d);
  if (d.dropped > 0) {
    std::cerr << "concert_trace: warning: " << d.dropped
              << " record(s) dropped; the critical path is computed from a truncated graph\n";
  }
  if (!perfetto.empty()) {
    std::ofstream os(perfetto);
    if (!os.good()) {
      std::cerr << "concert_trace: cannot write " << perfetto << "\n";
      return 1;
    }
    write_critpath_chrome(rep, d, os);
    std::cerr << "wrote " << perfetto << "\n";
  }
  // The text view ranks; cap its tables at --top. JSON always carries the
  // full report.
  auto emit = [&](std::ostream& os) {
    if (json) {
      write_critpath_json(rep, d, os);
    } else {
      CritPathReport capped = rep;
      if (capped.methods.size() > top) capped.methods.resize(top);
      if (capped.edges.size() > top) capped.edges.resize(top);
      write_critpath_text(capped, d, os);
    }
  };
  if (out.empty()) {
    emit(std::cout);
  } else {
    std::ofstream os(out);
    if (!os.good()) {
      std::cerr << "concert_trace: cannot write " << out << "\n";
      return 1;
    }
    emit(os);
    std::cerr << "wrote " << out << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// postmortem subcommand (concert-insight)
// ---------------------------------------------------------------------------

std::string jnum(const JsonValue& v, const char* key) {
  std::ostringstream os;
  os << v.num_or(key, 0);
  return os.str();
}

int run_postmortem(int argc, char** argv) {
  std::string file;
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] == '-') return usage();
    if (!file.empty()) return usage();
    file = argv[i];
  }
  if (file.empty()) return usage();
  std::ifstream is(file);
  if (!is.good()) {
    std::cerr << "concert_trace: cannot open " << file << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  JsonValue doc;
  std::string err;
  if (!json_parse(buf.str(), doc, &err)) {
    std::cerr << "concert_trace: " << file << ": " << err << "\n";
    return 1;
  }
  if (doc.str_or("analysis", "") != "postmortem") {
    std::cerr << "concert_trace: " << file << ": not a concert postmortem\n";
    return 1;
  }
  std::cout << "postmortem: reason=" << doc.str_or("reason", "?") << ", "
            << jnum(doc, "nodes") << " nodes, max_clock=" << jnum(doc, "max_clock")
            << ", live_contexts=" << jnum(doc, "live_contexts")
            << ", buffered_msgs=" << jnum(doc, "buffered_msgs") << "\n\n";

  const JsonValue* reports = doc.find("node_reports");
  if (reports == nullptr || !reports->is_array()) {
    std::cerr << "concert_trace: " << file << ": missing node_reports\n";
    return 1;
  }
  TablePrinter t({"node", "clock", "ready", "outbox", "live_ctx", "suspended", "samples"});
  for (const JsonValue& nr : reports->arr) {
    const JsonValue* susp = nr.find("suspended");
    const JsonValue* health = nr.find("health");
    t.add_row({jnum(nr, "node"), jnum(nr, "clock"), jnum(nr, "ready"), jnum(nr, "outbox"),
               jnum(nr, "live_ctx"),
               std::to_string(susp != nullptr && susp->is_array() ? susp->arr.size() : 0),
               health != nullptr ? jnum(*health, "samples") : "0"});
  }
  t.print(std::cout);

  // Per-node detail: the tail of the `flight` array and the suspended-context
  // chains — the "what was it doing" half of the report.
  for (const JsonValue& nr : reports->arr) {
    const JsonValue* flight = nr.find("flight");
    const JsonValue* susp = nr.find("suspended");
    const bool have_flight = flight != nullptr && !flight->arr.empty();
    const bool have_susp = susp != nullptr && !susp->arr.empty();
    if (!have_flight && !have_susp) continue;
    std::cout << "\nnode " << jnum(nr, "node") << ":\n";
    if (have_flight) {
      const std::size_t n = flight->arr.size();
      const std::size_t show = std::min<std::size_t>(n, 8);
      std::cout << "  last " << show << " of " << jnum(nr, "flight_total")
                << " flight events:\n";
      for (std::size_t i = n - show; i < n; ++i) {
        const JsonValue& ev = flight->arr[i];
        std::cout << "    clock=" << jnum(ev, "clock") << " " << ev.str_or("kind", "?")
                  << " method=" << ev.str_or("method", "(none)") << " arg=" << jnum(ev, "arg")
                  << "\n";
      }
    }
    if (have_susp) {
      std::cout << "  suspended contexts:\n";
      for (const JsonValue& sc : susp->arr) {
        std::cout << "    ctx=" << jnum(sc, "ctx") << " " << sc.str_or("method", "?")
                  << " flow=" << jnum(sc, "flow");
        const JsonValue* chain = sc.find("chain");
        if (chain != nullptr && !chain->arr.empty()) {
          std::cout << " waits-for:";
          for (const JsonValue& hop : chain->arr) std::cout << " " << hop.str;
        }
        std::cout << "\n";
      }
    }
  }
  return 0;
}

int run(const Options& opt) {
  std::ifstream is(opt.file, std::ios::binary);
  if (!is.good()) {
    std::cerr << "concert_trace: cannot open " << opt.file << "\n";
    return 1;
  }
  TraceDump d;
  std::string err;
  if (!read_binary_trace(is, d, &err)) {
    std::cerr << "concert_trace: " << opt.file << ": " << err << "\n";
    return 1;
  }
  apply_filters(d, opt);

  if (opt.chrome) {
    if (opt.out.empty()) {
      write_chrome_trace(d, std::cout);
    } else {
      std::ofstream os(opt.out);
      if (!os.good()) {
        std::cerr << "concert_trace: cannot write " << opt.out << "\n";
        return 1;
      }
      write_chrome_trace(d, os);
      std::cerr << "wrote " << opt.out << "\n";
    }
  }
  if (opt.summary || !opt.chrome) return run_summary(d, opt);
  return 0;
}

}  // namespace
}  // namespace concert

int main(int argc, char** argv) {
  using namespace concert;
  if (argc > 1 && std::strcmp(argv[1], "critpath") == 0) return run_critpath(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "postmortem") == 0) return run_postmortem(argc, argv);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--summary") == 0) {
      opt.summary = true;
    } else if (std::strcmp(a, "--chrome") == 0) {
      opt.chrome = true;
    } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(a, "--top") == 0 && i + 1 < argc) {
      if (!parse_top(argv[++i], opt.top)) return usage();
    } else if (std::strcmp(a, "--node") == 0 && i + 1 < argc) {
      // No dump holds more than kTraceMaxNodes nodes.
      std::uint64_t v = 0;
      if (!parse_number("--node", argv[++i], kTraceMaxNodes - 1, v)) return usage();
      opt.have_node = true;
      opt.node = static_cast<NodeId>(v);
    } else if (std::strcmp(a, "--method") == 0 && i + 1 < argc) {
      opt.method = argv[++i];
    } else if (std::strcmp(a, "--kind") == 0 && i + 1 < argc) {
      opt.have_kind = true;
      if (!trace_kind_from_name(argv[++i], opt.kind)) {
        std::cerr << "concert_trace: unknown kind '" << argv[i] << "'\n";
        return usage();
      }
    } else if (a[0] == '-') {
      return usage();
    } else if (opt.file.empty()) {
      opt.file = a;
    } else {
      return usage();
    }
  }
  if (opt.file.empty()) return usage();
  return run(opt);
}
