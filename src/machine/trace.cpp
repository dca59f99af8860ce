#include "machine/trace.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_set>

#include "machine/machine.hpp"
#include "support/json.hpp"

namespace concert {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::MsgSend: return "msg_send";
    case TraceKind::MsgRecv: return "msg_recv";
    case TraceKind::DispatchBegin: return "dispatch";
    case TraceKind::DispatchEnd: return "dispatch_end";
    case TraceKind::Suspend: return "suspend";
    case TraceKind::Resume: return "resume";
    case TraceKind::StackRun: return "stack_run";
    case TraceKind::OutboxFlush: return "outbox_flush";
    case TraceKind::InboxDrain: return "inbox_drain";
    case TraceKind::WaveRun: return "wave_run";
    case TraceKind::Park: return "park";
    case TraceKind::RunEnd: return "run_end";
  }
  return "?";
}

bool trace_kind_from_name(const std::string& name, TraceKind& out) {
  for (std::size_t i = 0; i < kTraceKindCount; ++i) {
    const TraceKind k = static_cast<TraceKind>(i);
    if (name == trace_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

void Tracer::wrap_or_grow() {
  if (ring_.size() < capacity_) {
    ring_.resize(std::min(capacity_, std::max(kCoarseWindow, ring_.size() * 2)));
  } else {
    next_ = 0;
  }
}

std::vector<TraceRecord> Tracer::snapshot(std::size_t newest) const {
  const std::size_t n = std::min(size(), newest);
  // Before the first wrap the records sit in [0, next_); once the ring has
  // filled, the oldest is at the write position.
  const std::size_t end = total_ >= ring_.size() ? next_ + ring_.size() : next_;
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::size_t i = end - n; i < end; ++i) out.push_back(ring_[i % ring_.size()]);
  return out;
}

TraceDump dump_trace(const Machine& machine, bool wall_time) {
  TraceDump d;
  d.node_count = machine.node_count();
  d.wall_time = wall_time;
  d.us_per_insn = 1e6 / machine.costs().clock_hz;
  d.method_names.reserve(machine.registry().size());
  for (MethodId m = 0; m < machine.registry().size(); ++m) {
    d.method_names.push_back(machine.registry().info(m).name);
  }
  for (NodeId nid = 0; nid < machine.node_count(); ++nid) {
    const Tracer& t = machine.node(nid).tracer;
    if (!t.enabled()) continue;
    d.dropped += t.dropped();
    for (const TraceRecord& r : t.snapshot()) d.events.push_back(TraceEvent{nid, r});
  }
  return d;
}

// ---------------------------------------------------------------------------
// Binary dump: "CTRACE02" magic, header, method-name table, flat event list.
// Host-endian fixed-width fields — the dump is a same-machine artifact (CI
// produces and consumes it in one job), not an interchange format. CTRACE02
// added each event's u32 `arg` after its kind byte.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'C', 'T', 'R', 'A', 'C', 'E', '0', '2'};

template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return is.good();
}

bool fail(std::string* err, const char* what) {
  if (err != nullptr) *err = what;
  return false;
}

}  // namespace

void write_binary_trace(const TraceDump& dump, std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(dump.node_count));
  put<std::uint64_t>(os, dump.dropped);
  put<std::uint8_t>(os, dump.wall_time ? 1 : 0);
  put<double>(os, dump.us_per_insn);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(dump.method_names.size()));
  for (const std::string& name : dump.method_names) {
    put<std::uint32_t>(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  put<std::uint64_t>(os, dump.events.size());
  for (const TraceEvent& e : dump.events) {
    put<std::uint32_t>(os, e.node);
    put<std::uint32_t>(os, e.rec.method);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(e.rec.kind));
    put<std::uint32_t>(os, e.rec.arg);
    put<std::uint64_t>(os, e.rec.clock);
    put<std::uint64_t>(os, e.rec.wall_ns);
    put<std::uint64_t>(os, e.rec.cause);
  }
}

bool read_binary_trace(std::istream& is, TraceDump& out, std::string* err) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (!is.good() || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail(err, "not a concert trace (bad magic; expected CTRACE02)");
  }
  std::uint32_t nodes = 0, n_methods = 0;
  std::uint8_t wall = 0;
  if (!get(is, nodes) || !get(is, out.dropped) || !get(is, wall) || !get(is, out.us_per_insn)) {
    return fail(err, "truncated header");
  }
  if (nodes > kTraceMaxNodes) {
    const std::string what = std::string("node count ")
                                 .append(std::to_string(nodes))
                                 .append(" above the cap of ")
                                 .append(std::to_string(kTraceMaxNodes));
    return fail(err, what.c_str());
  }
  out.node_count = nodes;
  out.wall_time = wall != 0;
  // Counts come from the file, so nothing is reserved from them: a corrupt
  // count fails at the first missing record instead of allocating for it.
  if (!get(is, n_methods)) return fail(err, "truncated method table");
  out.method_names.clear();
  for (std::uint32_t i = 0; i < n_methods; ++i) {
    std::uint32_t len = 0;
    if (!get(is, len)) return fail(err, "truncated method table");
    if (len > (1u << 20)) return fail(err, "bad method-name length");
    std::string name(len, '\0');
    is.read(name.data(), len);
    if (!is.good()) return fail(err, "truncated method name");
    out.method_names.push_back(std::move(name));
  }
  std::uint64_t n_events = 0;
  if (!get(is, n_events)) return fail(err, "truncated event count");
  out.events.clear();
  for (std::uint64_t i = 0; i < n_events; ++i) {
    TraceEvent e;
    std::uint32_t node = 0, method = 0, arg = 0;
    std::uint8_t kind = 0;
    if (!get(is, node) || !get(is, method) || !get(is, kind) || !get(is, arg) ||
        !get(is, e.rec.clock) || !get(is, e.rec.wall_ns) || !get(is, e.rec.cause)) {
      return fail(err, "truncated event list");
    }
    if (node >= nodes) return fail(err, "event on a node outside the dump");
    if (kind >= kTraceKindCount) return fail(err, "bad event kind");
    if (arg > kTraceArgMax) return fail(err, "bad event arg");
    e.node = static_cast<NodeId>(node);
    e.rec.method = method;
    e.rec.kind = static_cast<TraceKind>(kind);
    e.rec.arg = arg;
    out.events.push_back(e);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON with Perfetto flow events.
// ---------------------------------------------------------------------------

const std::string& TraceDump::method_name(MethodId m) const {
  static const std::string root = "(root)";
  return m < method_names.size() ? method_names[m] : root;
}

std::vector<TraceRun> trace_runs(const TraceDump& dump) {
  std::vector<TraceRun> runs;
  std::vector<std::vector<TraceRun>> open(dump.node_count);  // per node, innermost last
  const auto is_dispatch = [&dump](const TraceRun& run) {
    return dump.events[run.begin].rec.kind == TraceKind::DispatchBegin;
  };
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const TraceEvent& e = dump.events[i];
    if (e.node >= open.size()) open.resize(e.node + 1);
    std::vector<TraceRun>& stack = open[e.node];
    switch (e.rec.kind) {
      case TraceKind::DispatchBegin:
      case TraceKind::StackRun:
      case TraceKind::WaveRun:
        stack.push_back(TraceRun{i, 0, 0.0});
        break;
      case TraceKind::DispatchEnd:
        while (!stack.empty() && !is_dispatch(stack.back())) stack.pop_back();
        [[fallthrough]];
      case TraceKind::RunEnd: {
        const bool dispatch_end = e.rec.kind == TraceKind::DispatchEnd;
        if (stack.empty() || is_dispatch(stack.back()) != dispatch_end) break;
        TraceRun run = stack.back();
        stack.pop_back();
        run.end = i;
        const double us = dump.display_us(e.rec) - dump.display_us(dump.events[run.begin].rec);
        if (!stack.empty()) stack.back().nested_us += us;
        runs.push_back(run);
        break;
      }
      default: break;
    }
  }
  return runs;
}

std::uint64_t count_incomplete_flows(const TraceDump& dump) {
  std::unordered_set<std::uint64_t> sends;
  for (const TraceEvent& e : dump.events) {
    if (e.rec.kind == TraceKind::MsgSend && e.rec.cause != 0) sends.insert(e.rec.cause);
  }
  std::uint64_t incomplete = 0;
  for (const TraceEvent& e : dump.events) {
    if (e.rec.kind == TraceKind::MsgRecv && e.rec.cause != 0 && sends.count(e.rec.cause) == 0) {
      ++incomplete;
    }
  }
  return incomplete;
}

void write_chrome_trace(const TraceDump& dump, std::ostream& os) {
  write_chrome_trace(dump, os, {});
}

void write_chrome_trace(const TraceDump& dump, std::ostream& os,
                        const std::vector<ChromeSlice>& extra) {
  os << "{\"traceEvents\": [";
  bool first = true;
  auto emit_head = [&](NodeId node, const char* ph, std::string_view name, double ts) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"pid\":0,\"tid\":" << node << ",\"ph\":\"" << ph << "\",\"name\":\"" << name
       << "\",\"ts\":" << ts;
  };

  // Flow events: a start ("s") at the cause's origin, a finish ("f", bound to
  // the enclosing slice) at its destination. `cat` + `name` + `id` tie the
  // pair together in Perfetto.
  auto emit_flow = [&](NodeId node, bool start, const char* cat, double ts, std::uint64_t id) {
    emit_head(node, start ? "s" : "f", cat, ts);
    os << ",\"cat\":\"" << cat << "\",\"id\":" << id;
    if (!start) os << ",\"bp\":\"e\"";
    os << "}";
  };

  // Each run closes at its end record, in dump order: the slice is emitted
  // there. A stack run (or an older dump's wave) is a "run" slice.
  const std::vector<TraceRun> runs = trace_runs(dump);
  std::size_t next_run = 0;
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const TraceEvent& e = dump.events[i];
    const TraceRecord& r = e.rec;
    const double ts = dump.display_us(r);
    switch (r.kind) {
      case TraceKind::DispatchBegin:
        break;
      case TraceKind::DispatchEnd:
      case TraceKind::RunEnd:
        if (next_run < runs.size() && runs[next_run].end == i) {
          const double begin = dump.display_us(dump.events[runs[next_run++].begin].rec);
          emit_head(e.node, "X", json_escape(dump.method_name(r.method)), begin);
          if (r.kind == TraceKind::RunEnd) os << ",\"cat\":\"run\"";
          os << ",\"dur\":" << (ts - begin) << "}";
        }
        break;
      case TraceKind::MsgSend:
      case TraceKind::Suspend: {
        emit_head(e.node, "i", trace_kind_name(r.kind), ts);
        os << ",\"s\":\"t\",\"args\":{\"method\":\"" << json_escape(dump.method_name(r.method))
           << "\",\"cause\":" << r.cause << "}}";
        if (r.cause != 0) {
          emit_flow(e.node, true, r.kind == TraceKind::MsgSend ? "msg" : "ctx", ts, r.cause);
        }
        break;
      }
      case TraceKind::MsgRecv:
      case TraceKind::Resume: {
        if (r.cause != 0) {
          emit_flow(e.node, false, r.kind == TraceKind::MsgRecv ? "msg" : "ctx", ts, r.cause);
        }
        emit_head(e.node, "i", trace_kind_name(r.kind), ts);
        os << ",\"s\":\"t\",\"args\":{\"method\":\"" << json_escape(dump.method_name(r.method))
           << "\",\"cause\":" << r.cause << "}}";
        break;
      }
      case TraceKind::StackRun:
      case TraceKind::WaveRun:
      case TraceKind::OutboxFlush:
      case TraceKind::InboxDrain:
      case TraceKind::Park:
        emit_head(e.node, "i", trace_kind_name(r.kind), ts);
        os << ",\"s\":\"t\",\"args\":{\"method\":\"" << json_escape(dump.method_name(r.method))
           << "\"}}";
        break;
    }
  }
  // Overlay track (pid 1): extra slices — e.g. the critical path — rendered
  // above the per-node timelines, with a process-name metadata record so
  // Perfetto labels the track.
  if (!extra.empty()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"pid\":1,\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\","
       << "\"args\":{\"name\":\"critical path\"}}";
    for (const ChromeSlice& s : extra) {
      os << ",\n{\"pid\":1,\"tid\":0,\"ph\":\"X\",\"name\":\"" << json_escape(s.name)
         << "\",\"cat\":\"" << json_escape(s.cat) << "\",\"ts\":" << s.ts_us
         << ",\"dur\":" << s.dur_us << "}";
    }
  }
  os << "\n],\n\"metadata\": {\"tool\":\"concert-scope\",\"nodes\":" << dump.node_count
     << ",\"dropped_events\":" << dump.dropped
     << ",\"incomplete_flows\":" << count_incomplete_flows(dump) << ",\"time_domain\":\""
     << (dump.wall_time ? "wall" : "sim") << "\",\"us_per_insn\":" << dump.us_per_insn
     << "}\n}\n";
}

void write_chrome_trace(const Machine& machine, std::ostream& os) {
  write_chrome_trace(dump_trace(machine, /*wall_time=*/false), os);
}

}  // namespace concert
