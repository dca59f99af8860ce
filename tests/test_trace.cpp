// The per-node event ring: the always-on coarse window of untraced runs,
// full-detail recording, causal flow-id pairing across nodes and engines,
// every stack run closed by a run_end, chrome-trace export well
// formed, binary round-trip, and the binary
// reader's rejection of corrupt dumps. Also the Chrome export's slices and
// the metrics sink, both engines, against trace_runs (handcrafted cases in
// test_critpath.cpp). Simulated-time identity lives in
// test_observability.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sor/sor.hpp"
#include "machine/trace.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::SeqBenchFixtureState;
using testing::test_config;

TEST(Trace, UntracedRunKeepsOnlyTheCoarseWindow) {
  SeqBenchFixtureState f(ExecMode::ParallelOnly);
  f.machine->run_main(0, f.ids.fib, kNoObject, {Value(10)});
  const Tracer& tr = f.machine->node(0).tracer;
  EXPECT_FALSE(tr.enabled());
  EXPECT_EQ(tr.capacity(), Tracer::kCoarseWindow);
  // fib(10) in ParallelOnly records more than one window of events.
  EXPECT_GT(tr.total(), Tracer::kCoarseWindow);
  EXPECT_EQ(tr.dropped(), 0u);  // the window overwrites by design
  const auto recs = tr.snapshot();
  ASSERT_EQ(recs.size(), Tracer::kCoarseWindow);
  for (const TraceRecord& r : recs) {
    EXPECT_TRUE(trace_kind_coarse(r.kind)) << trace_kind_name(r.kind);
    EXPECT_EQ(r.wall_ns, 0u);
    EXPECT_EQ(r.cause, 0u);
  }
}

TEST(Trace, UntracedDumpHasNoEvents) {
  // The coarse window lacks sends, dispatch ends and flow ids, so dump_trace
  // (the input of every trace consumer) exports nothing from it.
  SeqBenchFixtureState f(ExecMode::ParallelOnly, 2);
  f.machine->run_main(0, f.ids.fib, kNoObject, {Value(8)});
  const TraceDump d = dump_trace(*f.machine);
  EXPECT_EQ(d.node_count, 2u);
  EXPECT_FALSE(d.method_names.empty());
  EXPECT_TRUE(d.events.empty());
  EXPECT_EQ(d.dropped, 0u);
}

struct TracedWorld {
  std::unique_ptr<SimMachine> machine;
  seqbench::Ids ids;

  explicit TracedWorld(ExecMode mode, std::size_t nodes = 1, std::size_t capacity = 0) {
    MachineConfig cfg = test_config(mode);
    cfg.trace = true;
    if (capacity > 0) cfg.trace_capacity = capacity;
    machine = std::make_unique<SimMachine>(nodes, cfg);
    ids = seqbench::register_seqbench(machine->registry(), true);
    machine->registry().finalize();
  }
};

TEST(Trace, RecordsDispatchesInParallelMode) {
  TracedWorld w(ExecMode::ParallelOnly);
  w.machine->run_main(0, w.ids.fib, kNoObject, {Value(8)});
  const auto recs = w.machine->node(0).tracer.snapshot();
  ASSERT_FALSE(recs.empty());
  int begins = 0, ends = 0;
  for (const auto& r : recs) {
    begins += r.kind == TraceKind::DispatchBegin;
    ends += r.kind == TraceKind::DispatchEnd;
  }
  EXPECT_GT(begins, 10);
  EXPECT_EQ(begins, ends);
}

TEST(Trace, TimestampsMonotonePerNode) {
  TracedWorld w(ExecMode::Hybrid3, 2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 64, 3);
  w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(64)});
  for (NodeId n = 0; n < 2; ++n) {
    const auto recs = w.machine->node(n).tracer.snapshot();
    for (std::size_t i = 1; i < recs.size(); ++i) {
      EXPECT_LE(recs[i - 1].clock, recs[i].clock) << "node " << n << " record " << i;
      EXPECT_LE(recs[i - 1].wall_ns, recs[i].wall_ns) << "node " << n << " record " << i;
    }
  }
}

TEST(Trace, MessagesAppearOnBothSides) {
  TracedWorld w(ExecMode::Hybrid3, 2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 32, 3);
  w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(32)});
  auto count = [&](NodeId n, TraceKind k) {
    int c = 0;
    for (const auto& r : w.machine->node(n).tracer.snapshot()) c += r.kind == k;
    return c;
  };
  EXPECT_GE(count(0, TraceKind::MsgSend), 1);
  EXPECT_GE(count(1, TraceKind::MsgRecv), 1);
  EXPECT_EQ(count(0, TraceKind::MsgSend) + count(1, TraceKind::MsgSend),
            count(0, TraceKind::MsgRecv) + count(1, TraceKind::MsgRecv));
  // A send's arg names its receiver and a receive's arg its sender.
  std::map<std::uint64_t, std::pair<NodeId, std::uint32_t>> sends;  // cause -> (node, arg)
  for (NodeId n = 0; n < 2; ++n) {
    for (const auto& r : w.machine->node(n).tracer.snapshot()) {
      if (r.kind == TraceKind::MsgSend) sends[r.cause] = {n, r.arg};
    }
  }
  for (NodeId n = 0; n < 2; ++n) {
    for (const auto& r : w.machine->node(n).tracer.snapshot()) {
      if (r.kind != TraceKind::MsgRecv) continue;
      ASSERT_EQ(sends.count(r.cause), 1u);
      EXPECT_EQ(r.arg, sends[r.cause].first);
      EXPECT_EQ(sends[r.cause].second, n);
    }
  }
}

/// Multiset of the causal ids carried by records of `kind` across all nodes.
std::map<std::uint64_t, int> cause_multiset(const Machine& m, TraceKind kind) {
  std::map<std::uint64_t, int> out;
  for (NodeId n = 0; n < m.node_count(); ++n) {
    for (const auto& r : m.node(n).tracer.snapshot()) {
      if (r.kind == kind && r.cause != 0) ++out[r.cause];
    }
  }
  return out;
}

TEST(Trace, FlowIdsPairSendsWithReceivesAcrossNodes) {
  TracedWorld w(ExecMode::Hybrid3, 2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 64, 7);
  w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(64)});
  const auto sends = cause_multiset(*w.machine, TraceKind::MsgSend);
  const auto recvs = cause_multiset(*w.machine, TraceKind::MsgRecv);
  ASSERT_FALSE(sends.empty());
  // Every message sent is delivered exactly once, so the send-side and
  // recv-side flow ids must match 1:1 (no drops: ring is far from full).
  EXPECT_EQ(sends, recvs);
  for (const auto& [cause, n] : sends) EXPECT_EQ(n, 1) << "cause " << cause << " sent twice";
}

TEST(Trace, FlowIdsPairSuspendsWithResumes) {
  // ParallelOnly fib suspends at every join, so the trace is full of
  // Suspend/Resume pairs; each real suspension draws a fresh flow id that the
  // matching resumption re-records.
  TracedWorld w(ExecMode::ParallelOnly);
  w.machine->run_main(0, w.ids.fib, kNoObject, {Value(10)});
  const auto suspends = cause_multiset(*w.machine, TraceKind::Suspend);
  const auto resumes = cause_multiset(*w.machine, TraceKind::Resume);
  ASSERT_FALSE(suspends.empty());
  EXPECT_EQ(suspends, resumes);
}

TEST(Trace, FlowIdsPairOnThreadedEngine) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.trace = true;
  ThreadedMachine m(2, cfg);
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  const GlobalRef arr = seqbench::make_qsort_array(m, 1, 64, 5);
  const Value v = m.run_main(0, ids.qsort, arr, {Value(0), Value(64)});
  EXPECT_EQ(v.as_i64(), 64);  // qsort's root future yields the sorted count
  const auto sends = cause_multiset(m, TraceKind::MsgSend);
  const auto recvs = cause_multiset(m, TraceKind::MsgRecv);
  ASSERT_FALSE(sends.empty());
  EXPECT_EQ(sends, recvs);
  // Wall timestamps are meaningful on this engine: monotone per node.
  for (NodeId n = 0; n < 2; ++n) {
    const auto recs = m.node(n).tracer.snapshot();
    for (std::size_t i = 1; i < recs.size(); ++i) {
      EXPECT_LE(recs[i - 1].wall_ns, recs[i].wall_ns) << "node " << n;
    }
  }
}

TEST(Trace, StackRunsRecordedInHybridMode) {
  TracedWorld w(ExecMode::Hybrid3);
  w.machine->run_main(0, w.ids.fib, kNoObject, {Value(10)});
  int stack_runs = 0;
  for (const auto& r : w.machine->node(0).tracer.snapshot()) {
    stack_runs += r.kind == TraceKind::StackRun;
  }
  // Only wrapper-level stack executions are traced; Frame::call sites also
  // bump stack_calls, so the trace count is a strictly positive lower bound.
  EXPECT_GT(stack_runs, 0);
  EXPECT_LE(static_cast<std::uint64_t>(stack_runs), w.machine->node(0).stats.stack_calls);
}

TEST(Trace, EveryStackRunIsClosedByRunEnd) {
  // SOR on 2x2 nodes in 1x1 tiles: remote get_value invocations run as
  // wrapper stack runs.
  sor::Params p;
  p.n = 8;
  p.pgrid = 2;
  p.block = 1;
  p.iters = 1;
  MachineConfig cfg = test_config();
  cfg.trace = true;
  SimMachine m(p.nodes(), cfg);
  const sor::Ids ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  sor::World world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
  std::size_t stack_runs = 0;
  for (NodeId n = 0; n < m.node_count(); ++n) {
    std::vector<TraceRecord> open;  // runs nest: a run_end closes the innermost
    for (const TraceRecord& r : m.node(n).tracer.snapshot()) {
      EXPECT_NE(r.kind, TraceKind::WaveRun) << "node " << n;
      if (r.kind == TraceKind::StackRun) {
        ++stack_runs;
        open.push_back(r);
      } else if (r.kind == TraceKind::RunEnd) {
        ASSERT_FALSE(open.empty()) << "run_end with no open run on node " << n;
        EXPECT_EQ(r.method, open.back().method);
        EXPECT_GE(r.clock, open.back().clock);
        open.pop_back();
      }
    }
    EXPECT_TRUE(open.empty()) << open.size() << " runs left open on node " << n;
  }
  EXPECT_GT(stack_runs, 0u);
  // The Chrome export draws each closed run as a duration slice.
  std::ostringstream os;
  write_chrome_trace(m, os);
  EXPECT_NE(os.str().find("\"cat\":\"run\""), std::string::npos);
}

TEST(Trace, CoarseWindowMatchesTracedCoarseEvents) {
  // Both detail levels record the coarse kinds at the same sites with the
  // same payloads: an untraced run's window is exactly the newest coarse
  // records of the traced run, minus their wall stamps and flow ids.
  SeqBenchFixtureState plain(ExecMode::ParallelOnly, 2, /*distributed=*/true);
  TracedWorld traced(ExecMode::ParallelOnly, 2);
  plain.machine->run_main(0, plain.ids.fib, kNoObject, {Value(9)});
  traced.machine->run_main(0, traced.ids.fib, kNoObject, {Value(9)});
  for (NodeId n = 0; n < 2; ++n) {
    std::vector<TraceRecord> coarse;
    for (const TraceRecord& r : traced.machine->node(n).tracer.snapshot()) {
      if (trace_kind_coarse(r.kind)) coarse.push_back(r);
    }
    const auto window = plain.machine->node(n).tracer.snapshot();
    ASSERT_LE(window.size(), coarse.size());
    const std::size_t skip = coarse.size() - window.size();
    for (std::size_t i = 0; i < window.size(); ++i) {
      const TraceRecord& a = window[i];
      const TraceRecord& b = coarse[skip + i];
      EXPECT_EQ(a.clock, b.clock) << "node " << n << " record " << i;
      EXPECT_EQ(a.kind, b.kind) << "node " << n << " record " << i;
      EXPECT_EQ(a.method, b.method) << "node " << n << " record " << i;
      EXPECT_EQ(a.arg, b.arg) << "node " << n << " record " << i;
    }
  }
}

TEST(Trace, RingWrapsAndCountsDrops) {
  TracedWorld w(ExecMode::ParallelOnly, 1, /*capacity=*/64);
  w.machine->run_main(0, w.ids.fib, kNoObject, {Value(10)});
  const Tracer& tr = w.machine->node(0).tracer;
  EXPECT_EQ(tr.capacity(), 64u);
  EXPECT_EQ(tr.size(), 64u);
  EXPECT_GT(tr.dropped(), 0u);
  EXPECT_EQ(tr.dropped(), tr.total() - 64u);
  // The drop count is derived from the ring and exported as a metric.
  MetricsRegistry reg;
  export_metrics(*w.machine, reg);
  const auto* dropped = reg.find_counter("concert_trace_records_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, tr.dropped());
  // The snapshot unwraps the ring: still oldest -> newest.
  const auto recs = tr.snapshot();
  ASSERT_EQ(recs.size(), 64u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].clock, recs[i].clock) << "record " << i;
  }
  // The drop total also reaches the detached dump's header.
  const TraceDump dump = dump_trace(*w.machine);
  EXPECT_EQ(dump.dropped, tr.dropped());
  EXPECT_EQ(dump.events.size(), 64u);
}

TEST(Trace, BinaryDumpRoundTrips) {
  TracedWorld w(ExecMode::Hybrid3, 2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 32, 9);
  w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(32)});
  const TraceDump dump = dump_trace(*w.machine, /*wall_time=*/false);
  std::stringstream ss;
  write_binary_trace(dump, ss);
  TraceDump back;
  std::string err;
  ASSERT_TRUE(read_binary_trace(ss, back, &err)) << err;
  EXPECT_EQ(back.node_count, dump.node_count);
  EXPECT_EQ(back.dropped, dump.dropped);
  EXPECT_EQ(back.wall_time, dump.wall_time);
  EXPECT_EQ(back.method_names, dump.method_names);
  ASSERT_EQ(back.events.size(), dump.events.size());
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    EXPECT_EQ(back.events[i].node, dump.events[i].node);
    EXPECT_EQ(back.events[i].rec.clock, dump.events[i].rec.clock);
    EXPECT_EQ(back.events[i].rec.wall_ns, dump.events[i].rec.wall_ns);
    EXPECT_EQ(back.events[i].rec.cause, dump.events[i].rec.cause);
    EXPECT_EQ(back.events[i].rec.method, dump.events[i].rec.method);
    EXPECT_EQ(back.events[i].rec.kind, dump.events[i].rec.kind);
    EXPECT_EQ(back.events[i].rec.arg, dump.events[i].rec.arg);
  }
}

TEST(Trace, BinaryReaderRejectsGarbage) {
  std::stringstream ss("definitely not a trace file");
  TraceDump d;
  std::string err;
  EXPECT_FALSE(read_binary_trace(ss, d, &err));
  EXPECT_FALSE(err.empty());
}

// Hand-corrupted dumps. Each header field sits at a fixed offset: magic (8
// bytes), node count (u32, offset 8), dropped (u64), wall flag (u8), us per
// insn (f64), method count (u32, offset 29), then the names, the event count
// (u64) and the events.
constexpr std::size_t kNodeCountAt = 8;
constexpr std::size_t kMethodCountAt = 29;

/// The CTRACE02 bytes of a `nodes`-node dump with no methods and `events`.
std::string ctrace_bytes(std::size_t nodes, std::vector<TraceEvent> events = {}) {
  TraceDump d;
  d.node_count = nodes;
  d.events = std::move(events);
  std::ostringstream os;
  write_binary_trace(d, os);
  return os.str();
}

template <typename T>
void patch(std::string& bytes, std::size_t at, T v) {
  ASSERT_LE(at + sizeof v, bytes.size());
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// Reads `bytes`; returns the reader's error, or "" if it accepted them.
std::string read_error(const std::string& bytes) {
  std::istringstream is(bytes);
  TraceDump d;
  std::string err;
  if (read_binary_trace(is, d, &err)) return "";
  return err.empty() ? "(no message)" : err;
}

TEST(Trace, BinaryReaderRejectsEventOnNodeOutsideDump) {
  // Consumers index per-node tables by the event's node (the Chrome export's
  // open-dispatch table), so the node must be below the dump's node count.
  const std::string bytes = ctrace_bytes(1, {TraceEvent{50'000'000, TraceRecord{}}});
  EXPECT_NE(read_error(bytes).find("node"), std::string::npos) << read_error(bytes);
  EXPECT_EQ(read_error(ctrace_bytes(1, {TraceEvent{0, TraceRecord{}}})), "");
}

TEST(Trace, BinaryReaderRejectsNodeCountAboveCap) {
  std::string bytes = ctrace_bytes(1);
  patch<std::uint32_t>(bytes, kNodeCountAt, 0xFFFFFFFFu);
  EXPECT_NE(read_error(bytes).find("node count"), std::string::npos) << read_error(bytes);
  patch<std::uint32_t>(bytes, kNodeCountAt, kTraceMaxNodes + 1);
  EXPECT_NE(read_error(bytes), "");
  patch<std::uint32_t>(bytes, kNodeCountAt, kTraceMaxNodes);
  EXPECT_EQ(read_error(bytes), "");
}

TEST(Trace, BinaryReaderRejectsEventCountTheStreamCannotFill) {
  // 2^61 events claimed, none present: fails at the first missing event
  // instead of reserving for the claimed count.
  std::string bytes = ctrace_bytes(1);
  patch<std::uint64_t>(bytes, bytes.size() - 8, std::uint64_t{1} << 61);
  EXPECT_NE(read_error(bytes).find("truncated"), std::string::npos) << read_error(bytes);
}

TEST(Trace, BinaryReaderRejectsMethodCountTheStreamCannotFill) {
  // 0xFFFFFFF0 method names claimed, and the stream ends right after the
  // count.
  std::string bytes = ctrace_bytes(1).substr(0, kMethodCountAt + 4);
  patch<std::uint32_t>(bytes, kMethodCountAt, 0xFFFFFFF0u);
  EXPECT_NE(read_error(bytes), "");
}

TEST(Trace, ChromeExportIsBalancedJsonWithFlows) {
  // ParallelOnly so the trace contains heap-context dispatches (duration
  // events) and suspensions; two nodes so messages cross the network and
  // become flow events.
  TracedWorld w(ExecMode::ParallelOnly, 2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 32, 5);
  w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(32)});
  std::ostringstream os;
  write_chrome_trace(*w.machine, os);
  const std::string s = os.str();
  ASSERT_GT(s.size(), 10u);
  EXPECT_EQ(s.front(), '{');  // object form: {"traceEvents": [...], "metadata": {...}}
  long depth = 0;
  for (char c : s) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"metadata\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);  // at least one duration
  EXPECT_NE(s.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(s.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(s.find("msg_send"), std::string::npos);
  EXPECT_NE(s.find("qsort"), std::string::npos);  // method names resolved
  EXPECT_NE(s.find("\"dropped_events\""), std::string::npos);
}

// -- trace_runs against the Chrome export and the metrics sink ------------

/// SOR on 2x2 nodes in 1x1 tiles: dispatches and wrapper stack runs.
sor::Params small_sor() {
  sor::Params p;
  p.n = 8;
  p.pgrid = 2;
  p.block = 1;
  p.iters = 1;
  return p;
}

void run_sor(Machine& m, const sor::Params& p) {
  const sor::Ids ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  sor::World world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
}

TEST(TraceRuns, ChromeSlicesAreTheRunsOneForOne) {
  const sor::Params p = small_sor();
  MachineConfig cfg = test_config();
  cfg.trace = true;
  SimMachine m(p.nodes(), cfg);
  ASSERT_NO_FATAL_FAILURE(run_sor(m, p));
  const TraceDump d = dump_trace(m);
  const std::vector<TraceRun> runs = trace_runs(d);
  std::ostringstream os;
  write_chrome_trace(d, os);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  std::vector<double> slices;
  for (const JsonValue& e : doc.find("traceEvents")->arr) {
    if (e.num_or("pid", -1) == 0 && e.str_or("ph", "") == "X") {
      slices.push_back(e.num_or("dur", -1));
    }
  }
  ASSERT_EQ(slices.size(), runs.size());
  ASSERT_FALSE(runs.empty());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double dur = d.display_us(d.events[runs[i].end].rec) -
                       d.display_us(d.events[runs[i].begin].rec);
    EXPECT_NEAR(slices[i], dur, 1e-5 * std::max(1.0, dur)) << "run " << i;
  }
}

/// Per node: the metrics sink saw every closed run and every sized record.
void expect_metrics_match_trace(const Machine& m) {
  const TraceDump d = dump_trace(m);
  ASSERT_EQ(d.dropped, 0u);
  const std::vector<TraceRun> runs = trace_runs(d);
  std::uint64_t total_runs = 0;
  for (NodeId n = 0; n < m.node_count(); ++n) {
    std::uint64_t closed = 0, drains = 0, flushes = 0;
    for (const TraceRun& run : runs) closed += d.events[run.begin].node == n;
    for (const TraceEvent& e : d.events) {
      if (e.node != n) continue;
      drains += e.rec.kind == TraceKind::InboxDrain;
      flushes += e.rec.kind == TraceKind::OutboxFlush;
    }
    const NodeMetrics* mx = m.node(n).metrics();
    ASSERT_NE(mx, nullptr);
    EXPECT_EQ(mx->invoke_latency_ns.count(), closed) << "node " << n;
    EXPECT_EQ(mx->inbox_depth.count(), drains) << "node " << n;
    EXPECT_EQ(mx->flush_size.count(), flushes) << "node " << n;
    EXPECT_TRUE(mx->open_runs.empty()) << "node " << n;
    total_runs += closed;
  }
  EXPECT_GT(total_runs, 0u);
}

TEST(TraceRuns, MetricsSinkCountsTheTracedRunsOnSimEngine) {
  const sor::Params p = small_sor();
  MachineConfig cfg = test_config();
  cfg.trace = true;
  cfg.metrics = true;
  cfg.flush_policy = FlushPolicy::size_threshold(4);
  SimMachine m(p.nodes(), cfg);
  ASSERT_NO_FATAL_FAILURE(run_sor(m, p));
  expect_metrics_match_trace(m);
  EXPECT_GT(m.total_stats().outbox_flushes, 0u);
}

TEST(TraceRuns, MetricsSinkCountsTheTracedRunsOnThreadedEngine) {
  const sor::Params p = small_sor();
  MachineConfig cfg = test_config();
  cfg.trace = true;
  cfg.metrics = true;
  ThreadedMachine m(p.nodes(), cfg);
  ASSERT_NO_FATAL_FAILURE(run_sor(m, p));
  expect_metrics_match_trace(m);
  std::uint64_t drains = 0;
  for (NodeId n = 0; n < m.node_count(); ++n) drains += m.node(n).metrics()->inbox_depth.count();
  EXPECT_GT(drains, 0u);
}

TEST(Trace, KindNamesAreDistinctAndRoundTrip) {
  EXPECT_STREQ(trace_kind_name(TraceKind::MsgSend), "msg_send");
  EXPECT_STREQ(trace_kind_name(TraceKind::Suspend), "suspend");
  EXPECT_STREQ(trace_kind_name(TraceKind::Resume), "resume");
  EXPECT_STREQ(trace_kind_name(TraceKind::InboxDrain), "inbox_drain");
  EXPECT_STREQ(trace_kind_name(TraceKind::WaveRun), "wave_run");
  EXPECT_STREQ(trace_kind_name(TraceKind::Park), "park");
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    TraceKind back;
    ASSERT_TRUE(trace_kind_from_name(trace_kind_name(static_cast<TraceKind>(k)), back));
    EXPECT_EQ(back, static_cast<TraceKind>(k));
  }
  TraceKind junk;
  EXPECT_FALSE(trace_kind_from_name("nonsense", junk));
}

}  // namespace
}  // namespace concert
