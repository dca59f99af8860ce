// Critical-path analysis (concert-insight): segment classification on
// handcrafted causal graphs, the telescoping bucket audit (buckets + untraced
// sum to the traced span), the >=95% attribution requirement on a real traced
// SOR run, robustness to truncated graphs (recv without send), and the JSON /
// Perfetto emitters parsing cleanly. Also trace_runs, the run pairing the
// analysis shares with the Chrome export and `concert_trace --summary`, on
// handcrafted dumps.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "apps/sor/sor.hpp"
#include "core/invoke.hpp"
#include "machine/critpath.hpp"
#include "machine/trace.hpp"
#include "support/json.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

/// Handcrafted dump builder: events must be appended in per-node program
/// order (the analyzer's only ordering requirement).
struct DumpBuilder {
  TraceDump d;

  explicit DumpBuilder(std::size_t nodes, std::vector<std::string> methods = {"m0", "m1"}) {
    d.node_count = nodes;
    d.us_per_insn = 1.0;  // sim domain: clock == microseconds, exact doubles
    d.method_names = std::move(methods);
  }
  DumpBuilder& ev(NodeId node, std::uint64_t clock, TraceKind kind, MethodId method = 0,
                  std::uint64_t cause = 0) {
    d.events.push_back(TraceEvent{node, TraceRecord{clock, clock * 1000, cause, method, kind}});
    return *this;
  }
};

// -- trace_runs: the one run pairing of every trace reader ------------------

TEST(TraceRuns, NestedRunsCloseInnermostFirst) {
  DumpBuilder b(1);
  b.ev(0, 10, TraceKind::DispatchBegin, 0)
      .ev(0, 20, TraceKind::StackRun, 1)
      .ev(0, 22, TraceKind::WaveRun, 1)
      .ev(0, 26, TraceKind::RunEnd, 1)
      .ev(0, 30, TraceKind::RunEnd, 1)
      .ev(0, 50, TraceKind::DispatchEnd, 0);
  const std::vector<TraceRun> runs = trace_runs(b.d);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].begin, 2u);
  EXPECT_EQ(runs[0].end, 3u);
  EXPECT_EQ(runs[0].nested_us, 0.0);
  EXPECT_EQ(runs[1].begin, 1u);
  EXPECT_EQ(runs[1].end, 4u);
  EXPECT_EQ(runs[1].nested_us, 4.0);  // the wave, 22..26
  EXPECT_EQ(runs[2].begin, 0u);
  EXPECT_EQ(runs[2].end, 5u);
  EXPECT_EQ(runs[2].nested_us, 10.0);  // the stack run, 20..30; the wave is inside it
}

TEST(TraceRuns, EndWhoseBeginWasDroppedClosesNothing) {
  // The ring dropped the first run's begin, and a run_end never closes a
  // dispatch (nor a dispatch_end a stack run).
  DumpBuilder b(1);
  b.ev(0, 5, TraceKind::RunEnd, 1)
      .ev(0, 6, TraceKind::DispatchEnd, 0)
      .ev(0, 10, TraceKind::DispatchBegin, 0)
      .ev(0, 12, TraceKind::RunEnd, 0)
      .ev(0, 20, TraceKind::DispatchEnd, 0);
  const std::vector<TraceRun> runs = trace_runs(b.d);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].begin, 2u);
  EXPECT_EQ(runs[0].end, 4u);
  EXPECT_EQ(runs[0].nested_us, 0.0);
}

TEST(TraceRuns, StackRunOpenAtDispatchEndIsDropped) {
  DumpBuilder b(1);
  b.ev(0, 0, TraceKind::DispatchBegin, 0)
      .ev(0, 5, TraceKind::StackRun, 1)
      .ev(0, 10, TraceKind::DispatchEnd, 0)
      .ev(0, 15, TraceKind::RunEnd, 1);
  const std::vector<TraceRun> runs = trace_runs(b.d);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].begin, 0u);
  EXPECT_EQ(runs[0].end, 2u);
  EXPECT_EQ(runs[0].nested_us, 0.0);  // the dropped run never closed inside it
}

TEST(TraceRuns, NodesInterleavedInTheDumpPairPerNode) {
  DumpBuilder b(2);
  b.ev(0, 10, TraceKind::DispatchBegin, 0)
      .ev(1, 12, TraceKind::StackRun, 1)
      .ev(0, 15, TraceKind::StackRun, 1)
      .ev(1, 20, TraceKind::RunEnd, 1)
      .ev(0, 25, TraceKind::RunEnd, 1)
      .ev(1, 26, TraceKind::DispatchEnd, 0)
      .ev(0, 30, TraceKind::DispatchEnd, 0);
  const std::vector<TraceRun> runs = trace_runs(b.d);
  ASSERT_EQ(runs.size(), 3u);
  // Listed in the order they close.
  EXPECT_EQ(runs[0].begin, 1u);  // node 1's stack run
  EXPECT_EQ(runs[0].end, 3u);
  EXPECT_EQ(runs[1].begin, 2u);  // node 0's stack run
  EXPECT_EQ(runs[1].end, 4u);
  EXPECT_EQ(runs[2].begin, 0u);  // node 0's dispatch holds only node 0's run
  EXPECT_EQ(runs[2].end, 6u);
  EXPECT_EQ(runs[2].nested_us, 10.0);
}

TEST(CritPath, EmptyDumpYieldsEmptyReport) {
  const CritPathReport r = analyze_critical_path(TraceDump{});
  EXPECT_EQ(r.span_us, 0.0);
  EXPECT_EQ(r.attributed_frac, 0.0);
  EXPECT_TRUE(r.path.empty());
}

TEST(CritPath, ClassifiesComputeNetworkSched) {
  // node 0 sends at t=10; node 1 receives at 50, dispatches 60..100.
  DumpBuilder b(2);
  b.ev(0, 10, TraceKind::MsgSend, 1, /*cause=*/7)
      .ev(1, 50, TraceKind::MsgRecv, 1, 7)
      .ev(1, 60, TraceKind::DispatchBegin, 1)
      .ev(1, 100, TraceKind::DispatchEnd, 1);
  const CritPathReport r = analyze_critical_path(b.d);
  EXPECT_DOUBLE_EQ(r.span_us, 90.0);
  EXPECT_DOUBLE_EQ(r.compute_us, 40.0);  // 60 -> 100
  EXPECT_DOUBLE_EQ(r.network_us, 40.0);  // 10 -> 50 via cause 7
  EXPECT_DOUBLE_EQ(r.sched_us, 10.0);    // 50 -> 60 (recv to dispatch)
  EXPECT_DOUBLE_EQ(r.wait_us, 0.0);
  EXPECT_DOUBLE_EQ(r.untraced_us, 0.0);  // the walk reached the earliest event
  EXPECT_DOUBLE_EQ(r.attributed_frac, 1.0);
  // One network edge 0 -> 1, one compute method row for m1.
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0].from, 0u);
  EXPECT_EQ(r.edges[0].to, 1u);
  EXPECT_DOUBLE_EQ(r.edges[0].us, 40.0);
  ASSERT_FALSE(r.methods.empty());
  EXPECT_EQ(r.methods[0].name, "m1");
  EXPECT_DOUBLE_EQ(r.methods[0].on_path_us, 40.0);
  // Chronological path covers [10, 100] contiguously.
  ASSERT_FALSE(r.path.empty());
  EXPECT_DOUBLE_EQ(r.path.front().t0_us, 10.0);
  EXPECT_DOUBLE_EQ(r.path.back().t1_us, 100.0);
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.path[i].t0_us, r.path[i - 1].t1_us);
  }
}

TEST(CritPath, ClassifiesWaitOnSuspendResumePair) {
  DumpBuilder b(1);
  b.ev(0, 10, TraceKind::Suspend, 0, /*cause=*/5).ev(0, 100, TraceKind::Resume, 0, 5);
  const CritPathReport r = analyze_critical_path(b.d);
  EXPECT_DOUBLE_EQ(r.wait_us, 90.0);
  EXPECT_DOUBLE_EQ(r.span_us, 90.0);
  EXPECT_DOUBLE_EQ(r.attributed_frac, 1.0);
}

TEST(CritPath, SlackIsOffPathDispatchTime) {
  // Two dispatches of m0 on node 0 (10..20, 30..40) plus a later terminal on
  // node 1 reached by a message sent before either dispatch: neither dispatch
  // is on the path, so all 20us of m0 self-time is slack.
  DumpBuilder b(2);
  b.ev(0, 5, TraceKind::MsgSend, 1, 9)
      .ev(0, 10, TraceKind::DispatchBegin, 0)
      .ev(0, 20, TraceKind::DispatchEnd, 0)
      .ev(0, 30, TraceKind::DispatchBegin, 0)
      .ev(0, 40, TraceKind::DispatchEnd, 0)
      .ev(1, 200, TraceKind::MsgRecv, 1, 9);
  const CritPathReport r = analyze_critical_path(b.d);
  const auto m0 = std::find_if(r.methods.begin(), r.methods.end(),
                               [](const CritMethodRow& m) { return m.name == "m0"; });
  ASSERT_NE(m0, r.methods.end());
  EXPECT_DOUBLE_EQ(m0->on_path_us, 0.0);
  EXPECT_DOUBLE_EQ(m0->slack_us, 20.0);
}

TEST(CritPath, RecvWithoutSendFallsBackToProgramOrder) {
  // The send record was "overwritten": cause 99 has no MsgSend. The walk must
  // not crash; the unreachable prefix lands in untraced.
  DumpBuilder b(1);
  b.ev(0, 50, TraceKind::MsgRecv, 0, /*cause=*/99)
      .ev(0, 60, TraceKind::DispatchBegin, 0)
      .ev(0, 80, TraceKind::DispatchEnd, 0);
  const CritPathReport r = analyze_critical_path(b.d);
  EXPECT_DOUBLE_EQ(r.span_us, 30.0);
  EXPECT_DOUBLE_EQ(r.compute_us, 20.0);
  EXPECT_DOUBLE_EQ(r.sched_us, 10.0);
  EXPECT_DOUBLE_EQ(r.untraced_us, 0.0);
}

TEST(CritPath, BatchAnnotationsDoNotHideNetworkHops) {
  // Threaded-engine order on node 1: a park and the drain that pulls the
  // message are recorded between the send on node 0 and the receive; a wave
  // annotation trails the run. None of them may stand in for the causal
  // source or become the terminal event.
  DumpBuilder b(2);
  b.ev(0, 10, TraceKind::MsgSend, 1, /*cause=*/7)
      .ev(1, 20, TraceKind::Park, kInvalidMethod)
      .ev(1, 45, TraceKind::InboxDrain, kInvalidMethod)
      .ev(1, 50, TraceKind::MsgRecv, 1, 7)
      .ev(1, 60, TraceKind::DispatchBegin, 1)
      .ev(1, 100, TraceKind::DispatchEnd, 1)
      .ev(1, 120, TraceKind::WaveRun, 1);
  const CritPathReport r = analyze_critical_path(b.d);
  EXPECT_DOUBLE_EQ(r.span_us, 90.0);
  EXPECT_DOUBLE_EQ(r.network_us, 40.0);  // 10 -> 50 via cause 7
  EXPECT_DOUBLE_EQ(r.compute_us, 40.0);
  EXPECT_DOUBLE_EQ(r.sched_us, 10.0);
  EXPECT_DOUBLE_EQ(r.attributed_frac, 1.0);
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0].hops, 1u);
}

/// The acceptance bar: on a real traced SOR run the walk must attribute at
/// least 95% of the traced span, and the buckets must sum to the span
/// exactly (telescoping audit).
TEST(CritPath, TracedSorAttributesAtLeast95Percent) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.trace = true;
  sor::Params p;
  p.n = 16;
  p.pgrid = 2;
  p.block = 8;
  p.iters = 2;
  SimMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));

  const TraceDump d = dump_trace(m, /*wall_time=*/false);
  ASSERT_FALSE(d.events.empty());
  ASSERT_EQ(d.dropped, 0u) << "ring too small for this workload";
  const CritPathReport r = analyze_critical_path(d);
  EXPECT_GT(r.span_us, 0.0);
  EXPECT_GE(r.attributed_frac, 0.95);
  const double sum = r.compute_us + r.network_us + r.wait_us + r.sched_us + r.untraced_us;
  EXPECT_NEAR(sum, r.span_us, 1e-9 * std::max(1.0, r.span_us));
  // The path is chronological and contiguous (each segment starts where the
  // previous ended).
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.path[i].t0_us, r.path[i - 1].t1_us) << "segment " << i;
  }
  // SOR is message-dominated in sim time: the path crosses the network.
  EXPECT_GT(r.network_us, 0.0);
  EXPECT_FALSE(r.edges.empty());
}

TEST(CritPath, RunsClosedByRunEndAreCompute) {
  // A wrapper stack run on node 1 that sends its reply inside the run, then
  // a merged wave on node 0 nested in a dispatch: every hop inside a run is
  // the innermost run's compute.
  DumpBuilder b(2, {"m0", "m1", "m2"});
  b.ev(0, 10, TraceKind::MsgSend, 1, /*cause=*/7)
      .ev(1, 50, TraceKind::MsgRecv, 1, 7)
      .ev(1, 55, TraceKind::StackRun, 1)
      .ev(1, 70, TraceKind::MsgSend, 0, /*cause=*/8)
      .ev(1, 80, TraceKind::RunEnd, 1)
      .ev(0, 100, TraceKind::MsgRecv, 0, 8)
      .ev(0, 110, TraceKind::DispatchBegin, 0)
      .ev(0, 120, TraceKind::WaveRun, 2)
      .ev(0, 150, TraceKind::RunEnd, 2)
      .ev(0, 160, TraceKind::DispatchEnd, 0);
  const CritPathReport r = analyze_critical_path(b.d);
  EXPECT_DOUBLE_EQ(r.span_us, 150.0);
  EXPECT_DOUBLE_EQ(r.network_us, 40.0 + 30.0);  // 10 -> 50 and 70 -> 100
  EXPECT_DOUBLE_EQ(r.compute_us, 15.0 + 50.0);  // 55 -> 70 and 110 -> 160
  EXPECT_DOUBLE_EQ(r.sched_us, 5.0 + 10.0);     // recv -> run, recv -> dispatch
  EXPECT_DOUBLE_EQ(r.attributed_frac, 1.0);
  const auto on_path = [&](const char* name) {
    for (const CritMethodRow& m : r.methods) {
      if (m.name == name) return m.on_path_us;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(on_path("m1"), 15.0);  // the stack run up to its reply
  EXPECT_DOUBLE_EQ(on_path("m2"), 30.0);  // the wave
  EXPECT_DOUBLE_EQ(on_path("m0"), 20.0);  // the dispatch around the wave
}

/// A remote-only program: every invocation of `echo` reaches node 1 as a
/// message and runs there on the wrapper path, so its time on the critical
/// path is stack runs, which must classify as compute.
Context* echo_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                  std::size_t) {
  *ret = args[0];
  return nullptr;
}
void echo_par(Node& nd, Context& ctx) { ParFrame(nd, ctx).complete(ctx.args[0]); }

TEST(CritPath, WrapperStackRunsOfARemoteOnlyProgramAreCompute) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.trace = true;
  SimMachine m(2, cfg);
  MethodDecl d;
  d.name = "echo";
  d.seq = echo_seq;
  d.par = echo_par;
  d.arg_count = 1;
  const MethodId echo = m.registry().declare(d);
  m.registry().finalize();

  constexpr SlotId kCalls = 16;
  Node& nd = m.node(0);
  Context& root = nd.alloc_context_raw(kInvalidMethod, kCalls);
  root.status = ContextStatus::Proxy;
  for (SlotId s = 0; s < kCalls; ++s) {
    root.expect(s);
    nd.send(
        Message::invoke(0, 1, echo, kNoObject, {Value(std::int64_t{s})}, {root.ref(), s, false}));
  }
  m.run_until_quiescent();
  for (SlotId s = 0; s < kCalls; ++s) ASSERT_EQ(root.get(s).as_i64(), s);
  nd.free_context(root);
  EXPECT_EQ(m.node(1).stats.stack_calls, kCalls);
  EXPECT_EQ(m.node(1).stats.contexts_allocated, 0u);

  const TraceDump dump = dump_trace(m, /*wall_time=*/false);
  std::size_t runs = 0, ends = 0;
  for (const TraceEvent& e : dump.events) {
    runs += e.rec.kind == TraceKind::StackRun;
    ends += e.rec.kind == TraceKind::RunEnd;
  }
  EXPECT_EQ(runs, kCalls);
  EXPECT_EQ(ends, kCalls);
  const CritPathReport r = analyze_critical_path(dump);
  EXPECT_GT(r.compute_us, 0.0);
  const auto row = std::find_if(r.methods.begin(), r.methods.end(),
                                [](const CritMethodRow& row) { return row.name == "echo"; });
  ASSERT_NE(row, r.methods.end());
  EXPECT_GT(row->on_path_us, 0.0);
  EXPECT_DOUBLE_EQ(row->on_path_us, r.compute_us);  // no other method runs
  const double sum = r.compute_us + r.network_us + r.wait_us + r.sched_us + r.untraced_us;
  EXPECT_NEAR(sum, r.span_us, 1e-9 * std::max(1.0, r.span_us));
}

TEST(CritPath, JsonReportParsesAndMatchesReport) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.trace = true;
  sor::Params p;
  p.n = 16;
  p.pgrid = 2;
  p.block = 8;
  p.iters = 1;
  SimMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
  const TraceDump d = dump_trace(m, false);
  const CritPathReport r = analyze_critical_path(d);

  std::ostringstream os;
  write_critpath_json(r, d, os);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  EXPECT_EQ(doc.str_or("tool", ""), "concert-insight");
  EXPECT_EQ(doc.str_or("analysis", ""), "critpath");
  EXPECT_EQ(doc.str_or("domain", ""), "sim");
  // The emitter prints with default (6 significant digit) precision.
  EXPECT_NEAR(doc.num_or("attributed_frac", -1), r.attributed_frac, 1e-4);
  const JsonValue* buckets = doc.find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_NEAR(buckets->num_or("network_us", -1), r.network_us,
              1e-4 * std::max(1.0, r.network_us));
  const JsonValue* methods = doc.find("methods");
  ASSERT_NE(methods, nullptr);
  EXPECT_EQ(methods->arr.size(), r.methods.size());
  const JsonValue* path = doc.find("path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->arr.size(), r.path.size());
}

TEST(CritPath, PerfettoOverlayParsesAndCarriesPathTrack) {
  DumpBuilder b(2);
  b.ev(0, 10, TraceKind::MsgSend, 1, 7)
      .ev(1, 50, TraceKind::MsgRecv, 1, 7)
      .ev(1, 60, TraceKind::DispatchBegin, 1)
      .ev(1, 100, TraceKind::DispatchEnd, 1);
  const CritPathReport r = analyze_critical_path(b.d);
  std::ostringstream os;
  write_critpath_chrome(r, b.d, os);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  // The overlay track announces itself and carries one slice per segment.
  const std::string s = os.str();
  EXPECT_NE(s.find("\"critical path\""), std::string::npos);
  EXPECT_NE(s.find("network:m1 0->1"), std::string::npos);
  // Export metadata surfaces the incomplete-flow count (satellite: truncated
  // graphs are flagged, not silently analyzed).
  const JsonValue* meta = doc.find("metadata");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->num_or("incomplete_flows", -1), 0.0);
}

TEST(CritPath, IncompleteFlowsCountsRecvsWithOverwrittenSends) {
  DumpBuilder b(2);
  b.ev(0, 10, TraceKind::MsgSend, 0, 1)
      .ev(1, 20, TraceKind::MsgRecv, 0, 1)    // paired
      .ev(1, 30, TraceKind::MsgRecv, 0, 42)   // send lost
      .ev(1, 40, TraceKind::MsgRecv, 0, 43);  // send lost
  EXPECT_EQ(count_incomplete_flows(b.d), 2u);
}

}  // namespace
}  // namespace concert
