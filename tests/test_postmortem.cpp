// Structured postmortems (concert-insight): both engines dump a parseable
// POSTMORTEM.json when the stall watchdog fires, the panic path
// (quiescence-verifier throw) dumps with reason "panic", per-node
// ready/outbox/live-context depths round-trip through the JSON, dumps happen
// at most once per run and never with an empty path, each node's `flight`
// array is the newest <= 256 records of its event ring, and suspended
// contexts are listed whether or not the run verifies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "support/json.hpp"
#include "test_util.hpp"
#include "verify/conformance.hpp"

namespace concert {
namespace {

using testing::SeqBenchFixtureState;
using testing::test_config;

/// Reads and parses a postmortem file; fails the test on any miss.
JsonValue read_postmortem(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "postmortem file missing: " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  std::string err;
  EXPECT_TRUE(json_parse(ss.str(), doc, &err)) << path << ": " << err;
  return doc;
}

/// Per-node depth fields must be present and must sum back to the machine
/// totals recorded in the same document (the round-trip the ISSUE demands).
void check_node_reports(const JsonValue& doc, std::size_t expect_nodes) {
  EXPECT_EQ(doc.str_or("tool", ""), "concert-insight");
  EXPECT_EQ(doc.str_or("analysis", ""), "postmortem");
  EXPECT_EQ(doc.num_or("schema_version", -1), 2.0);
  EXPECT_EQ(doc.num_or("nodes", -1), static_cast<double>(expect_nodes));
  const JsonValue* reports = doc.find("node_reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->arr.size(), expect_nodes);
  double live_sum = 0;
  for (const JsonValue& nr : reports->arr) {
    EXPECT_GE(nr.num_or("ready", -1), 0.0);
    EXPECT_GE(nr.num_or("outbox", -1), 0.0);
    EXPECT_GE(nr.num_or("live_ctx", -1), 0.0);
    live_sum += nr.num_or("live_ctx", 0);
    ASSERT_NE(nr.find("stats"), nullptr);
    ASSERT_NE(nr.find("health"), nullptr);
    ASSERT_NE(nr.find("flight"), nullptr);
    EXPECT_LE(nr.find("flight")->arr.size(), Tracer::kCoarseWindow);
  }
  EXPECT_EQ(live_sum, doc.num_or("live_contexts", -1));
}

TEST(Postmortem, ThreadedStallDumpsParseableReport) {
  const std::string path = "PM_test_threaded_stall.json";
  std::remove(path.c_str());
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.stall_timeout = 60;  // ms
  cfg.postmortem_path = path;
  ThreadedMachine mach(2, cfg);
  const seqbench::Ids ids = seqbench::register_seqbench(mach.registry(), true);
  mach.registry().finalize();
  // A real run first, so the event rings and health samplers have content.
  EXPECT_EQ(mach.run_main(0, ids.fib, kNoObject, {Value(10)}).as_i64(), 55);
  mach.on_work_created();  // phantom credit no action will ever retire
  try {
    mach.run_until_quiescent();
    FAIL() << "stall watchdog did not fire";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("postmortem written to"), std::string::npos) << e.what();
  }
  mach.on_work_retired();

  const JsonValue doc = read_postmortem(path);
  EXPECT_EQ(doc.str_or("reason", ""), "stall");
  check_node_reports(doc, 2);
  // The fib run dispatched real work: flight arrays and health samples are
  // non-empty on node 0 (the always-on default).
  const JsonValue& n0 = doc.find("node_reports")->arr[0];
  EXPECT_GT(n0.find("flight")->arr.size(), 0u);
  EXPECT_GE(n0.find("health")->num_or("samples", 0), 1.0);
  std::remove(path.c_str());
}

// -- sim livelock (the deterministic engine's stall budget) ----------------

MethodId g_pm_ping, g_pm_pong;

Context* pm_leaf_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  *ret = Value(std::int64_t{7});
  return nullptr;
}

/// Unbounded forward ping-pong (see test_progress.cpp): every heap dispatch
/// moves the reply obligation to the other method, so the run never quiesces.
template <MethodId* kNext>
void pm_pp_par(Node& nd, Context& ctx) {
  Continuation k = ctx.ret;
  const GlobalRef self = ctx.self;
  nd.free_context(ctx);
  k.forwarded = true;
  ++nd.stats.continuations_forwarded;
  invoke_with_continuation(nd, *kNext, self, nullptr, 0, k);
}

TEST(Postmortem, SimStallBudgetDumpsParseableReport) {
  const std::string path = "PM_test_sim_stall.json";
  std::remove(path.c_str());
  MachineConfig cfg = test_config(ExecMode::ParallelOnly);
  cfg.stall_timeout = 50;  // ms
  cfg.postmortem_path = path;
  SimMachine mach(1, cfg);
  auto& reg = mach.registry();
  MethodDecl d;
  d.name = "pm_ping";
  d.seq = pm_leaf_seq;
  d.par = pm_pp_par<&g_pm_pong>;
  g_pm_ping = reg.declare(d);
  d = MethodDecl{};
  d.name = "pm_pong";
  d.seq = pm_leaf_seq;
  d.par = pm_pp_par<&g_pm_ping>;
  g_pm_pong = reg.declare(d);
  reg.add_callee(g_pm_ping, g_pm_pong, /*forwards=*/true);
  reg.add_callee(g_pm_pong, g_pm_ping, /*forwards=*/true);
  reg.finalize();
  try {
    (void)mach.run_main(0, g_pm_ping, kNoObject, {});
    FAIL() << "stall budget did not fire";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("postmortem written to"), std::string::npos) << e.what();
  }

  const JsonValue doc = read_postmortem(path);
  EXPECT_EQ(doc.str_or("reason", ""), "stall");
  check_node_reports(doc, 1);
  // The livelock dispatched thousands of contexts before the budget fired:
  // the coarse window is full of dispatch records.
  const JsonValue& n0 = doc.find("node_reports")->arr[0];
  EXPECT_GT(n0.find("flight")->arr.size(), 0u);
  EXPECT_GT(n0.num_or("flight_total", 0), 0.0);
  std::remove(path.c_str());
}

// -- panic path (quiescence verifier throw) --------------------------------

MethodId g_pm_stuck, g_pm_driver;
constexpr SlotId kSlotV = 0;

void pm_stuck_par(Node& nd, Context& ctx) {
  ctx.expect(0);
  nd.suspend(ctx);  // legally MB — but the future never fills
}

Context* pm_driver_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                       const Value*, std::size_t) {
  Frame f(nd, g_pm_driver, self, ci, nullptr, 0);
  Value v;
  if (!f.call(g_pm_stuck, self, {}, kSlotV, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
void pm_driver_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(g_pm_stuck, ctx.self, {}, kSlotV);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      f.complete(f.get(kSlotV));
      return;
    default:
      CONCERT_UNREACHABLE("pm_driver bad pc");
  }
}

/// pm_driver calls pm_stuck, whose future never fills: with pm_stuck forced
/// onto the heap path, both contexts stay suspended at quiescence.
void register_pm_stuck_program(SimMachine& mach) {
  auto& reg = mach.registry();
  MethodDecl d;
  d.name = "pm_stuck";
  d.seq = pm_leaf_seq;
  d.par = pm_stuck_par;
  d.frame_slots = 1;
  d.blocks_locally = true;
  g_pm_stuck = reg.declare(d);
  d = MethodDecl{};
  d.name = "pm_driver";
  d.seq = pm_driver_seq;
  d.par = pm_driver_par;
  d.frame_slots = 1;
  g_pm_driver = reg.declare(d);
  reg.add_callee(g_pm_driver, g_pm_stuck);
  reg.finalize();
  mach.node(0).injector().inject_at(g_pm_stuck, 0);  // force the heap path
}

TEST(Postmortem, QuiescencePanicDumpsWithReasonPanic) {
  const std::string path = "PM_test_panic.json";
  std::remove(path.c_str());
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.verify = true;
  cfg.postmortem_path = path;
  SimMachine mach(1, cfg);
  register_pm_stuck_program(mach);
  EXPECT_THROW(mach.run_main(0, g_pm_driver, kNoObject, {}), ProtocolError);

  const JsonValue doc = read_postmortem(path);
  EXPECT_EQ(doc.str_or("reason", ""), "panic");
  check_node_reports(doc, 1);
  // verify=true: the orphaned suspension shows up in the suspended-context
  // table with its method name.
  const JsonValue* susp = doc.find("node_reports")->arr[0].find("suspended");
  ASSERT_NE(susp, nullptr);
  ASSERT_FALSE(susp->arr.empty());
  bool named = false;
  for (const JsonValue& s : susp->arr) {
    named = named || s.str_or("method", "") == "pm_stuck";
  }
  EXPECT_TRUE(named);
  std::remove(path.c_str());
}

TEST(Postmortem, SuspendedContextsListedWithVerifyOff) {
  // The suspended contexts are read from the arena, so a run without the
  // conformance sanitizer lists them too, in the postmortem and the stall
  // report alike.
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.verify = false;
  SimMachine mach(1, cfg);
  register_pm_stuck_program(mach);
  EXPECT_TRUE(mach.run_main(0, g_pm_driver, kNoObject, {}).is_nil());
  std::ostringstream os;
  mach.write_postmortem(os, "inspect");
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  check_node_reports(doc, 1);
  const JsonValue* susp = doc.find("node_reports")->arr[0].find("suspended");
  ASSERT_NE(susp, nullptr);
  ASSERT_EQ(susp->arr.size(), 2u);
  std::vector<std::string> methods;
  for (const JsonValue& sc : susp->arr) methods.push_back(sc.str_or("method", ""));
  std::sort(methods.begin(), methods.end());
  EXPECT_EQ(methods, (std::vector<std::string>{"pm_driver", "pm_stuck"}));
  // pm_stuck's reply goes to pm_driver's context.
  for (const JsonValue& sc : susp->arr) {
    if (sc.str_or("method", "") != "pm_stuck") continue;
    ASSERT_FALSE(sc.find("chain")->arr.empty());
    EXPECT_EQ(sc.find("chain")->arr[0].str, "pm_driver");
  }
  const std::string report = mach.stall_report();
  EXPECT_NE(report.find("suspended=2"), std::string::npos) << report;
  EXPECT_NE(report.find(" in pm_stuck"), std::string::npos) << report;
}

// -- dump mechanics --------------------------------------------------------

TEST(Postmortem, EmptyPathDisablesDumpAndOncePerRunHolds) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.postmortem_path = "";
  SimMachine mach(1, cfg);
  mach.registry().finalize();
  EXPECT_EQ(mach.dump_postmortem("stall"), "");

  const std::string path = "PM_test_once.json";
  std::remove(path.c_str());
  MachineConfig cfg2 = test_config(ExecMode::Hybrid3);
  cfg2.postmortem_path = path;
  SimMachine mach2(1, cfg2);
  mach2.registry().finalize();
  EXPECT_EQ(mach2.dump_postmortem("stall"), path);
  EXPECT_EQ(mach2.dump_postmortem("panic"), "");  // second dump is a no-op
  // A fresh run re-arms the dump (engines call arm_postmortem at run start).
  mach2.run_until_quiescent();
  EXPECT_EQ(mach2.dump_postmortem("stall"), path);
  std::remove(path.c_str());
}

TEST(Postmortem, HealthyMachineReportRoundTrips) {
  SeqBenchFixtureState f(ExecMode::Hybrid3, 2, /*distributed=*/true);
  EXPECT_EQ(f.machine->run_main(0, f.ids.fib, kNoObject, {Value(10)}).as_i64(), 55);
  std::ostringstream os;
  f.machine->write_postmortem(os, "inspect");
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  EXPECT_EQ(doc.str_or("reason", ""), "inspect");
  check_node_reports(doc, 2);
  // Quiescent machine: every queue in the report is empty, matching the live
  // accessors exactly.
  for (const JsonValue& nr : doc.find("node_reports")->arr) {
    EXPECT_EQ(nr.num_or("ready", -1), 0.0);
    EXPECT_EQ(nr.num_or("outbox", -1), 0.0);
  }
  EXPECT_EQ(doc.num_or("live_contexts", -1),
            static_cast<double>(f.machine->live_contexts()));
  EXPECT_EQ(doc.num_or("max_clock", 0), static_cast<double>(f.machine->max_clock()));
  // The always-on coarse window captured the run.
  EXPECT_GT(doc.find("node_reports")->arr[0].find("flight")->arr.size(), 0u);
}

TEST(Postmortem, TracedFlightIsTheNewestRingRecords) {
  // With tracing on, each node's flight array is the newest <= 256 records
  // of the same ring dump_trace exports, fine kinds included.
  MachineConfig cfg = test_config(ExecMode::ParallelOnly);
  cfg.trace = true;
  SimMachine mach(2, cfg);
  const seqbench::Ids ids = seqbench::register_seqbench(mach.registry(), true);
  mach.registry().finalize();
  EXPECT_EQ(mach.run_main(0, ids.fib, kNoObject, {Value(10)}).as_i64(), 55);
  std::ostringstream os;
  mach.write_postmortem(os, "inspect");
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), doc, &err)) << err;
  check_node_reports(doc, 2);
  const TraceDump dump = dump_trace(mach);
  for (NodeId n = 0; n < 2; ++n) {
    std::vector<TraceRecord> ring;
    for (const TraceEvent& e : dump.events) {
      if (e.node == n) ring.push_back(e.rec);
    }
    const JsonValue& nr = doc.find("node_reports")->arr[n];
    EXPECT_EQ(nr.num_or("flight_total", -1), static_cast<double>(ring.size()));
    const std::vector<JsonValue>& flight = nr.find("flight")->arr;
    ASSERT_EQ(flight.size(), std::min<std::size_t>(ring.size(), Tracer::kCoarseWindow));
    const std::size_t skip = ring.size() - flight.size();
    for (std::size_t i = 0; i < flight.size(); ++i) {
      const TraceRecord& r = ring[skip + i];
      const std::string method =
          r.method == kInvalidMethod ? "(none)" : mach.registry().info(r.method).name;
      EXPECT_EQ(flight[i].num_or("clock", -1), static_cast<double>(r.clock));
      EXPECT_EQ(flight[i].str_or("kind", ""), trace_kind_name(r.kind));
      EXPECT_EQ(flight[i].str_or("method", ""), method);
      EXPECT_EQ(flight[i].num_or("arg", -1), static_cast<double>(r.arg));
    }
  }
}

}  // namespace
}  // namespace concert
