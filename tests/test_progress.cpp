// concert-progress tests: the static reply-obligation & termination analysis
// (src/verify/progress), its lint integration, the quiescence-time
// orphaned-continuation / reply-balance sanitizer on both engines, and the
// stall watchdog (MachineConfig::stall_timeout).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/seqbench/seqbench.hpp"
#include "core/analysis.hpp"
#include "core/barrier.hpp"
#include "core/invoke.hpp"
#include "core/tree_barrier.hpp"
#include "core/wrapper.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "test_util.hpp"
#include "verify/conformance.hpp"
#include "verify/lint.hpp"
#include "verify/progress.hpp"

namespace concert {
namespace {

using testing::test_config;
using verify::LintCode;
using verify::LintReport;
using verify::ProgressAnalysis;
using verify::ProgressIssue;
using verify::ProgressIssueKind;
using verify::ViolationKind;

// ===========================================================================
// Static analysis
// ===========================================================================

Context* dummy_seq(Node&, Value*, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  return nullptr;
}
void dummy_par(Node&, Context&) {}

MethodInfo raw(const char* name, bool blocks = false, bool uses_cont = false) {
  MethodInfo m;
  m.name = name;
  m.seq = dummy_seq;
  m.par = dummy_par;
  m.blocks_locally = blocks;
  m.uses_continuation = uses_cont;
  return m;
}

std::vector<MethodInfo> analyzed(std::vector<MethodInfo> methods) {
  analyze_schemas(methods);
  return methods;
}

std::size_t count_kind(const ProgressAnalysis& a, ProgressIssueKind k) {
  std::size_t n = 0;
  for (const ProgressIssue& i : a.issues) n += i.kind == k ? 1 : 0;
  return n;
}

TEST(Progress, BankerWithoutReplierIsLostReply) {
  const std::vector<MethodInfo> methods = analyzed({raw("banker", false, /*uses_cont=*/true)});
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(a.issues.size(), 1u);
  EXPECT_EQ(a.issues[0].kind, ProgressIssueKind::LostReply);
  EXPECT_EQ(a.issues[0].method, 0u);
  EXPECT_EQ(a.issues[0].path, std::vector<MethodId>{0});
  EXPECT_NE(a.issues[0].detail.find("no replier"), std::string::npos);
  // And the lint integration maps it onto the established diagnostic stream.
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::LostReply)) << report.to_string();
}

TEST(Progress, NonAliasingReplierIsLostReply) {
  MethodInfo banker = raw("banker", false, true);
  banker.class_id = 2;
  MethodInfo drain = raw("drain");
  drain.class_id = 3;
  std::vector<MethodInfo> methods = analyzed({banker, drain});
  methods[0].repliers = {1};
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(a.issues.size(), 1u);
  EXPECT_EQ(a.issues[0].kind, ProgressIssueKind::LostReply);
  EXPECT_EQ(a.issues[0].other, 1u);
  EXPECT_EQ(a.issues[0].path, (std::vector<MethodId>{0, 1}));
  EXPECT_NE(a.issues[0].detail.find("never alias"), std::string::npos);
}

TEST(Progress, AliasingReplierBalancesTheBanker) {
  MethodInfo banker = raw("banker", false, true);
  banker.class_id = 5;
  MethodInfo drain = raw("drain");
  drain.class_id = 5;
  std::vector<MethodInfo> methods = analyzed({banker, drain});
  methods[0].repliers = {1};
  const ProgressAnalysis a = verify::analyze_progress(methods);
  EXPECT_TRUE(a.issues.empty());
  ASSERT_EQ(a.ledgers.size(), 1u);
  EXPECT_TRUE(a.ledgers[0].banks);
  EXPECT_TRUE(a.ledgers[0].balanced);
  EXPECT_EQ(a.ledgers[0].repliers, std::vector<MethodId>{1});
  EXPECT_NE(verify::format_ledger(methods, a.ledgers[0]).find("drained by drain"),
            std::string::npos);
}

TEST(Progress, FanOutForwardIsDoubleReply) {
  std::vector<MethodInfo> methods = {raw("req"), raw("a"), raw("b")};
  methods[0].callees = {1, 2};
  methods[0].forwards_to = {1, 2};
  analyze_schemas(methods);
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(count_kind(a, ProgressIssueKind::DoubleReply), 1u);
  const ProgressIssue& i = a.issues[0];
  EXPECT_EQ(i.kind, ProgressIssueKind::DoubleReply);
  EXPECT_EQ(i.method, 0u);
  EXPECT_NE(i.detail.find("2 targets"), std::string::npos);
  EXPECT_TRUE(verify::lint_methods(methods).has(LintCode::DoubleReply));
}

TEST(Progress, WidthUnderBudgetIsLostReplyOnTamperedTable) {
  // Seal-time invariants forbid multi_return > 1 on CP methods, so width
  // arithmetic only matters on hand-tampered tables — lint must still hold.
  std::vector<MethodInfo> methods = {raw("f"), raw("e")};
  methods[0].schema = Schema::ContinuationPassing;
  methods[0].multi_return = 2;  // budget 2
  methods[0].callees = {1};
  methods[0].forwards_to = {1};
  methods[1].schema = Schema::ContinuationPassing;  // stack path delivers 1
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(count_kind(a, ProgressIssueKind::LostReply), 1u);
  EXPECT_NE(a.issues[0].detail.find("stack-path discharge"), std::string::npos);
  EXPECT_EQ(a.issues[0].path, (std::vector<MethodId>{0, 1}));
}

TEST(Progress, WidthOverBudgetIsDoubleReplyOnTamperedTable) {
  std::vector<MethodInfo> methods = {raw("f"), raw("e")};
  methods[0].schema = Schema::ContinuationPassing;  // budget 1
  methods[0].callees = {1};
  methods[0].forwards_to = {1};
  methods[1].schema = Schema::NonBlocking;
  methods[1].multi_return = 2;  // replies 2 against budget 1
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(count_kind(a, ProgressIssueKind::DoubleReply), 1u);
  EXPECT_NE(a.issues[0].detail.find("double-fill"), std::string::npos);
}

TEST(Progress, UnboundedCycleReportedOnceAtSmallestMember) {
  std::vector<MethodInfo> methods = {raw("ping"), raw("pong")};
  methods[0].callees = {1};
  methods[0].forwards_to = {1};
  methods[1].callees = {0};
  methods[1].forwards_to = {0};
  analyze_schemas(methods);
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(count_kind(a, ProgressIssueKind::ForwardLivelock), 1u);
  const ProgressIssue* cyc = nullptr;
  for (const ProgressIssue& i : a.issues)
    if (i.kind == ProgressIssueKind::ForwardLivelock) cyc = &i;
  ASSERT_NE(cyc, nullptr);
  EXPECT_EQ(cyc->method, 0u);
  EXPECT_EQ(cyc->path, (std::vector<MethodId>{0, 1, 0}));
  EXPECT_NE(verify::format_progress_issue(methods, *cyc).find("ping -> pong -> ping"),
            std::string::npos);
  EXPECT_TRUE(verify::lint_methods(methods).has(LintCode::ForwardLivelock));
}

TEST(Progress, SelfForwardWithoutTerminationArgumentIsLivelock) {
  std::vector<MethodInfo> methods = {raw("loop")};
  methods[0].callees = {0};
  methods[0].forwards_to = {0};
  analyze_schemas(methods);
  const ProgressAnalysis a = verify::analyze_progress(methods);
  ASSERT_EQ(count_kind(a, ProgressIssueKind::ForwardLivelock), 1u);
  EXPECT_EQ(a.issues.back().path, (std::vector<MethodId>{0, 0}));
}

TEST(Progress, BoundedForwardingIsAToleratedCycle) {
  // PR 2 tolerated declared cycles wholesale; the upgraded stance accepts
  // them only with a declared termination argument on every member.
  std::vector<MethodInfo> methods = {raw("countdown")};
  methods[0].callees = {0};
  methods[0].forwards_to = {0};
  methods[0].bounded_forwarding = true;
  analyze_schemas(methods);
  const ProgressAnalysis a = verify::analyze_progress(methods);
  EXPECT_TRUE(a.issues.empty());
  ASSERT_EQ(a.ledgers.size(), 1u);
  EXPECT_TRUE(a.ledgers[0].bounded);
  EXPECT_TRUE(a.ledgers[0].balanced);
}

TEST(Progress, BarrierProtocolsCarryBalancedCertificates) {
  // The static quiescence-progress certificate for both shipped barrier
  // protocols: every banked arrival is drained by a declared, class-aliasing
  // replier, so every ledger balances and no diagnostic fires.
  {
    MethodRegistry reg;
    register_barrier_methods(reg);
    reg.finalize();
    const ProgressAnalysis a = verify::analyze_progress(reg.methods());
    EXPECT_TRUE(a.issues.empty());
    for (const auto& l : a.ledgers) EXPECT_TRUE(l.balanced) << reg.info(l.method).name;
  }
  {
    MethodRegistry reg;
    register_tree_barrier_methods(reg);
    reg.finalize();
    const ProgressAnalysis a = verify::analyze_progress(reg.methods());
    EXPECT_TRUE(a.issues.empty());
    bool saw_banker = false;
    for (const auto& l : a.ledgers) {
      EXPECT_TRUE(l.balanced) << reg.info(l.method).name;
      if (l.banks) {
        saw_banker = true;
        EXPECT_EQ(l.repliers.size(), 3u);  // arrive, notify, release all drain
      }
    }
    EXPECT_TRUE(saw_banker);
  }
}

TEST(Progress, ReplierRegistrationRequiresABanker) {
  MethodRegistry reg;
  MethodDecl d;
  d.name = "plain";
  d.seq = dummy_seq;
  d.par = dummy_par;
  const MethodId plain = reg.declare(d);
  EXPECT_THROW(reg.add_replier(plain, plain), ProtocolError);
}

// ===========================================================================
// Dynamic half: orphaned continuations, reply balance, stall watchdog
// ===========================================================================
//
//   stuck()    honest MB leaf whose par body suspends on a future nothing
//              will ever fill — its caller's reply never comes
//   napper()   honest MB leaf that completes normally after suspension paths
//   driver()   calls stuck (edge declared); orphaned alongside it
//   nap_driver() calls napper; resumes and completes — the clean control
//   pp_ping/pp_pong  unbounded forwarding cycle for the sim watchdog

MethodId g_stuck, g_napper, g_driver, g_nap_driver, g_pp_ping, g_pp_pong;

constexpr SlotId kV = 0;

Context* leaf_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  *ret = Value(std::int64_t{7});
  return nullptr;
}
void stuck_par(Node& nd, Context& ctx) {
  ctx.expect(0);
  nd.suspend(ctx);  // legally MB — but the future never fills
}
void napper_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(Value(std::int64_t{7}));
}

template <MethodId* kSelf, MethodId* kCallee>
Context* call_one_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                      const Value* args, std::size_t nargs) {
  Frame f(nd, *kSelf, self, ci, args, nargs);
  Value v;
  if (!f.call(*kCallee, self, {}, kV, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
template <MethodId* kCallee>
void call_one_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(*kCallee, ctx.self, {}, kV);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      f.complete(f.get(kV));
      return;
    default:
      CONCERT_UNREACHABLE("call_one_par bad pc");
  }
}

// Unbounded forward ping-pong: every heap dispatch moves the reply
// obligation to the other method, so the run never quiesces. Driven under
// ParallelOnly so each hop is one scheduled action (a local stack forward
// would recurse instead).
template <MethodId* kNext>
void pp_par(Node& nd, Context& ctx) {
  Continuation k = ctx.ret;
  const GlobalRef self = ctx.self;
  nd.free_context(ctx);
  k.forwarded = true;
  ++nd.stats.continuations_forwarded;
  invoke_with_continuation(nd, *kNext, self, nullptr, 0, k);
}

struct OrphanProgram {
  std::unique_ptr<Machine> machine;

  explicit OrphanProgram(bool threaded) {
    MachineConfig cfg = test_config(ExecMode::Hybrid3);
    cfg.verify = true;
    if (threaded) {
      machine = std::make_unique<ThreadedMachine>(1, cfg);
    } else {
      machine = std::make_unique<SimMachine>(1, cfg);
    }
    auto& reg = machine->registry();

    MethodDecl d;
    d.name = "stuck";
    d.seq = leaf_seq;
    d.par = stuck_par;
    d.frame_slots = 1;
    d.blocks_locally = true;
    g_stuck = reg.declare(d);

    d = MethodDecl{};
    d.name = "napper";
    d.seq = leaf_seq;
    d.par = napper_par;
    d.blocks_locally = true;
    g_napper = reg.declare(d);

    d = MethodDecl{};
    d.name = "driver";
    d.seq = call_one_seq<&g_driver, &g_stuck>;
    d.par = call_one_par<&g_stuck>;
    d.frame_slots = 1;
    g_driver = reg.declare(d);
    reg.add_callee(g_driver, g_stuck);

    d = MethodDecl{};
    d.name = "nap_driver";
    d.seq = call_one_seq<&g_nap_driver, &g_napper>;
    d.par = call_one_par<&g_napper>;
    d.frame_slots = 1;
    g_nap_driver = reg.declare(d);
    reg.add_callee(g_nap_driver, g_napper);

    reg.finalize();
  }
};

class ProgressEngines : public ::testing::TestWithParam<bool> {};

TEST_P(ProgressEngines, OrphanedContinuationCaughtAtQuiescence) {
  OrphanProgram p(GetParam());
  p.machine->node(0).injector().inject_at(g_stuck, 0);  // force the heap path
  EXPECT_THROW(p.machine->run_main(0, g_driver, kNoObject, {}), ProtocolError);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  ASSERT_TRUE(report.has(ViolationKind::OrphanedContinuation)) << report.to_string();
  // Both the stuck leaf and the driver awaiting its reply are orphaned; the
  // driver's entry names the stuck method in its continuation-ancestor chain.
  bool stuck_named = false;
  for (const verify::Violation& v : report.violations) {
    if (v.kind == ViolationKind::OrphanedContinuation &&
        v.message.find("stuck") != std::string::npos) {
      stuck_named = true;
      EXPECT_NE(v.message.find("still suspended at quiescence"), std::string::npos);
    }
  }
  EXPECT_TRUE(stuck_named) << report.to_string();
}

TEST_P(ProgressEngines, ResumedSuspensionIsNotAnOrphan) {
  OrphanProgram p(GetParam());
  p.machine->node(0).injector().inject_at(g_napper, 0);
  const Value v = p.machine->run_main(0, g_nap_driver, kNoObject, {});
  EXPECT_EQ(v.as_i64(), 7);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(p.machine->total_stats().suspensions, 0u);  // the napper did suspend
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ProgressEngines, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threaded" : "Sim";
                         });

TEST(Progress, ReplyBalanceCrossChecksObservedWidths) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.verify = true;
  SimMachine mach(1, cfg);
  MethodDecl d;
  d.name = "wide";
  d.seq = leaf_seq;
  d.par = napper_par;
  d.multi_return = 2;
  const MethodId wide = mach.registry().declare(d);
  mach.registry().finalize();

  // An observed single-value discharge against a declared budget of 2: the
  // dynamic ledger contradicts the static one.
  mach.node(0).verifier.record_reply(wide, 1);
  const verify::ConformanceReport report = verify::check_conformance(mach);
  const verify::Violation* v = report.find(ViolationKind::ReplyBalanceViolation);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, wide);
  EXPECT_NE(v->message.find("wide"), std::string::npos);
}

TEST(Progress, MatchingObservedWidthsStayClean) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.verify = true;
  SimMachine mach(1, cfg);
  MethodDecl d;
  d.name = "wide";
  d.seq = leaf_seq;
  d.par = napper_par;
  d.multi_return = 2;
  const MethodId wide = mach.registry().declare(d);
  mach.registry().finalize();
  mach.node(0).verifier.record_reply(wide, 2);
  mach.node(0).verifier.record_reply(wide, 2);
  const verify::ConformanceReport report = verify::check_conformance(mach);
  EXPECT_FALSE(report.has(ViolationKind::ReplyBalanceViolation)) << report.to_string();
  EXPECT_EQ(report.totals.replies_recorded, 2u);
}

TEST(ProgressWatchdog, OffByDefault) {
  EXPECT_EQ(MachineConfig{}.stall_timeout, 0u);
}

TEST(ProgressWatchdog, ThreadedStallDumpsInsteadOfHanging) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.stall_timeout = 60;  // ms
  ThreadedMachine mach(1, cfg);
  mach.registry().finalize();
  mach.on_work_created();  // phantom credit no action will ever retire
  try {
    mach.run_until_quiescent();
    FAIL() << "stall watchdog did not fire";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled"), std::string::npos) << what;
    EXPECT_NE(what.find("stall report"), std::string::npos) << what;
    EXPECT_NE(what.find("node 0"), std::string::npos) << what;
  }
  mach.on_work_retired();  // rebalance the accounting before teardown
}

TEST(ProgressWatchdog, SimBudgetCatchesForwardLivelock) {
  // The runtime shape the static forward-livelock diagnostic predicts: an
  // unbounded forwarding cycle moves the reply obligation forever. The
  // deterministic engine has no idle heartbeat (it is always busy), so its
  // watchdog is a wall-clock budget on the whole run.
  MachineConfig cfg = test_config(ExecMode::ParallelOnly);
  cfg.stall_timeout = 50;  // ms
  SimMachine mach(1, cfg);
  auto& reg = mach.registry();
  MethodDecl d;
  d.name = "pp_ping";
  d.seq = leaf_seq;
  d.par = pp_par<&g_pp_pong>;
  g_pp_ping = reg.declare(d);
  d = MethodDecl{};
  d.name = "pp_pong";
  d.seq = leaf_seq;
  d.par = pp_par<&g_pp_ping>;
  g_pp_pong = reg.declare(d);
  reg.add_callee(g_pp_ping, g_pp_pong, /*forwards=*/true);
  reg.add_callee(g_pp_pong, g_pp_ping, /*forwards=*/true);
  reg.finalize();
  try {
    (void)mach.run_main(0, g_pp_ping, kNoObject, {});
    FAIL() << "stall budget did not fire";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stall budget"), std::string::npos) << what;
    EXPECT_NE(what.find("stall report"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace concert
