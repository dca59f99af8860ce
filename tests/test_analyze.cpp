// concert-analyze tests: lock-order deadlock detection (static witness search
// + dynamic quarantine on both engines).
#include <gtest/gtest.h>

#include <memory>

#include "core/analysis.hpp"
#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "test_util.hpp"
#include "verify/conformance.hpp"
#include "verify/lint.hpp"

namespace concert {
namespace {

using testing::test_config;
using verify::LintCode;
using verify::LintReport;
using verify::LockCycle;
using verify::ViolationKind;

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

MethodInfo locked(const char* name, std::uint32_t class_id) {
  MethodInfo m = raw(name);
  m.locks_self = true;
  m.class_id = class_id;
  return m;
}

// ===========================================================================
// Static lock-cycle detection
// ===========================================================================

TEST(LockCycles, AliasRules) {
  const MethodInfo a = locked("a", 2);
  const MethodInfo b = locked("b", 2);
  const MethodInfo c = locked("c", 3);
  const MethodInfo u = locked("u", 0);
  EXPECT_TRUE(verify::locks_may_alias(a, b));
  EXPECT_FALSE(verify::locks_may_alias(a, c));
  EXPECT_TRUE(verify::locks_may_alias(a, u));  // unclassed aliases everything
  EXPECT_TRUE(verify::locks_may_alias(u, c));
}

TEST(LockCycles, DirectSelfRecursion) {
  std::vector<MethodInfo> methods = {locked("rec", 1)};
  methods[0].callees = {0};
  analyze_schemas(methods);

  const std::vector<LockCycle> cycles = verify::find_lock_cycles(methods);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].holder, 0u);
  EXPECT_EQ(cycles[0].reacquirer, 0u);
  EXPECT_EQ(cycles[0].path, (std::vector<MethodId>{0, 0}));
  EXPECT_NE(verify::format_lock_cycle(methods, cycles[0]).find("re-invokes itself"),
            std::string::npos);

  const LintReport report = verify::lint_methods(methods);
  const verify::Diagnostic* d = report.find(LintCode::SelfDeadlock);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->method, 0u);
  EXPECT_EQ(d->severity, verify::Severity::Error);
}

TEST(LockCycles, CycleThroughNonLockingIntermediary) {
  // bump holds its lock while the path it spawned re-invokes bump via a
  // helper that takes no lock of its own.
  std::vector<MethodInfo> methods = {locked("bump", 1), raw("helper")};
  methods[0].callees = {1};
  methods[1].callees = {0};
  analyze_schemas(methods);

  const std::vector<LockCycle> cycles = verify::find_lock_cycles(methods);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].holder, 0u);
  EXPECT_EQ(cycles[0].reacquirer, 0u);
  EXPECT_EQ(cycles[0].path, (std::vector<MethodId>{0, 1, 0}));
  EXPECT_NE(verify::format_lock_cycle(methods, cycles[0]).find("bump -> helper -> bump"),
            std::string::npos);
  EXPECT_TRUE(verify::lint_methods(methods).has(LintCode::SelfDeadlock));
}

TEST(LockCycles, ForwardingEdgesAreTraversed) {
  // The cycle is only reachable through a forwarding edge: fwd hands its
  // continuation to sink, and sink calls back into fwd. A detector that only
  // walked plain call edges would miss it.
  std::vector<MethodInfo> methods = {locked("fwd", 1), raw("sink")};
  methods[0].forwards_to = {1};
  methods[1].callees = {0};

  const std::vector<LockCycle> cycles = verify::find_lock_cycles(methods);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].holder, 0u);
  EXPECT_EQ(cycles[0].reacquirer, 0u);
  EXPECT_EQ(cycles[0].path, (std::vector<MethodId>{0, 1, 0}));
}

TEST(LockCycles, DistinctClassesCannotAlias) {
  // Holding a class-3 lock while taking a class-4 lock is lock *ordering*,
  // not a cycle: the two classes can never guard the same object.
  std::vector<MethodInfo> methods = {locked("lock_c", 3), locked("lock_d", 4)};
  methods[0].callees = {1};
  analyze_schemas(methods);

  EXPECT_TRUE(verify::find_lock_cycles(methods).empty());
  const LintReport report = verify::lint_methods(methods);
  EXPECT_FALSE(report.has(LintCode::SelfDeadlock));
  EXPECT_FALSE(report.has(LintCode::LockOrderCycle));
}

TEST(LockCycles, UnclassedLockAliasesEveryClass) {
  std::vector<MethodInfo> methods = {locked("lock_a", 2), raw("mid"), locked("unclassed", 0)};
  methods[0].callees = {1};
  methods[1].callees = {2};
  analyze_schemas(methods);

  const std::vector<LockCycle> cycles = verify::find_lock_cycles(methods);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].holder, 0u);
  EXPECT_EQ(cycles[0].reacquirer, 2u);
  EXPECT_EQ(cycles[0].path, (std::vector<MethodId>{0, 1, 2}));
  EXPECT_NE(verify::format_lock_cycle(methods, cycles[0]).find("possibly-aliasing"),
            std::string::npos);

  const LintReport report = verify::lint_methods(methods);
  const verify::Diagnostic* d = report.find(LintCode::LockOrderCycle);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->method, 0u);
  EXPECT_EQ(d->other, 2u);
}

// ===========================================================================
// Dynamic lock tracking and deadlock quarantine
// ===========================================================================

MethodId g_reenter = kInvalidMethod;
MethodId g_once = kInvalidMethod;
constexpr SlotId kSlot = 0;

// reenter: invokes itself on its own (implicitly locked) target. The inner
// invocation can never be dispatched — its lock holder is its own ancestor.
Context* reenter_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                     const Value* args, std::size_t nargs) {
  Frame f(nd, g_reenter, self, ci, args, nargs);
  Value v;
  if (!f.call(g_reenter, self, {}, kSlot, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
void reenter_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(g_reenter, ctx.self, {}, kSlot);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      f.complete(f.get(kSlot));
      return;
    default:
      CONCERT_UNREACHABLE("reenter bad pc");
  }
}

Context* once_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  *ret = Value(7);
  return nullptr;
}
void once_par(Node& nd, Context& ctx) { ParFrame(nd, ctx).complete(Value(7)); }

struct LockTrackProgram {
  std::unique_ptr<Machine> machine;
  GlobalRef obj;

  explicit LockTrackProgram(bool threaded) {
    MachineConfig cfg = test_config();
    cfg.verify = true;
    if (threaded) {
      machine = std::make_unique<ThreadedMachine>(1, cfg);
    } else {
      machine = std::make_unique<SimMachine>(1, cfg);
    }
    auto& reg = machine->registry();

    MethodDecl d;
    d.name = "reenter";
    d.seq = reenter_seq;
    d.par = reenter_par;
    d.frame_slots = 1;
    d.blocks_locally = true;
    d.locks_self = true;
    d.class_id = 1;
    g_reenter = reg.declare(d);
    reg.add_callee(g_reenter, g_reenter);

    d = MethodDecl{};
    d.name = "once";
    d.seq = once_seq;
    d.par = once_par;
    d.locks_self = true;
    d.class_id = 2;
    g_once = reg.declare(d);

    reg.finalize();
    obj = machine->node(0).objects().create<int>(0xAAu, 0).first;
  }
};

class AnalyzeEngines : public ::testing::TestWithParam<bool> {};

TEST_P(AnalyzeEngines, BalancedLockBracketsAreConformant) {
  LockTrackProgram p(GetParam());
  const Value v = p.machine->run_main(0, g_once, p.obj, {});
  EXPECT_EQ(v.as_i64(), 7);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.totals.lock_acquires, 1u);
  EXPECT_EQ(report.totals.lock_acquires, report.totals.lock_releases);
}

TEST_P(AnalyzeEngines, RuntimeSelfDeadlockQuarantinedAndReported) {
  // The linter already rejects this registry statically (declared self-edge
  // under locks_self); the dynamic counterpart must catch the same program
  // when it actually runs: the scheduler quarantines the re-acquisition
  // instead of re-deferring it forever, and quiescence-time verification
  // fails the run.
  LockTrackProgram p(GetParam());
  EXPECT_TRUE(verify::lint_registry(p.machine->registry()).has(LintCode::SelfDeadlock));
  EXPECT_THROW(p.machine->run_main(0, g_reenter, p.obj, {}), ProtocolError);

  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  const verify::Violation* v = report.find(ViolationKind::ReentrantAcquire);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, g_reenter);
  EXPECT_EQ(v->other, g_reenter);
  // The quarantined holder never completes, so its lock is still held.
  EXPECT_TRUE(report.has(ViolationKind::LockHeldAtQuiescence)) << report.to_string();
  EXPECT_GT(report.totals.reentrant_acquires, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, AnalyzeEngines, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threaded" : "Sim";
                         });

TEST(LockTracking, LeakedBracketReportedAtQuiescence) {
  MachineConfig cfg = test_config();
  cfg.verify = true;
  SimMachine m(1, cfg);
  MethodDecl d;
  d.name = "leaky";
  d.seq = once_seq;
  d.par = once_par;
  const MethodId leaky = m.registry().declare(d);
  m.registry().finalize();

  m.node(0).verifier.record_lock_acquire(leaky, GlobalRef{0, 5}.pack());
  const verify::ConformanceReport report = verify::check_conformance(m);
  const verify::Violation* v = report.find(ViolationKind::LockHeldAtQuiescence);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, leaky);
  EXPECT_NE(v->message.find("0:5"), std::string::npos) << v->message;

  m.node(0).verifier.record_lock_release(GlobalRef{0, 5}.pack());
  EXPECT_TRUE(verify::check_conformance(m).clean());
}

}  // namespace
}  // namespace concert
