// Implicit object locking: a locks_self method holds its target for the
// whole activation — across suspensions — and concurrent invocations are
// serialized (the classic read-modify-write lost-update test).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

MethodId g_bump = kInvalidMethod;
MethodId g_delay = kInvalidMethod;

struct Counter {
  std::int64_t value = 0;
  GlobalRef delay_obj;  ///< remote object the bump round-trips through
};

constexpr SlotId kTmp = 0;
constexpr SlotId kAck = 1;

Context* delay_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                   std::size_t) {
  *ret = Value(1);
  return nullptr;
}
void delay_par(Node& nd, Context& ctx) { ParFrame(nd, ctx).complete(Value(1)); }

// bump: tmp = value; <round trip to a remote object>; value = tmp + 1.
// Without locking, two overlapping bumps both read the same tmp and one
// update is lost. With locks_self the second is deferred until the first
// activation completes.
Context* bump_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  Counter& c = nd.objects().get<Counter>(self);
  const std::int64_t tmp = c.value;
  Frame f(nd, g_bump, self, ci, args, nargs);
  Value ack;
  if (!f.call(g_delay, c.delay_obj, {}, kAck, &ack)) {
    return f.fallback(1, {{kTmp, Value(tmp)}});
  }
  c.value = tmp + 1;
  *ret = Value(c.value);
  return nullptr;
}
void bump_par(Node& nd, Context& ctx) {
  Counter& c = nd.objects().get<Counter>(ctx.self);
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.save(kTmp, Value(c.value));
      f.spawn(g_delay, c.delay_obj, {}, kAck);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      c.value = f.get(kTmp).as_i64() + 1;
      f.complete(Value(c.value));
      return;
    default:
      CONCERT_UNREACHABLE("bump bad pc");
  }
}

enum class Engine { Sim, Threaded };

struct LockWorld {
  std::unique_ptr<Machine> machine;
  GlobalRef counter;

  LockWorld(bool locked, ExecMode mode = ExecMode::Hybrid3, Engine engine = Engine::Sim) {
    if (engine == Engine::Threaded) {
      machine = std::make_unique<ThreadedMachine>(2, test_config(mode));
    } else {
      machine = std::make_unique<SimMachine>(2, test_config(mode));
    }
    auto& reg = machine->registry();
    MethodDecl d;
    d.name = "delay";
    d.seq = delay_seq;
    d.par = delay_par;
    g_delay = reg.declare(d);
    d = MethodDecl{};
    d.name = "bump";
    d.seq = bump_seq;
    d.par = bump_par;
    d.frame_slots = 2;
    d.blocks_locally = true;
    d.locks_self = locked;
    g_bump = reg.declare(d);
    reg.add_callee(g_bump, g_delay);
    reg.finalize();

    auto [cref, counter_obj] = machine->node(0).objects().create<Counter>(0xC0u);
    counter = cref;
    auto [dref, delay_obj] = machine->node(1).objects().create<int>(0xDEu, 0);
    (void)delay_obj;
    counter_obj->delay_obj = dref;
  }

  /// Issues `n` overlapping bumps, runs to quiescence, returns final value.
  std::int64_t overlapping_bumps(int n) {
    std::vector<Context*> roots;
    for (int i = 0; i < n; ++i) {
      Node& nd = machine->node(0);
      Context& root = nd.alloc_context_raw(kInvalidMethod, 1);
      root.status = ContextStatus::Proxy;
      root.expect(0);
      roots.push_back(&root);
      nd.send(Message::invoke(0, 0, g_bump, counter, {}, {root.ref(), 0, false}));
    }
    machine->run_until_quiescent();
    for (Context* r : roots) machine->node(0).free_context(*r);
    return machine->node(0).objects().get<Counter>(counter).value;
  }
};

TEST(ImplicitLocking, UnlockedLosesUpdates) {
  LockWorld w(/*locked=*/false);
  // Both bumps read 0 before either writes: the update is lost.
  EXPECT_EQ(w.overlapping_bumps(2), 1);
}

TEST(ImplicitLocking, LockedSerializesUpdates) {
  LockWorld w(/*locked=*/true);
  EXPECT_EQ(w.overlapping_bumps(2), 2);
  EXPECT_FALSE(w.machine->node(0).objects().locked(w.counter)) << "lock leaked";
  EXPECT_EQ(w.machine->live_contexts(), 0u);
}

// Both engines, with counts above the threaded engine's ready quantum (32
// context slices per loop turn): while the first bump holds the lock, every
// other one is a ready context that run_one defers to the back of the queue,
// so on node threads a whole quantum can be nothing but deferrals.
class LockCounts : public ::testing::TestWithParam<std::tuple<Engine, int>> {};

TEST_P(LockCounts, NOverlappingBumpsAllLand) {
  const auto [engine, n] = GetParam();
  LockWorld w(/*locked=*/true, ExecMode::Hybrid3, engine);
  EXPECT_EQ(w.overlapping_bumps(n), n);
  EXPECT_FALSE(w.machine->node(0).objects().locked(w.counter)) << "lock leaked";
  EXPECT_EQ(w.machine->live_contexts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Counts, LockCounts,
                         ::testing::Combine(::testing::Values(Engine::Sim, Engine::Threaded),
                                            ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 100)));

TEST(ImplicitLocking, ParallelOnlyModeAlsoSerializes) {
  LockWorld w(true, ExecMode::ParallelOnly);
  EXPECT_EQ(w.overlapping_bumps(4), 4);
}

TEST(ImplicitLocking, Hybrid1ModeAlsoSerializes) {
  // Hybrid1 degrades calls to the CP convention, but implicitly-locking
  // methods are exempt (their lock release is tied to the MB/NB completion
  // protocol), so correctness is preserved under the 1-interface config too.
  LockWorld w(true, ExecMode::Hybrid1);
  EXPECT_EQ(w.overlapping_bumps(3), 3);
}

TEST(ImplicitLocking, StackPathLocksAndUnlocksBracketed) {
  // A bump whose delay object is local completes on the stack; the lock must
  // be taken and released within the call.
  LockWorld w(true);
  // Re-point the delay object to node 0 (local): stack completion path.
  w.machine->node(0).objects().get<Counter>(w.counter).delay_obj =
      w.machine->node(0).objects().create<int>(0xDEu, 0).first;
  EXPECT_EQ(w.overlapping_bumps(2), 2);
  EXPECT_FALSE(w.machine->node(0).objects().locked(w.counter));
}

TEST(ImplicitLocking, CPMethodsRejected) {
  SimMachine m(1, test_config());
  MethodDecl d;
  d.name = "locked_cp";
  d.seq = delay_seq;
  d.par = delay_par;
  d.uses_continuation = true;
  d.locks_self = true;
  m.registry().declare(d);
  EXPECT_THROW(m.registry().finalize(), ProtocolError);
}

}  // namespace
}  // namespace concert
