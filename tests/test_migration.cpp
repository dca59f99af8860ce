// Object migration: stale names are chased through forwarding records, the
// hybrid runtime re-adapts to the new layout, and everything stays correct.
#include <gtest/gtest.h>

#include "apps/seqbench/seqbench.hpp"
#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "objects/migration.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

struct MigWorld {
  std::unique_ptr<SimMachine> machine;
  seqbench::Ids ids;

  explicit MigWorld(std::size_t nodes, ExecMode mode = ExecMode::Hybrid3) {
    machine = std::make_unique<SimMachine>(nodes, test_config(mode));
    ids = seqbench::register_seqbench(machine->registry(), /*distributed=*/true);
    machine->registry().finalize();
  }
};

TEST(Migration, ObjectSpaceForwardingRecords) {
  MigWorld w(2);
  auto [ref, obj] = w.machine->node(0).objects().create<int>(1, 42);
  (void)obj;
  EXPECT_FALSE(w.machine->node(0).objects().is_forwarded(ref));
  const GlobalRef moved = migrate_object<int>(*w.machine, ref, 1);
  EXPECT_EQ(moved.node, 1u);
  EXPECT_TRUE(w.machine->node(0).objects().is_forwarded(ref));
  EXPECT_EQ(w.machine->node(0).objects().forward_of(ref), moved);
  EXPECT_EQ(w.machine->node(1).objects().get<int>(moved), 42);
}

TEST(Migration, StaleLocalNameStillWorks) {
  MigWorld w(2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 0, 64, 7);
  const GlobalRef moved = migrate_object<seqbench::IntArray>(*w.machine, arr, 1);
  // Invoke through the STALE name from the old home node: the runtime must
  // chase the forward to node 1 and still sort.
  const Value v = w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(64)});
  EXPECT_GT(v.as_i64(), 0);
  const auto& vals = seqbench::array_values(*w.machine, moved);
  EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
  EXPECT_EQ(w.machine->live_contexts(), 0u);
  // Work actually happened on node 1.
  EXPECT_GT(w.machine->node(1).stats.stack_calls + w.machine->node(1).stats.heap_invokes, 0u);
}

TEST(Migration, StaleRemoteNameIsReRouted) {
  MigWorld w(3);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 64, 9);
  migrate_object<seqbench::IntArray>(*w.machine, arr, 2);
  // Invoked from node 0 using the stale name (home node 1): the message goes
  // to node 1, whose wrapper chases the forward and re-sends to node 2.
  const Value v = w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(64)});
  EXPECT_GT(v.as_i64(), 0);
  EXPECT_GT(w.machine->node(1).stats.msgs_sent, 0u);  // the re-route hop
  EXPECT_GT(w.machine->node(2).stats.stack_calls + w.machine->node(2).stats.heap_invokes, 0u);
  EXPECT_EQ(w.machine->live_contexts(), 0u);
}

TEST(Migration, ChainOfForwardsIsFollowed) {
  MigWorld w(4);
  GlobalRef name0 = seqbench::make_qsort_array(*w.machine, 0, 32, 3);
  const GlobalRef name1 = migrate_object<seqbench::IntArray>(*w.machine, name0, 1);
  const GlobalRef name2 = migrate_object<seqbench::IntArray>(*w.machine, name1, 2);
  const GlobalRef name3 = migrate_object<seqbench::IntArray>(*w.machine, name2, 3);
  // Oldest name, three hops of forwarding.
  const Value v = w.machine->run_main(0, w.ids.qsort, name0, {Value(0), Value(32)});
  EXPECT_GT(v.as_i64(), 0);
  const auto& vals = seqbench::array_values(*w.machine, name3);
  EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
  EXPECT_EQ(w.machine->live_contexts(), 0u);
}

class MigrationModes : public ::testing::TestWithParam<ExecMode> {};

TEST_P(MigrationModes, CorrectInEveryMode) {
  MigWorld w(3, GetParam());
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 48, 11);
  const GlobalRef moved = migrate_object<seqbench::IntArray>(*w.machine, arr, 2);
  const Value v = w.machine->run_main(0, w.ids.qsort, arr, {Value(0), Value(48)});
  EXPECT_GT(v.as_i64(), 0);
  EXPECT_TRUE(std::is_sorted(seqbench::array_values(*w.machine, moved).begin(),
                             seqbench::array_values(*w.machine, moved).end()));
  EXPECT_EQ(w.machine->live_contexts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, MigrationModes,
                         ::testing::Values(ExecMode::Hybrid3, ExecMode::Hybrid1,
                                           ExecMode::ParallelOnly));

TEST(Migration, MigrateBackAndForth) {
  MigWorld w(2);
  GlobalRef name = seqbench::make_qsort_array(*w.machine, 0, 32, 5);
  const GlobalRef there = migrate_object<seqbench::IntArray>(*w.machine, name, 1);
  const GlobalRef back = migrate_object<seqbench::IntArray>(*w.machine, there, 0);
  // The original (now twice-stale) name still reaches the object.
  const Value v = w.machine->run_main(1, w.ids.qsort, name, {Value(0), Value(32)});
  EXPECT_GT(v.as_i64(), 0);
  EXPECT_TRUE(std::is_sorted(seqbench::array_values(*w.machine, back).begin(),
                             seqbench::array_values(*w.machine, back).end()));
}

TEST(Migration, RejectsLockedAndDoubleMigration) {
  MigWorld w(2);
  auto [ref, obj] = w.machine->node(0).objects().create<int>(1, 7);
  (void)obj;
  w.machine->node(0).objects().lock(ref);
  EXPECT_THROW(migrate_object<int>(*w.machine, ref, 1), ProtocolError);
  w.machine->node(0).objects().unlock(ref);
  migrate_object<int>(*w.machine, ref, 1);
  EXPECT_THROW(migrate_object<int>(*w.machine, ref, 1), ProtocolError);  // stale name
}

TEST(Migration, LocalityAdaptsAfterMigration) {
  // partition on a remote object costs messages; after migrating it to the
  // caller's node, the same invocation runs entirely on the local stack.
  MigWorld w(2);
  const GlobalRef arr = seqbench::make_qsort_array(*w.machine, 1, 32, 13);
  w.machine->run_main(0, w.ids.partition, arr, {Value(0), Value(32)});
  const auto msgs_before = w.machine->total_stats().msgs_sent;
  EXPECT_GT(msgs_before, 1u);  // seed + remote round trip

  const GlobalRef here = migrate_object<seqbench::IntArray>(*w.machine, arr, 0);
  const auto base = w.machine->total_stats().msgs_sent;
  w.machine->run_main(0, w.ids.partition, here, {Value(0), Value(32)});
  // Only the seed message; the invocation itself was a local stack call.
  EXPECT_EQ(w.machine->total_stats().msgs_sent - base, 1u);
}

// ---- forwarding to a migrated object ----

MethodId g_relay = kInvalidMethod;
MethodId g_read = kInvalidMethod;

/// CP (a forwarding target): replies with the int64 object it targets.
Context* read_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value*,
                  std::size_t) {
  *ret = Value(nd.objects().get<std::int64_t>(self));
  return nullptr;
}
void read_par(Node& nd, Context& ctx) {
  ParFrame(nd, ctx).complete(Value(nd.objects().get<std::int64_t>(ctx.self)));
}

/// CP: forwards its continuation to `read` of the object named by args[0].
Context* relay_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                   const Value* args, std::size_t nargs) {
  Frame f(nd, g_relay, self, ci, args, nargs);
  return f.forward(g_read, args[0].as_ref(), {}, ret);
}
void relay_par(Node&, Context&) { CONCERT_UNREACHABLE("relay went parallel"); }

class ForwardToMigrated : public ::testing::TestWithParam<ExecMode> {};

TEST_P(ForwardToMigrated, ReachesTheMovedObject) {
  SimMachine m(2, test_config(GetParam()));
  MethodDecl d;
  d.name = "read";
  d.seq = read_seq;
  d.par = read_par;
  g_read = m.registry().declare(d);
  d = MethodDecl{};
  d.name = "relay";
  d.seq = relay_seq;
  d.par = relay_par;
  d.arg_count = 1;
  g_relay = m.registry().declare(d);
  m.registry().add_callee(g_relay, g_read, /*forwards=*/true);
  m.registry().finalize();
  ASSERT_EQ(m.registry().schema(g_read), Schema::ContinuationPassing);

  auto [stale, obj] = m.node(0).objects().create<std::int64_t>(1, 42);
  (void)obj;
  const GlobalRef moved = migrate_object<std::int64_t>(m, stale, 1);
  m.node(1).objects().get<std::int64_t>(moved) = 7;
  // relay runs on node 0 and forwards through the stale local name: the
  // forward must chase the forwarding record to node 1, not read the copy
  // the migration left behind.
  EXPECT_EQ(m.run_main(0, g_relay, kNoObject, {Value(stale)}).as_i64(), 7);
  EXPECT_EQ(m.live_contexts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ForwardToMigrated,
                         ::testing::Values(ExecMode::Hybrid3, ExecMode::Hybrid1));

}  // namespace
}  // namespace concert
