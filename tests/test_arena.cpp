// The memory subsystem: slab arenas, payload buffer pools, the slab-backed
// context arena, quiescence-time housekeeping, and ASan poisoning of recycled
// slots. Unit tests cover the primitives; the end-to-end tests check that the
// runtime actually recycles (arena_recycle_frac on a steady workload), that a
// delivered payload reaches its heap context without a copy when it spilled
// and without an allocation when it was inline, that migrated work lands in
// the destination's arena, and that a use-after-recycle traps under
// AddressSanitizer instead of reading the next activation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "apps/seqbench/seqbench.hpp"
#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "objects/migration.hpp"
#include "support/arena.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

// ---------------------------------------------------------------------------
// SlabArena
// ---------------------------------------------------------------------------

struct Tracked {
  static int live;
  int v;
  explicit Tracked(int x) : v(x) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(SlabArena, CreateDestroyRecyclesSlot) {
  SlabArena<Tracked> arena(4);
  Tracked* a = arena.create(1);
  EXPECT_EQ(a->v, 1);
  EXPECT_EQ(arena.live(), 1u);
  arena.destroy(a);
  EXPECT_EQ(arena.live(), 0u);
  Tracked* b = arena.create(2);
  EXPECT_EQ(b, a);  // LIFO freelist hands the hottest slot back
  EXPECT_EQ(arena.counters().fresh, 1u);
  EXPECT_EQ(arena.counters().recycled, 1u);
  arena.destroy(b);
}

TEST(SlabArena, AddressesStableAcrossSlabGrowth) {
  SlabArena<Tracked> arena(2);  // tiny slabs force growth
  std::vector<Tracked*> ptrs;
  for (int i = 0; i < 9; ++i) ptrs.push_back(arena.create(i));
  EXPECT_GE(arena.slab_bytes(), 9 * sizeof(Tracked));
  for (int i = 0; i < 9; ++i) EXPECT_EQ(ptrs[i]->v, i);  // no moves
  EXPECT_EQ(arena.counters().fresh, 9u);
  for (Tracked* p : ptrs) arena.destroy(p);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(SlabArena, DestructorRunsLiveDestructorsOnly) {
  {
    SlabArena<Tracked> arena(4);
    Tracked* a = arena.create(1);
    arena.create(2);  // dies with the arena
    arena.destroy(a);
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);  // no double-destroy of the freed slot
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(BufferPool, AcquireReusesReleasedCapacity) {
  BufferPool<Value> pool(8);
  std::vector<Value> buf;
  EXPECT_FALSE(pool.try_acquire(buf));  // empty pool
  buf.reserve(64);
  const std::size_t cap = buf.capacity();
  EXPECT_TRUE(pool.release(std::move(buf)));
  std::vector<Value> again;
  EXPECT_TRUE(pool.try_acquire(again));
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), cap);  // capacity survived the round trip
}

TEST(BufferPool, CapBoundsPoolAndTrimDrops) {
  BufferPool<Value> pool(2);
  for (int i = 0; i < 2; ++i) {
    std::vector<Value> b(4, Value{1});
    EXPECT_TRUE(pool.release(std::move(b)));
  }
  std::vector<Value> overflow(4, Value{1});
  EXPECT_FALSE(pool.release(std::move(overflow)));  // full: dropped
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.trim(1), 1u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.trim(1), 0u);
}

// ---------------------------------------------------------------------------
// Slab-backed ContextArena
// ---------------------------------------------------------------------------

TEST(ContextArenaSlab, RecycledAllocReported) {
  ContextArena arena(0);
  bool recycled = true;
  Context& a = arena.alloc(1, 2, &recycled);
  EXPECT_FALSE(recycled);  // first use of the id bumps a slab
  arena.free(a);
  Context& b = arena.alloc(2, 2, &recycled);
  EXPECT_TRUE(recycled);
  EXPECT_EQ(b.id, 0u);
  EXPECT_GT(arena.slab_bytes(), 0u);
  arena.free(b);
}

TEST(ContextArenaSlab, RecycledContextKeepsNoStaleState) {
  ContextArena arena(0);
  Context& a = arena.alloc(1, 3);
  a.save(0, Value{42});
  a.args.push_back(Value{7});
  const std::uint32_t gen0 = a.gen;
  arena.free(a);
  Context& b = arena.alloc(5, 3);
  EXPECT_GT(b.gen, gen0);
  EXPECT_TRUE(b.args.empty());
  EXPECT_FALSE(b.slot_full(0));  // slots re-zeroed, not inherited
  arena.free(b);
}

TEST(ContextArenaSlab, QuiescenceResetCanonicalizesReuseOrder) {
  ContextArena arena(0);
  Context* c0 = &arena.alloc(0, 1);
  Context* c1 = &arena.alloc(0, 1);
  Context* c2 = &arena.alloc(0, 1);
  // Free in a scrambled order: LIFO reuse would hand out 1, then 2, then 0.
  arena.free(*c1);
  arena.free(*c2);
  arena.free(*c0);
  arena.reset_at_quiescence();
  // Post-reset allocation order matches a fresh arena: lowest ids first.
  EXPECT_EQ(arena.alloc(0, 1).id, 0u);
  EXPECT_EQ(arena.alloc(0, 1).id, 1u);
  EXPECT_EQ(arena.alloc(0, 1).id, 2u);
}

TEST(ContextArenaSlab, QuiescenceResetSkipsLiveRootProxy) {
  // run_main's root proxy stays live across quiescence. The reset hands out
  // every free id lowest first, across several 64-id words, never the live
  // one, and only then fresh ids.
  constexpr ContextId kIds = 130;
  constexpr ContextId kLive = 64;
  ContextArena arena(0);
  std::vector<Context*> ctxs;
  for (ContextId i = 0; i < kIds; ++i) ctxs.push_back(&arena.alloc(0, 1));
  ctxs[kLive]->status = ContextStatus::Proxy;
  for (ContextId k = 0; k < kIds; ++k) {
    const ContextId i = (k * 37) % kIds;  // a scrambled order (37 is prime to 130)
    if (i != kLive) arena.free(*ctxs[i]);
  }
  arena.reset_at_quiescence();
  for (ContextId want = 0; want < kIds; ++want) {
    if (want == kLive) continue;
    EXPECT_EQ(arena.alloc(0, 1).id, want);
  }
  EXPECT_EQ(arena.alloc(0, 1).id, kIds);
  EXPECT_EQ(arena.live_count(), static_cast<std::size_t>(kIds) + 1);
}

// ---------------------------------------------------------------------------
// End-to-end: the runtime recycles, housekeeps at quiescence, and migrated
// work allocates in the destination node's arena.
// ---------------------------------------------------------------------------

TEST(ArenaEndToEnd, SteadyWorkloadRecyclesContextsAndPayloads) {
  SimMachine m(2, test_config(ExecMode::Hybrid3));
  auto ids = seqbench::register_seqbench(m.registry(), /*distributed=*/true);
  m.registry().finalize();
  const GlobalRef arr = seqbench::make_qsort_array(m, 1, 48, 21);
  for (int round = 0; round < 3; ++round) {
    const Value v = m.run_main(0, ids.qsort, arr, {Value(0), Value(48)});
    ASSERT_GT(v.as_i64(), 0);
    ASSERT_EQ(m.live_contexts(), 0u);
  }
  const NodeStats s = m.total_stats();
  EXPECT_GT(s.ctx_fresh, 0u);
  EXPECT_GT(s.ctx_recycled, 0u);  // later rounds reuse round 1's ids
  EXPECT_GT(s.arena_slab_bytes, 0u);
  EXPECT_EQ(s.ctx_fresh + s.ctx_recycled, s.contexts_allocated);
  // One housekeeping pass per node per quiescent run.
  EXPECT_EQ(s.arena_resets, 3u * 2u);
  // Cross-node invocations built their payloads without a heap allocation.
  EXPECT_GT(s.payload_acquires, 0u);
  EXPECT_GT(s.payload_pool_hits, 0u);
  EXPECT_LE(s.payload_pool_hits, s.payload_acquires);
}

// sum(x, ...): adds its arguments. The parallel version records where its
// heap context's argument buffer lives, so a test can tell a swapped-in
// payload from a copied one.
MethodId g_sum = kInvalidMethod;
const Value* g_sum_args = nullptr;

Context* sum_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                 std::size_t nargs) {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < nargs; ++i) sum += args[i].as_i64();
  *ret = Value(sum);
  return nullptr;
}
void sum_par(Node& nd, Context& ctx) {
  g_sum_args = ctx.args.data();
  Value v;
  sum_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

void register_sum(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "sum";
  d.seq = sum_seq;
  d.par = sum_par;
  d.arg_count = 1;
  d.variadic = true;
  g_sum = reg.declare(d);
  reg.finalize();
}

TEST(ArenaEndToEnd, ZeroCopyDeliveryMovesPayloads) {
  // ParallelOnly forces every delivered Invoke through a heap context. A
  // payload longer than Payload::kInline arrives in a spill buffer, which is
  // swapped into the context, never copied: the body runs on the very buffer
  // the sender filled.
  SimMachine m(1, test_config(ExecMode::ParallelOnly));
  register_sum(m.registry());
  std::vector<Value> args = {Value(1), Value(2), Value(3), Value(4), Value(5)};
  const Value* sent = args.data();
  const Value v = m.run_main(0, g_sum, kNoObject, std::move(args));
  EXPECT_EQ(v.as_i64(), 15);
  EXPECT_EQ(g_sum_args, sent);
  EXPECT_EQ(m.total_stats().payload_moves, 1u);
  EXPECT_EQ(m.live_contexts(), 0u);
}

TEST(ArenaEndToEnd, InlinePayloadCopiedIntoRecycledArgs) {
  // A payload of up to Payload::kInline values travels inside the message, so
  // the heap context copies it into its own argument buffer. From the second
  // run on, the context is recycled and so is that buffer: no allocation.
  SimMachine m(1, test_config(ExecMode::ParallelOnly));
  register_sum(m.registry());
  const Value* first = nullptr;
  for (int round = 0; round < 3; ++round) {
    const Value v = m.run_main(0, g_sum, kNoObject, {Value(1), Value(2), Value(round)});
    EXPECT_EQ(v.as_i64(), 3 + round);
    if (round == 0) {
      first = g_sum_args;
    } else {
      EXPECT_EQ(g_sum_args, first) << "round " << round << " reallocated ctx.args";
    }
  }
  const NodeStats s = m.total_stats();
  EXPECT_EQ(s.payload_moves, 0u);
  EXPECT_GT(s.ctx_recycled, 0u);
  EXPECT_EQ(m.live_contexts(), 0u);
}

TEST(ArenaEndToEnd, MigrationCarriesWorkAcrossNodeArenas) {
  // ParallelOnly forces every invocation through a heap context, so the
  // destination node's arena traffic is visible in contexts_allocated.
  SimMachine m(3, test_config(ExecMode::ParallelOnly));
  auto ids = seqbench::register_seqbench(m.registry(), /*distributed=*/true);
  m.registry().finalize();
  const GlobalRef arr = seqbench::make_qsort_array(m, 1, 48, 25);
  const Value v1 = m.run_main(0, ids.qsort, arr, {Value(0), Value(48)});
  ASSERT_GT(v1.as_i64(), 0);
  const std::uint64_t node2_before = m.node(2).stats.contexts_allocated;

  // Move the array to node 2: invocations through the stale name now allocate
  // their activation records in node 2's arena.
  const GlobalRef moved = migrate_object<seqbench::IntArray>(m, arr, 2);
  const Value v2 = m.run_main(0, ids.qsort, arr, {Value(0), Value(48)});
  ASSERT_GT(v2.as_i64(), 0);
  EXPECT_GT(m.node(2).stats.contexts_allocated, node2_before);
  EXPECT_TRUE(std::is_sorted(seqbench::array_values(m, moved).begin(),
                             seqbench::array_values(m, moved).end()));
  EXPECT_EQ(m.live_contexts(), 0u);  // every arena drained back to its freelist
}

TEST(ArenaEndToEnd, ThreadedEnginePinKnobRunsToCompletion) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.pin_threads = true;  // best-effort: a restricted sandbox may deny affinity
  ThreadedMachine m(2, cfg);
  auto ids = seqbench::register_seqbench(m.registry(), /*distributed=*/true);
  m.registry().finalize();
  const GlobalRef arr = seqbench::make_qsort_array(m, 1, 48, 27);
  const Value v = m.run_main(0, ids.qsort, arr, {Value(0), Value(48)});
  EXPECT_GT(v.as_i64(), 0);
  EXPECT_EQ(m.live_contexts(), 0u);
}

// ---------------------------------------------------------------------------
// ASan hardening: a freed-but-retained context's slot buffer is poisoned, so
// a stale read traps at the faulting load instead of silently reading the
// next activation's futures. Runs only in sanitized builds.
// ---------------------------------------------------------------------------

TEST(ArenaPoisonDeath, UseAfterRecycleTraps) {
  if (!arena_poisoning_enabled()) {
    GTEST_SKIP() << "requires an AddressSanitizer build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ContextArena arena(0);
        Context& ctx = arena.alloc(1, 2);
        ctx.save(0, Value{7});
        arena.free(ctx);
        // Stale raw access into the recycled activation: the header (status,
        // gen) stays readable for the generation check, but the slot buffer
        // is poisoned until the next alloc re-arms it.
        volatile bool full = ctx.slot_full(0);
        (void)full;
      },
      "use-after-poison");
}

}  // namespace
}  // namespace concert
