#include <gtest/gtest.h>

#include "core/context.hpp"

namespace concert {
namespace {

TEST(ContextArena, AllocInitializes) {
  ContextArena arena(3);
  Context& ctx = arena.alloc(7, 4);
  EXPECT_EQ(ctx.home, 3u);
  EXPECT_EQ(ctx.method, 7u);
  EXPECT_EQ(ctx.pc, 0u);
  EXPECT_EQ(ctx.join, 0u);
  EXPECT_EQ(ctx.slot_count(), 4u);
  EXPECT_EQ(ctx.status, ContextStatus::Ready);
  EXPECT_EQ(arena.live_count(), 1u);
}

TEST(ContextArena, FreeAndRecycleBumpsGeneration) {
  ContextArena arena(0);
  Context& a = arena.alloc(1, 1);
  const ContextRef ref_a = a.ref();
  arena.free(a);
  EXPECT_EQ(arena.live_count(), 0u);
  Context& b = arena.alloc(2, 1);
  EXPECT_EQ(b.id, ref_a.id);       // recycled slot
  EXPECT_NE(b.gen, ref_a.gen);     // new generation
  EXPECT_EQ(arena.try_resolve(ref_a), nullptr);  // stale ref detected
  EXPECT_EQ(arena.try_resolve(b.ref()), &b);
}

TEST(ContextArena, ResolveChecksNodeAndGen) {
  ContextArena arena(5);
  Context& ctx = arena.alloc(0, 1);
  ContextRef wrong_node = ctx.ref();
  wrong_node.node = 6;
  EXPECT_THROW(arena.resolve(wrong_node), ProtocolError);
  ContextRef wrong_gen = ctx.ref();
  wrong_gen.gen += 1;
  EXPECT_THROW(arena.resolve(wrong_gen), ProtocolError);
  EXPECT_EQ(&arena.resolve(ctx.ref()), &ctx);
}

TEST(ContextArena, DoubleFreeDetected) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 0);
  arena.free(ctx);
  EXPECT_THROW(arena.free(ctx), ProtocolError);
}

TEST(Context, ExpectFillJoinAccounting) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 3);
  ctx.expect(0);
  ctx.expect(2);
  EXPECT_EQ(ctx.join, 2u);
  EXPECT_FALSE(ctx.fill(0, Value{1}));
  EXPECT_TRUE(ctx.fill(2, Value{2}));
  EXPECT_EQ(ctx.join, 0u);
  EXPECT_EQ(ctx.get(0).as_i64(), 1);
  EXPECT_EQ(ctx.get(2).as_i64(), 2);
}

TEST(Context, DoubleFillDetected) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 1);
  ctx.expect(0);
  ctx.expect(0);  // re-expecting the same slot is legal (slot reuse)...
  ctx.fill(0, Value{1});
  EXPECT_THROW(ctx.fill(0, Value{2}), ProtocolError);  // ...but double fill is not
}

TEST(Context, FillWithoutExpectDetected) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 1);
  ctx.save(0, Value{5});
  EXPECT_THROW(ctx.fill(0, Value{6}), ProtocolError);  // full slot
}

TEST(Context, ReadOfEmptySlotDetected) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 2);
  ctx.expect(1);
  EXPECT_THROW(ctx.get(1), ProtocolError);
  EXPECT_FALSE(ctx.slot_full(1));
}

TEST(Context, SaveDoesNotTouchJoin) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 2);
  ctx.save(0, Value{9});
  EXPECT_EQ(ctx.join, 0u);
  EXPECT_EQ(ctx.get(0).as_i64(), 9);
  ctx.save(0, Value{10});  // overwrite allowed for saved locals
  EXPECT_EQ(ctx.get(0).as_i64(), 10);
}

TEST(Context, GuardKeepsJoinPositive) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 1);
  ctx.expect(0);
  ctx.add_guard();
  EXPECT_EQ(ctx.join, 2u);
  EXPECT_FALSE(ctx.fill(0, Value{1}));  // value arrives, guard still held
  EXPECT_EQ(ctx.join, 1u);
}

TEST(Context, SlotRangeChecked) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(0, 2);
  EXPECT_THROW(ctx.expect(2), ProtocolError);
  EXPECT_THROW(ctx.save(9, Value{}), ProtocolError);
  EXPECT_THROW(ctx.get(5), ProtocolError);
}

TEST(ContextArena, ManyLiveContexts) {
  ContextArena arena(0);
  std::vector<Context*> live;
  for (int i = 0; i < 100; ++i) live.push_back(&arena.alloc(static_cast<MethodId>(i), 2));
  EXPECT_EQ(arena.live_count(), 100u);
  for (Context* c : live) arena.free(*c);
  EXPECT_EQ(arena.live_count(), 0u);
  // The pool is fully recycled.
  Context& again = arena.alloc(0, 1);
  EXPECT_LT(again.id, 100u);
}

// ---------------------------------------------------------------------------
// One block per activation: header, slots and inline arguments together.
// ---------------------------------------------------------------------------

/// True when [p, p + bytes) lies inside `ctx`'s block.
bool inside_block(const Context& ctx, const void* p, std::size_t bytes) {
  const auto* lo = reinterpret_cast<const unsigned char*>(&ctx);
  const auto* q = static_cast<const unsigned char*>(p);
  return q >= lo && q + bytes <= lo + ctx.block_bytes();
}

TEST(ContextBlock, RecycledIdReadsEmptySlotsAndHoldsItsNewArguments) {
  ContextArena arena(0);
  Context& a = arena.alloc(1, 3, 2);
  const Value old_args[] = {Value{1}, Value{2}};
  a.save_args(old_args, 2);
  for (SlotId s = 0; s < 3; ++s) a.save(s, Value{100 + s});
  arena.free(a);
  Context& b = arena.alloc(2, 3, 2);
  ASSERT_EQ(b.id, a.id);
  for (SlotId s = 0; s < 3; ++s) EXPECT_FALSE(b.slot_full(s)) << "slot " << s;
  EXPECT_TRUE(b.args.empty());
  const Value new_args[] = {Value{7}, Value{8}};
  b.save_args(new_args, 2);
  ASSERT_EQ(b.args.size(), 2u);
  EXPECT_EQ(b.args[0].as_i64(), 7);
  EXPECT_EQ(b.args[1].as_i64(), 8);
}

TEST(ContextBlock, LargerFrameGrowsTheBlockAndKeepsTheId) {
  ContextArena arena(0);
  Context& small = arena.alloc(1, 1);
  const ContextRef old_ref = small.ref();
  const std::size_t small_bytes = small.block_bytes();
  arena.free(small);
  Context& big = arena.alloc(2, 40, 3);
  EXPECT_EQ(big.id, old_ref.id);
  EXPECT_GT(big.block_bytes(), small_bytes);
  EXPECT_EQ(big.slot_count(), 40u);
  EXPECT_EQ(arena.try_resolve(big.ref()), &big);
  EXPECT_EQ(arena.try_resolve(old_ref), nullptr);
  EXPECT_THROW(arena.resolve(old_ref), ProtocolError);
  big.expect(39);
  EXPECT_TRUE(big.fill(39, Value{5}));
  EXPECT_EQ(arena.resolve(big.ref()).get(39).as_i64(), 5);
  // Back to a small frame: the id keeps its grown block.
  arena.free(big);
  Context& again = arena.alloc(3, 1);
  EXPECT_EQ(&again, &big);
  EXPECT_EQ(again.slot_count(), 1u);
}

TEST(ContextBlock, SlotsAndInlineArgumentsLieInsideTheBlock) {
  ContextArena arena(0);
  Context& ctx = arena.alloc(1, 5, 3);
  const Value args[] = {Value{1}, Value{2}, Value{3}};
  ctx.save_args(args, 3);
  EXPECT_TRUE(inside_block(ctx, ctx.args.data(), 3 * sizeof(Value)));
  ctx.save(4, Value{9});
  EXPECT_EQ(ctx.get(4).as_i64(), 9);
  EXPECT_EQ(ctx.block_bytes(), sizeof(Context) + (5 + 3) * sizeof(FutureSlot));
  // A list longer than the inline cells goes to the out-of-line buffer.
  const Value many[] = {Value{1}, Value{2}, Value{3}, Value{4}};
  ctx.save_args(many, 4);
  EXPECT_FALSE(inside_block(ctx, ctx.args.data(), sizeof(Value)));
  EXPECT_EQ(ctx.args.size(), 4u);
  EXPECT_EQ(ctx.args[3].as_i64(), 4);
}

TEST(ContextBlock, ChecksStillFireAfterRecycling) {
  ContextArena arena(0);
  Context& a = arena.alloc(1, 2);
  a.expect(0);
  a.fill(0, Value{1});
  arena.free(a);
  Context& b = arena.alloc(1, 2);
  ASSERT_EQ(b.id, a.id);
  b.expect(1);
  EXPECT_THROW(b.get(0), ProtocolError);  // slot 0 is empty again
  EXPECT_THROW(b.get(1), ProtocolError);
  b.fill(1, Value{2});
  b.expect(0);
  b.fill(0, Value{3});
  EXPECT_THROW(b.fill(0, Value{4}), ProtocolError);
  EXPECT_THROW(b.expect(2), ProtocolError);
  EXPECT_THROW(b.save(2, Value{}), ProtocolError);
}

TEST(ContextBlock, ComputeCellFrameFitsTwoHundredEightBytes) {
  // SOR's compute_cell: 7 slots, no arguments.
  ContextArena arena(0);
  Context& ctx = arena.alloc(1, 7, 0);
  EXPECT_LE(ctx.block_bytes(), 208u);
  EXPECT_EQ(sizeof(FutureSlot), 16u);
}

}  // namespace
}  // namespace concert
