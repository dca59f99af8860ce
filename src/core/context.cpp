#include "core/context.hpp"

#include <algorithm>
#include <bit>
#include <new>

namespace concert {

ContextArena::~ContextArena() {
  for (Context* ctx : pool_) {
    // Freelisted contexts carry poisoned cells and buffers (use-after-recycle
    // hardening); re-arm them before the header and the buffer are released.
    if (ctx->status == ContextStatus::Free) ctx->unpoison_storage();
    const std::size_t bytes = ctx->block_bytes();
    ctx->~Context();
    if (owns_allocation(bytes)) ::operator delete(ctx);
  }
  // Chunks hold poisoned tails and left-behind blocks; re-arm them before
  // they go back to the allocator.
  for (auto& chunk : chunks_) arena_unpoison(chunk.get(), kChunkBytes);
}

Context* ContextArena::new_block(std::size_t cells) {
  const std::size_t bytes = sizeof(Context) + cells * sizeof(FutureSlot);
  void* block;
  if (owns_allocation(bytes)) {
    block = ::operator new(bytes);
    slab_bytes_ += bytes;
  } else {
    if (bytes > bump_left_) {
      // The newest chunk's tail is too short: start a chunk. Allocated
      // uninitialized, so only the pages blocks are carved from get touched.
      chunks_.emplace_back(new std::byte[kChunkBytes]);
      bump_ = chunks_.back().get();
      bump_left_ = kChunkBytes;
      slab_bytes_ += kChunkBytes;
      // A stray pointer into the uncarved tail traps like a freed block.
      arena_poison(bump_, kChunkBytes);
    }
    block = bump_;
    bump_ += bytes;
    bump_left_ -= bytes;
    arena_unpoison(block, bytes);
  }
  Context* ctx = ::new (block) Context;
  ctx->cells_ = static_cast<std::uint16_t>(cells);
  return ctx;
}

void ContextArena::drop_block(Context* ctx, std::size_t bytes) {
  if (owns_allocation(bytes)) {
    ::operator delete(ctx);
    slab_bytes_ -= bytes;
  } else {
    arena_poison(ctx, bytes);
  }
}

Context& ContextArena::alloc(MethodId method, std::size_t slots, std::size_t inline_args,
                             bool* recycled) {
  const std::size_t cells = slots + std::min(inline_args, Context::kInlineArgs);
  CONCERT_CHECK(cells <= 0xffff, "frame of " << slots << " slots exceeds a context block");
  Context* ctx;
  const bool from_freelist = !freelist_.empty();
  if (from_freelist) {
    const ContextId id = freelist_.back();
    freelist_.pop_back();
    ctx = pool_[id];
    ctx->unpoison_storage();
    if (ctx->cells_ < cells) {
      // A larger frame reuses the id: move it, generation and out-of-line
      // buffer included, into a block that fits.
      Context* grown = new_block(cells);
      grown->home = ctx->home;
      grown->id = ctx->id;
      grown->gen = ctx->gen;
      grown->spill_ = std::move(ctx->spill_);
      const std::size_t old_bytes = ctx->block_bytes();
      ctx->~Context();
      drop_block(ctx, old_bytes);
      ctx = grown;
      pool_[id] = ctx;
    }
  } else {
    ctx = new_block(cells);
    ctx->home = home_;
    ctx->id = static_cast<ContextId>(pool_.size());
    pool_.push_back(ctx);
  }
  if (recycled != nullptr) *recycled = from_freelist;
  CONCERT_CHECK(ctx->status == ContextStatus::Free, "allocating non-free context");
  ++ctx->gen;
  ctx->method = method;
  ctx->pc = 0;
  ctx->join = 0;
  ctx->self = kNoObject;
  ctx->ret = kNoContinuation;
  ctx->trace_flow = 0;
  ctx->born_ns = 0;
  ctx->args = {};
  ctx->status = ContextStatus::Ready;  // caller decides: enqueue, Waiting, or Proxy
  ctx->reverted = false;
  ctx->holds_lock = false;
  ctx->nslots_ = static_cast<std::uint16_t>(slots);
  FutureSlot* s = ctx->slots();
  for (std::size_t i = 0; i < slots; ++i) ::new (&s[i]) FutureSlot{};
  ++live_;
  return *ctx;
}

void ContextArena::free(Context& ctx) {
  CONCERT_CHECK(ctx.home == home_, "freeing context " << ctx.ref() << " on wrong node " << home_);
  CONCERT_CHECK(ctx.status != ContextStatus::Free, "double free of context " << ctx.ref());
  ctx.status = ContextStatus::Free;
  ctx.args = {};
  if (ctx.spill_ != nullptr) ctx.spill_->clear();
  ctx.poison_storage();
  freelist_.push_back(ctx.id);
  CONCERT_CHECK(live_ > 0, "arena live-count underflow");
  --live_;
}

Context& ContextArena::resolve(const ContextRef& ref) {
  Context* ctx = try_resolve(ref);
  CONCERT_CHECK(ctx != nullptr, "stale or foreign context ref " << ref << " on node " << home_);
  return *ctx;
}

Context* ContextArena::try_resolve(const ContextRef& ref) {
  if (ref.node != home_ || ref.id >= pool_.size()) return nullptr;
  Context* ctx = pool_[ref.id];
  if (ctx->gen != ref.gen || ctx->status == ContextStatus::Free) return nullptr;
  return ctx;
}

const Context* ContextArena::try_resolve(const ContextRef& ref) const {
  if (ref.node != home_ || ref.id >= pool_.size()) return nullptr;
  const Context* ctx = pool_[ref.id];
  if (ctx->gen != ref.gen || ctx->status == ContextStatus::Free) return nullptr;
  return ctx;
}

void ContextArena::reset_at_quiescence() {
  // The freelist in descending id order, so freelist_.back() — the next id
  // handed out — is the smallest free id and post-reset allocation order
  // matches a fresh arena: mark each free id in a bitmap, then read the
  // bitmap from the top, in O(capacity / 64 + free ids).
  free_bits_.assign((pool_.size() + 63) / 64, 0);
  for (const ContextId id : freelist_) free_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
  std::size_t k = 0;
  for (std::size_t w = free_bits_.size(); w-- > 0;) {
    for (std::uint64_t bits = free_bits_[w]; bits != 0;) {
      const int b = static_cast<int>(std::bit_width(bits)) - 1;
      freelist_[k++] = static_cast<ContextId>(w * 64 + static_cast<std::size_t>(b));
      bits &= ~(std::uint64_t{1} << b);
    }
  }
}

}  // namespace concert
