#include "core/context.hpp"

#include <bit>

namespace concert {

ContextArena::~ContextArena() {
  // Freelisted contexts carry poisoned slot/arg buffers (use-after-recycle
  // hardening); the buffers must be re-armed before their vectors free them.
  for (Context* ctx : pool_) {
    if (ctx->status == ContextStatus::Free) ctx->unpoison_storage();
  }
  // slab_'s destructor runs the Context destructors.
}

Context& ContextArena::alloc(MethodId method, std::size_t slots, bool* recycled) {
  Context* ctx;
  const bool from_freelist = !freelist_.empty();
  if (from_freelist) {
    ContextId id = freelist_.back();
    freelist_.pop_back();
    ctx = pool_[id];
    ctx->unpoison_storage();
  } else {
    ctx = slab_.create();
    ctx->home = home_;
    ctx->id = static_cast<ContextId>(pool_.size());
    pool_.push_back(ctx);
  }
  if (recycled != nullptr) *recycled = from_freelist;
  CONCERT_CHECK(ctx->status == ContextStatus::Free, "allocating non-free context");
  ++ctx->gen;
  ctx->method = method;
  ctx->pc = 0;
  ctx->self = kNoObject;
  ctx->args.clear();
  ctx->ret = kNoContinuation;
  ctx->join = 0;
  ctx->status = ContextStatus::Ready;  // caller decides: enqueue, Waiting, or Proxy
  ctx->reverted = false;
  ctx->holds_lock = false;
  ctx->trace_flow = 0;
  ctx->born_ns = 0;
  ctx->resize_slots(slots);
  ++live_;
  return *ctx;
}

void ContextArena::free(Context& ctx) {
  CONCERT_CHECK(ctx.home == home_, "freeing context " << ctx.ref() << " on wrong node " << home_);
  CONCERT_CHECK(ctx.status != ContextStatus::Free, "double free of context " << ctx.ref());
  ctx.status = ContextStatus::Free;
  ctx.args.clear();
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
