// Heap-allocated activation frames ("contexts") and their arena.
//
// A context is the paper's heap activation record: it stores the method id,
// the resume point (pc) into the method's parallel version, saved arguments
// and locals, and — crucially — the future slots themselves. Futures living
// *inside* the context (rather than being separately heap-allocated, as in
// StackThreads) is one of the paper's design points: touching a future is one
// indirection, and a reply carries (context, slot).
//
// The return continuation lives at a fixed location in every context
// (`Context::ret`), which is what makes proxy contexts and the
// continuation-forwarding fallback work (Sec. 3.2.3 / 3.3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/continuation.hpp"
#include "core/ids.hpp"
#include "core/global_ref.hpp"
#include "core/value.hpp"
#include "support/arena.hpp"
#include "support/panic.hpp"

namespace concert {

/// One future slot: a value plus a full/empty bit. Saved locals reuse the
/// same slots with the bit pre-set.
struct FutureSlot {
  Value value;
  bool full = false;
};

/// Scheduling state of a context.
enum class ContextStatus : std::uint8_t {
  Free,     ///< In the arena freelist.
  Ready,    ///< In the node's ready queue.
  Running,  ///< Currently executing its parallel version step.
  Waiting,  ///< Suspended until `join` future slots fill.
  Proxy,    ///< Not schedulable: stands in for a stored/forwarded continuation.
};

class Context {
 public:
  // --- identity (immutable once allocated) ---
  NodeId home = kInvalidNode;
  ContextId id = kInvalidContext;
  std::uint32_t gen = 0;

  // --- activation state ---
  MethodId method = kInvalidMethod;
  std::uint32_t pc = 0;          ///< Resume point in the parallel version.
  GlobalRef self;                ///< Target object of the invocation.
  std::vector<Value> args;       ///< Saved invocation arguments.
  Continuation ret;              ///< Fixed-location return continuation.
  std::uint32_t join = 0;        ///< Unfilled futures before this context may resume.
  ContextStatus status = ContextStatus::Free;
  bool reverted = false;         ///< True once fallen back: stay in the parallel version.
  bool holds_lock = false;       ///< This activation holds self's implicit lock.

  // --- observability (concert-scope; written only when tracing/metrics on) ---
  std::uint64_t trace_flow = 0;  ///< Causal id of the pending Suspend, re-recorded at Resume.
  std::uint64_t born_ns = 0;     ///< Wall-clock allocation stamp for the lifetime histogram.

  ContextRef ref() const { return ContextRef{home, id, gen}; }

  // --- future/local slots ---
  std::size_t slot_count() const { return slots_.size(); }
  void resize_slots(std::size_t n) { slots_.assign(n, FutureSlot{}); }

  /// Declares slot `s` an empty future awaiting a reply; bumps `join`.
  void expect(SlotId s) {
    CONCERT_CHECK(s < slots_.size(), "slot " << s << " out of range " << slots_.size());
    slots_[s].full = false;
    ++join;
  }

  /// Stores a value into a future slot. Returns true if this fill released
  /// the context (join reached zero). Does NOT enqueue — the caller (reply
  /// routing in the node) does that, because enqueueing is a scheduler action.
  bool fill(SlotId s, const Value& v) {
    CONCERT_CHECK(s < slots_.size(), "slot " << s << " out of range " << slots_.size());
    CONCERT_CHECK(!slots_[s].full, "double fill of slot " << s << " in context " << ref());
    slots_[s].value = v;
    slots_[s].full = true;
    CONCERT_CHECK(join > 0, "fill with join==0 in context " << ref());
    return --join == 0;
  }

  /// Adoption guard: holds the context un-runnable while its owner is still
  /// saving state into it during unwinding. A continuation materialized on a
  /// not-yet-adopted context could be replied through *synchronously* (e.g. a
  /// barrier releasing on the last arrival); the guard keeps `join` positive
  /// until the owner finishes, so the premature fill cannot enqueue a
  /// half-built activation. Released via Node::release_guard.
  void add_guard() { ++join; }

  /// Stores a saved local (no join accounting).
  void save(SlotId s, const Value& v) {
    CONCERT_CHECK(s < slots_.size(), "slot " << s << " out of range " << slots_.size());
    slots_[s].value = v;
    slots_[s].full = true;
  }

  const Value& get(SlotId s) const {
    CONCERT_CHECK(s < slots_.size(), "slot " << s << " out of range " << slots_.size());
    CONCERT_CHECK(slots_[s].full, "read of empty slot " << s << " in context " << ref());
    return slots_[s].value;
  }

  bool slot_full(SlotId s) const {
    CONCERT_CHECK(s < slots_.size(), "slot " << s << " out of range " << slots_.size());
    return slots_[s].full;
  }

  /// ASan hardening (no-op otherwise): a freed-but-retained context keeps its
  /// grown slot/arg buffers for the next activation, so a stale raw pointer
  /// into a recycled activation would silently read the *next* activation's
  /// futures. Poisoning the buffers while the context sits in the freelist
  /// turns that into a trap at the faulting load. The Context header itself
  /// (status, gen) stays readable — the generation check depends on it.
  void poison_storage() {
    arena_poison(slots_.data(), slots_.capacity() * sizeof(FutureSlot));
    arena_poison(args.data(), args.capacity() * sizeof(Value));
  }
  void unpoison_storage() {
    arena_unpoison(slots_.data(), slots_.capacity() * sizeof(FutureSlot));
    arena_unpoison(args.data(), args.capacity() * sizeof(Value));
  }

 private:
  std::vector<FutureSlot> slots_;
};

/// Per-node pool of contexts with id recycling and generation tagging.
///
/// ContextRefs travel in messages, so contexts must be nameable by stable ids
/// rather than raw pointers; the generation counter turns stale-ref bugs into
/// immediate ProtocolErrors instead of silent corruption.
///
/// Storage is a per-node slab arena (support/arena.hpp): contexts are carved
/// out of slabs in allocation order instead of one `new` each, so fresh-id
/// allocation touches the allocator once per slab, recycled-id allocation
/// never, and contexts allocated together share cache lines. A recycled
/// context keeps its grown slot/arg capacity (the steady-state activation
/// path performs no heap traffic at all) but its buffers are ASan-poisoned
/// while free — see Context::poison_storage.
class ContextArena {
 public:
  explicit ContextArena(NodeId home) : home_(home) {}
  ~ContextArena();

  ContextArena(const ContextArena&) = delete;
  ContextArena& operator=(const ContextArena&) = delete;

  /// Allocates a context with `slots` future/local slots. When `recycled` is
  /// non-null it reports whether the id came from the freelist (allocation
  /// accounting; the caller owns the NodeStats).
  Context& alloc(MethodId method, std::size_t slots, bool* recycled = nullptr);

  /// Returns a context to the freelist. The context must not be enqueued.
  void free(Context& ctx);

  /// Resolves a ref, checking node, id and generation.
  Context& resolve(const ContextRef& ref);

  /// Resolve, or nullptr if the ref is stale/invalid (used by tests).
  Context* try_resolve(const ContextRef& ref);
  const Context* try_resolve(const ContextRef& ref) const;

  /// Looks up a live context by id regardless of generation (scheduler use:
  /// queued contexts cannot be freed, so their id is a stable name).
  Context* try_resolve_any_gen(ContextId id) {
    if (id >= pool_.size()) return nullptr;
    Context* ctx = pool_[id];
    return ctx->status == ContextStatus::Free ? nullptr : ctx;
  }
  const Context* try_resolve_any_gen(ContextId id) const {
    if (id >= pool_.size()) return nullptr;
    const Context* ctx = pool_[id];
    return ctx->status == ContextStatus::Free ? nullptr : ctx;
  }

  /// Number of live (non-free) contexts; the test suite asserts this returns
  /// to zero after every program, i.e. no leaked activations.
  std::size_t live_count() const { return live_; }

  std::size_t capacity() const { return pool_.size(); }

  /// Bytes reserved in context slabs (headers only; slot/arg buffers are
  /// owned by the contexts themselves).
  std::size_t slab_bytes() const { return slab_.slab_bytes(); }

  /// Quiescence housekeeping: canonicalizes the freelist so the lowest ids
  /// are reused first — the next run allocates in the same order a fresh
  /// arena would, keeping reuse deterministic across runs on one machine and
  /// concentrating traffic on the oldest (warmest) slabs. Live contexts
  /// (e.g. a driver's root proxy) are untouched.
  void reset_at_quiescence();

 private:
  NodeId home_;
  SlabArena<Context> slab_{kContextSlabSlots};
  std::vector<Context*> pool_;  ///< id -> stable slab address.
  std::vector<ContextId> freelist_;
  std::vector<std::uint64_t> free_bits_;  ///< reset_at_quiescence's scratch bitmap.
  std::size_t live_ = 0;

  static constexpr std::size_t kContextSlabSlots = 64;
};

}  // namespace concert
