// Heap-allocated activation frames ("contexts") and their arena.
//
// A context is the paper's heap activation record: it stores the method id,
// the resume point (pc) into the method's parallel version, saved arguments
// and locals, and — crucially — the future slots themselves. Futures living
// *inside* the context (rather than being separately heap-allocated, as in
// StackThreads) is one of the paper's design points: touching a future is one
// indirection, and a reply carries (context, slot).
//
// Here that holds literally. Each activation is one block of its node's
// arena, laid out contiguously:
//
//   [ Context header | future slots, 16 bytes each | up to kInlineArgs args ]
//
// so the id table names the header and a slot sits at a fixed offset behind
// it: a fill, a get or a dispatch loads the header's address and nothing
// else. The block is sized from the frame (slots plus inline argument cells)
// when its id is first used. A recycled id keeps its block, and a larger
// frame that reuses the id moves it into a larger block; the id and its
// generation stay. An argument list longer than the frame's inline cells
// lives in an out-of-line buffer the context keeps across recycling; a
// spilled message payload is swapped in as that buffer, never copied.
//
// The return continuation lives at a fixed location in every context
// (`Context::ret`), which is what makes proxy contexts and the
// continuation-forwarding fallback work (Sec. 3.2.3 / 3.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/continuation.hpp"
#include "core/ids.hpp"
#include "core/global_ref.hpp"
#include "core/value.hpp"
#include "support/arena.hpp"
#include "support/panic.hpp"

namespace concert {

/// One future slot, 16 bytes: a Value's tag and word, with the full/empty
/// bit packed beside the tag instead of padding a whole Value out to 24.
/// Saved locals reuse the same slots with the bit pre-set.
struct FutureSlot {
  Value::Tag tag = Value::Tag::Nil;
  bool full = false;
  Value::U word{};

  Value load() const {
    Value v;
    v.tag_ = tag;
    v.u_ = word;
    return v;
  }
  void store(const Value& v) {
    tag = v.tag_;
    word = v.u_;
    full = true;
  }
};
static_assert(sizeof(FutureSlot) == 16, "a future slot is one 16-byte cell");

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
  /// Arguments a frame can hold in its block; equals Payload::kInline, so
  /// an argument list that travels inline in a message is saved inline too.
  static constexpr std::size_t kInlineArgs = 3;
  /// Most future slots a frame may declare: a block counts its slot and
  /// inline argument cells in 16 bits.
  static constexpr std::size_t kMaxSlots = 0xffff - kInlineArgs;

  // --- identity (immutable once allocated) ---
  NodeId home = kInvalidNode;
  ContextId id = kInvalidContext;
  std::uint32_t gen = 0;

  // --- activation state ---
  MethodId method = kInvalidMethod;
  std::uint32_t pc = 0;          ///< Resume point in the parallel version.
  std::uint32_t join = 0;        ///< Unfilled futures before this context may resume.
  GlobalRef self;                ///< Target object of the invocation.
  Continuation ret;              ///< Fixed-location return continuation.

  // --- observability (concert-scope; written only when tracing/metrics on) ---
  std::uint64_t trace_flow = 0;  ///< Causal id of the pending Suspend, re-recorded at Resume.
  std::uint64_t born_ns = 0;     ///< Wall-clock allocation stamp for the lifetime histogram.

  /// Saved invocation arguments: the block's inline cells, or the
  /// out-of-line buffer for a longer list. Written by save_args and
  /// adopt_args only.
  std::span<const Value> args;
  ContextStatus status = ContextStatus::Free;
  bool reverted = false;         ///< True once fallen back: stay in the parallel version.
  bool holds_lock = false;       ///< This activation holds self's implicit lock.

  ContextRef ref() const { return ContextRef{home, id, gen}; }

  // --- saved arguments ---
  /// Saves `n` arguments: into the block when they fit its inline cells,
  /// else into the out-of-line buffer (kept, with its capacity, across
  /// recycling).
  void save_args(const Value* vs, std::size_t n) {
    if (n <= inline_arg_cells()) {
      Value* dst = inline_args();
      for (std::size_t i = 0; i < n; ++i) dst[i] = vs[i];
      args = {dst, n};
    } else {
      std::vector<Value>& buf = arg_buffer();
      buf.assign(vs, vs + n);
      args = buf;
    }
  }
  /// The out-of-line argument buffer, made on first use. Swap a spilled
  /// payload's buffer into it, then call adopt_args.
  std::vector<Value>& arg_buffer() {
    if (spill_ == nullptr) spill_ = std::make_unique<std::vector<Value>>();
    return *spill_;
  }
  /// Points `args` at the whole out-of-line buffer.
  void adopt_args() { args = arg_buffer(); }

  // --- future/local slots ---
  std::size_t slot_count() const { return nslots_; }

  /// Declares slot `s` an empty future awaiting a reply; bumps `join`.
  void expect(SlotId s) {
    slot(s).full = false;
    ++join;
  }

  /// Stores a value into a future slot. Returns true if this fill released
  /// the context (join reached zero). Does NOT enqueue — the caller (reply
  /// routing in the node) does that, because enqueueing is a scheduler action.
  bool fill(SlotId s, const Value& v) {
    FutureSlot& f = slot(s);
    CONCERT_CHECK(!f.full, "double fill of slot " << s << " in context " << ref());
    f.store(v);
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
  void save(SlotId s, const Value& v) { slot(s).store(v); }

  Value get(SlotId s) const {
    const FutureSlot& f = slot(s);
    CONCERT_CHECK(f.full, "read of empty slot " << s << " in context " << ref());
    return f.load();
  }

  bool slot_full(SlotId s) const { return slot(s).full; }

  /// Bytes of this context's block: header, slot cells and inline
  /// argument cells (the out-of-line buffer not included).
  std::size_t block_bytes() const { return sizeof(Context) + cells_ * sizeof(FutureSlot); }

 private:
  friend class ContextArena;

  FutureSlot* slots() { return reinterpret_cast<FutureSlot*>(this + 1); }
  const FutureSlot* slots() const { return reinterpret_cast<const FutureSlot*>(this + 1); }
  FutureSlot& slot(SlotId s) {
    CONCERT_CHECK(s < nslots_, "slot " << s << " out of range " << nslots_);
    return slots()[s];
  }
  const FutureSlot& slot(SlotId s) const {
    CONCERT_CHECK(s < nslots_, "slot " << s << " out of range " << nslots_);
    return slots()[s];
  }
  /// The argument cells behind this frame's slots.
  Value* inline_args() { return reinterpret_cast<Value*>(slots() + nslots_); }
  std::size_t inline_arg_cells() const {
    const std::size_t spare = cells_ - nslots_;
    return spare < kInlineArgs ? spare : kInlineArgs;
  }

  /// ASan hardening (no-op otherwise): while the context sits in the
  /// freelist its slot and argument cells, and the out-of-line buffer's
  /// storage, are poisoned, so a stale raw pointer into a recycled
  /// activation traps at the faulting load instead of reading the *next*
  /// activation's futures. The header (status, gen) stays readable — the
  /// generation check depends on it.
  void poison_storage() {
    arena_poison(slots(), cells_ * sizeof(FutureSlot));
    if (spill_ != nullptr) arena_poison(spill_->data(), spill_->capacity() * sizeof(Value));
  }
  void unpoison_storage() {
    arena_unpoison(slots(), cells_ * sizeof(FutureSlot));
    if (spill_ != nullptr) arena_unpoison(spill_->data(), spill_->capacity() * sizeof(Value));
  }

  std::uint16_t nslots_ = 0;  ///< This activation's slots.
  std::uint16_t cells_ = 0;   ///< 16-byte cells the block holds behind the header.
  std::unique_ptr<std::vector<Value>> spill_;  ///< Out-of-line arguments, made on first use.
};

// The header plus a 7-slot frame (SOR's compute_cell) fits 208 bytes.
static_assert(sizeof(Context) <= 96, "context header outgrew its 96 bytes");
static_assert(sizeof(Context) % sizeof(FutureSlot) == 0,
              "slots start on a cell boundary behind the header");

/// Per-node pool of contexts with id recycling and generation tagging.
///
/// ContextRefs travel in messages, so contexts must be nameable by stable ids
/// rather than raw pointers; the generation counter turns stale-ref bugs into
/// immediate ProtocolErrors instead of silent corruption.
///
/// Blocks are carved, in allocation order, out of chunks of kChunkBytes, so
/// a fresh id touches the allocator once per chunk, a recycled id never,
/// and contexts allocated together share cache lines. A block larger than a
/// quarter chunk gets an allocation of its own. When a larger frame reuses
/// an id, the id moves to a new block; the old one is poisoned and left
/// behind in its chunk (its own allocation, if it had one, is freed).
class ContextArena {
 public:
  explicit ContextArena(NodeId home) : home_(home) {}
  ~ContextArena();

  ContextArena(const ContextArena&) = delete;
  ContextArena& operator=(const ContextArena&) = delete;

  /// Allocates a context with `slots` future/local slots and room for
  /// `inline_args` (at most Context::kInlineArgs) saved arguments in its
  /// block. When `recycled` is non-null it reports whether the id came from
  /// the freelist (allocation accounting; the caller owns the NodeStats).
  Context& alloc(MethodId method, std::size_t slots, std::size_t inline_args = 0,
                 bool* recycled = nullptr);

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

  /// Bytes reserved for blocks: whole chunks plus blocks with an allocation
  /// of their own (out-of-line argument buffers not included).
  std::size_t slab_bytes() const { return slab_bytes_; }

  /// Quiescence housekeeping: canonicalizes the freelist so the lowest ids
  /// are reused first — the next run allocates in the same order a fresh
  /// arena would, keeping reuse deterministic across runs on one machine and
  /// concentrating traffic on the oldest (warmest) blocks. Live contexts
  /// (e.g. a driver's root proxy) are untouched.
  void reset_at_quiescence();

  /// Bytes per chunk that blocks are carved from.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

 private:
  /// Constructs a header for `cells` slot/argument cells in a new block.
  Context* new_block(std::size_t cells);
  /// Releases a block `new_block` made (its header already destroyed):
  /// frees one with an allocation of its own, poisons one in a chunk.
  void drop_block(Context* ctx, std::size_t bytes);
  static bool owns_allocation(std::size_t bytes) { return bytes > kChunkBytes / 4; }

  NodeId home_;
  std::vector<Context*> pool_;  ///< id -> header of its block.
  std::vector<ContextId> freelist_;
  std::vector<std::uint64_t> free_bits_;  ///< reset_at_quiescence's scratch bitmap.
  std::size_t live_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* bump_ = nullptr;  ///< Next free byte of the newest chunk.
  std::size_t bump_left_ = 0;  ///< Bytes left behind bump_.
  std::size_t slab_bytes_ = 0;
};

}  // namespace concert
