// The method registry: the compiler's view of the program.
//
// Every method of the fine-grained program is registered with *two* code
// versions, exactly as the Concert compiler emits them:
//
//   * `seq`  — the sequential (stack) version. All three schemas share one
//     C++ signature for registry/wrapper uniformity; the *protocol* each
//     schema follows (what non-null returns mean, who creates contexts) is
//     the paper's, and the cost model charges the per-schema price.
//   * `par`  — the parallel version: a resumable state machine over a heap
//     context. `ctx.pc` selects the resume point; resume points are aligned
//     with the sequential version's fallback sites so a stack activation can
//     unwind into the heap and continue where it left off.
//
// Methods also declare the call-graph facts the compiler's global flow
// analysis would compute from source: which methods they call, whether they
// can suspend locally, and whether they manipulate their continuation.
// `finalize()` runs the analysis (core/analysis.cpp) and fixes each method's
// schema; thereafter call sites and wrappers must use the matching convention.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/caller_info.hpp"
#include "core/continuation.hpp"
#include "core/global_ref.hpp"
#include "core/ids.hpp"
#include "core/schema.hpp"
#include "core/value.hpp"
#include "support/panic.hpp"

namespace concert {

class Node;
class Context;

/// Sequential (stack) version. Returns nullptr when the invocation completed
/// on the stack with its value stored through `ret`. A non-null return means
/// fallback, and its meaning depends on the callee's schema:
///   * MayBlock: the *callee's* freshly created context; the caller must
///     install the return linkage into it (paper Fig. 6).
///   * ContinuationPassing: the *caller's* context (created lazily from `ci`
///     if needed); the callee has already arranged its own reply continuation
///     (paper Fig. 7). The caller must not expect a value through `ret`.
///   * NonBlocking: never returns non-null (enforced by CONCERT_CHECK).
using SeqFn = Context* (*)(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                           const Value* args, std::size_t nargs);

/// Parallel (heap) version: one scheduler step. Runs from ctx.pc; must either
/// complete (reply through ctx.ret and free the context) or suspend
/// (expect future slots, set ctx.pc, call nd.suspend(ctx)).
using ParStep = void (*)(Node& nd, Context& ctx);

/// Struct-of-arrays view over a run of same-method invocation messages
/// (MachineConfig::merge_waves). Column i describes the i-th message of the
/// run, in delivery order: its target object, its argument span (pointer +
/// count into the message's payload, no copies), and its reply
/// continuation. The view borrows the drained messages' storage — it is valid
/// only for the duration of the wave call.
struct InvokeWave {
  MethodId method = kInvalidMethod;
  std::size_t count = 0;
  const GlobalRef* targets = nullptr;
  const Value* const* args = nullptr;
  const std::uint32_t* nargs = nullptr;
  const Continuation* replies = nullptr;
};

/// Wave body: executes every member of the run and replies per member
/// (Node::reply_to_multi). Only non-blocking, non-locking methods get one —
/// the body must complete every member on the stack, never suspend, and never
/// return a fallback context. Apps may register a hand-written body
/// (MethodDecl::wave) with a vectorizable inner loop; every other eligible
/// method falls back to generic_nb_wave, a plain loop over the seq version.
using WaveFn = void (*)(Node& nd, const InvokeWave& w);

/// Default wave body: loops the method's sequential version over the run
/// members and replies per member. Defined in core/wrapper.cpp.
void generic_nb_wave(Node& nd, const InvokeWave& w);

/// What the app declares per method (the compiler's input facts).
struct MethodDecl {
  std::string name;
  SeqFn seq = nullptr;
  ParStep par = nullptr;
  /// Optional hand-written merged-wave body (see WaveFn). Ignored unless the
  /// method turns out non-blocking and non-locking under the table's mode;
  /// eligible methods without one get generic_nb_wave.
  WaveFn wave = nullptr;
  std::uint16_t frame_slots = 0;  ///< Context size (futures + saved locals).
  std::uint16_t arg_count = 0;    ///< Declared arity (wrappers check it).
  bool variadic = false;          ///< Takes >= arg_count args (forwarding chains).
  /// Number of values this method returns (paper Sec. 5 future work:
  /// "multiple return values would reduce the cost of the more general stack
  /// schemas"). The sequential version writes ret[0..multi_return); replies
  /// carry all values in one message, filling consecutive future slots.
  /// Limited to NB/MB methods.
  std::uint8_t multi_return = 1;
  /// The programming model's *implicit locking*: a method whose class
  /// declaration demands mutual exclusion holds its target object's lock for
  /// the whole invocation. Stack execution brackets the call; a fallen-back
  /// activation keeps the lock until its parallel version completes, and the
  /// scheduler defers dispatch of an invocation whose target is held.
  bool locks_self = false;
  /// The class the method belongs to, for the lock-order deadlock detector
  /// (verify/lint.hpp): two locks_self methods can only contend for the same
  /// implicit lock if their targets may be the same object, which statically
  /// means the same class. 0 = unclassed, which conservatively aliases every
  /// class (the seed apps predate class ids). Purely an analysis fact — the
  /// runtime locks objects, not classes.
  std::uint32_t class_id = 0;
  bool blocks_locally = false;    ///< Body may suspend (touches possibly-remote data or futures).
  bool uses_continuation = false; ///< Body may store its continuation or forward it off-node.
  std::vector<MethodId> callees;  ///< Stack call sites (for the blocking analysis).
  std::vector<MethodId> forwards_to;  ///< Callees that receive this method's continuation.
  /// concert-race (verify/race.hpp): declared data effects over named fields
  /// of the *target object*. Purely analysis facts, like class_id — the
  /// runtime never consults them. A method with empty read AND write sets
  /// opts out of the racing-pair analysis entirely (the seed apps predate
  /// effect declarations), so registering effects is incremental per class.
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  /// Racing-pair suppression: methods whose deliveries provably commute with
  /// this one's despite conflicting effect sets (e.g. both only accumulate
  /// `+=` increments, or each wave provably targets distinct objects). Kept
  /// symmetric by MethodRegistry::add_commutes. Suppresses both the static
  /// RacingPair/NonCommutativeDelivery diagnostics and the dynamic
  /// vector-clock sanitizer's RacyDelivery violation for the pair.
  std::vector<MethodId> commutes_with;
  /// Happens-before facts: pairs (c1, c2) of this method's callees whose
  /// spawn waves are always separated by a full barrier inside this method's
  /// body (wave of c1, arrive, wave of c2). The race analysis then treats
  /// every method reachable only through c1 as ordered before every method
  /// reachable only through c2. Declared via add_barrier_separation; the
  /// dynamic sanitizer cross-checks the claim (an observed unordered delivery
  /// of a "separated" pair is an UnorderedNotFlagged violation).
  std::vector<std::pair<MethodId, MethodId>> barrier_separated;
  /// concert-progress (verify/progress.hpp): methods that discharge a reply
  /// obligation this method banks. A uses_continuation method that stores its
  /// continuation into object state (instead of replying or forwarding on the
  /// request path) must name the methods that later drain that stored
  /// continuation (e.g. barrier.arrive names itself; tree_barrier.arrive
  /// names arrive/notify/release). A banker with no declared replier is a
  /// statically lost reply. Declared via add_replier; pure analysis facts.
  std::vector<MethodId> repliers;
  /// Termination fact for self/forward cycles: this method's forwarding
  /// recursion carries a strictly decreasing argument with a replying base
  /// case (chain's depth countdown, em3d's hop budget), so a forwarding cycle
  /// whose *every* member declares this is not a livelock. A cycle with even
  /// one undeclared member still gets the forward-livelock diagnostic.
  bool bounded_forwarding = false;
};

/// Registry entry after analysis.
struct MethodInfo : MethodDecl {
  Schema schema = Schema::NonBlocking;
  bool may_block = false;
  bool needs_continuation = false;
  /// Site-sensitive refinement (concert-analyze): an invocation arriving
  /// through a declared plain-call edge provably completes on the caller's
  /// stack. Differs from !may_block exactly when the method's only blocking
  /// cause is inherited forward-target CP-ness.
  bool site_nonblocking = true;
  /// Plain call edges of this method that can bind the NB convention at the
  /// site: callees that are site_nonblocking and not forwarding targets of
  /// this method. Sorted, deduplicated; filled by analyze_schemas.
  std::vector<MethodId> nb_site_callees;
};

/// Number of ExecMode values (dispatch tables are built per mode).
inline constexpr std::size_t kExecModeCount = 4;

/// One row of a mode's flat dispatch table: every registry fact the invoke
/// fast path asks per invocation — effective schema, code pointers, frame
/// size, arity, locking — resolved once at seal() time into a MethodId-
/// indexed array. An invoke then answers all of them with a single indexed
/// load, the software analogue of the paper's compiled-in schema selection
/// (the compiler emits the call-site convention; we look it up in O(1)).
struct DispatchEntry {
  SeqFn seq = nullptr;
  ParStep par = nullptr;
  /// Merged-wave body (MachineConfig::merge_waves): non-null exactly when the
  /// method is wave-eligible under this table's mode — effective schema
  /// NonBlocking, no implicit lock, and a mode that runs stack versions at
  /// all. nullptr sends every delivery through the per-message path.
  WaveFn wave = nullptr;
  Schema schema = Schema::NonBlocking;  ///< Effective schema under the table's mode.
  bool locks_self = false;
  bool variadic = false;
  std::uint8_t multi_return = 1;
  std::uint16_t arg_count = 0;
  std::uint16_t frame_slots = 0;
  /// Call-site specialization span: this method's site-specializable callees
  /// occupy [spec_begin, spec_begin + spec_count) of the mode's spec-callee
  /// array (MethodRegistry::spec_table). Zero when specialization is off or
  /// no edge of this caller qualifies, so the invoke fast path pays exactly
  /// one branch for the feature's existence.
  std::uint32_t spec_begin = 0;
  std::uint16_t spec_count = 0;
};

class MethodRegistry {
 public:
  /// Declares a method; callees may be wired afterwards (for recursion).
  MethodId declare(MethodDecl decl);

  /// Adds a call edge m -> callee; `forwards` marks continuation forwarding.
  void add_callee(MethodId m, MethodId callee, bool forwards = false);

  /// Declares that deliveries of `a` and `b` to the same object commute
  /// (MethodDecl::commutes_with). Symmetric; a == b annotates a method as
  /// commuting with itself (replicated waves over distinct objects, or pure
  /// accumulation).
  void add_commutes(MethodId a, MethodId b);

  /// Declares that inside `m`'s body the spawn waves of callees `c1` and `c2`
  /// are separated by a full barrier (MethodDecl::barrier_separated).
  void add_barrier_separation(MethodId m, MethodId c1, MethodId c2);

  /// Declares that `replier` discharges a reply obligation banked by
  /// `banker` (MethodDecl::repliers). The banker must have declared
  /// uses_continuation — only a CP method can store its continuation.
  void add_replier(MethodId banker, MethodId replier);

  /// Runs the schema-selection analysis and builds the per-mode flat dispatch
  /// tables. Must be called exactly once, after which the registry is
  /// immutable.
  void seal();
  /// Historical name for seal(); every app calls this after registration.
  void finalize() { seal(); }
  bool finalized() const { return finalized_; }

  /// The flat dispatch table for `mode` (MethodId-indexed, size() entries).
  /// Stable for the registry's lifetime once sealed.
  const DispatchEntry* dispatch_table(ExecMode mode) const;

  /// Enables call-site-sensitive schema specialization (concert-analyze):
  /// seal() then materializes, per mode, the flat array of site-specializable
  /// callees that DispatchEntry::{spec_begin, spec_count} index into, and
  /// invoke binds the NB convention on those edges. Must be called before
  /// seal(); off by default so every pre-existing run is bit-identical.
  void set_site_specialization(bool on) {
    CONCERT_CHECK(!finalized_, "set_site_specialization after seal()");
    specialize_ = on;
  }
  bool site_specialization() const { return specialize_; }

  /// The flat spec-callee array for `mode` (see set_site_specialization), or
  /// nullptr when specialization is disabled or the mode has no specializable
  /// edge (ParallelOnly never consults schemas and always gets nullptr).
  const MethodId* spec_table(ExecMode mode) const;

  const MethodInfo& info(MethodId m) const;
  std::size_t size() const { return methods_.size(); }

  /// The full method table (the linter's input; see src/verify/lint.hpp).
  const std::vector<MethodInfo>& methods() const { return methods_; }

  /// The analyzed schema.
  Schema schema(MethodId m) const { return info(m).schema; }

  /// The schema a call must actually use under `mode`: Hybrid1 degrades every
  /// method to the single most-general interface (the paper's "1 interface"
  /// configuration). Implicitly-locking methods are exempt — their lock
  /// release is tied to the MB/NB completion protocol (see analysis.cpp).
  Schema effective_schema(MethodId m, ExecMode mode) const {
    const MethodInfo& mi = info(m);
    if (mode == ExecMode::Hybrid1 && !mi.locks_self && mi.multi_return == 1) {
      return Schema::ContinuationPassing;
    }
    return mi.schema;
  }

  /// Looks a method up by name (tests/benches); kInvalidMethod if absent.
  MethodId find(const std::string& name) const;

 private:
  std::vector<MethodInfo> methods_;
  std::vector<DispatchEntry> dispatch_[kExecModeCount];  ///< Built by seal().
  std::vector<MethodId> spec_callees_[kExecModeCount];   ///< Spec spans (seal()).
  bool finalized_ = false;
  bool specialize_ = false;
};

/// `methods[m].name`, or "#m" when `m` is out of range or unnamed: the one
/// fallback every diagnostic and artifact writer prints for a method id.
std::string method_name_or_id(const std::vector<MethodInfo>& methods, MethodId m);

}  // namespace concert
