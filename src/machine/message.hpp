// Messages: remote method invocations and replies.
//
// An Invoke message carries the method, the target object, word-sized
// arguments and a continuation for the return value. On arrival the wrapper
// machinery (core/wrapper.cpp) executes the target's stack version directly
// out of the message — the hybrid model's key win for remote invocations —
// falling back to a heap context only if it blocks.
//
// A message is at most 128 bytes and move-only. Up to Payload::kInline
// argument values travel inside it, so every reply and the common invocation
// need no buffer of their own; a longer payload spills into a
// std::vector<Value> (from the sending node's pool, see Node::make_payload).
// What a plain message never uses — a bundle's elements and the sanitizer's
// vector clock — lives in one box allocated only when needed, a bundle's
// elements in the same block as the box.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/continuation.hpp"
#include "core/global_ref.hpp"
#include "core/ids.hpp"
#include "core/value.hpp"
#include "support/panic.hpp"

namespace concert {

enum class MsgKind : std::uint8_t {
  Invoke,  ///< Run `method` on `target`; reply through `reply_to` if valid.
  Reply,   ///< Fill the future named by `reply_to` with args[0].
  Bundle,  ///< Coalesced requests/replies to one destination (see bundle()).
};

/// A message's argument values: up to kInline of them inline, more in a
/// spilled std::vector<Value>. Move-only; a moved-from payload is empty and
/// inline.
class Payload {
 public:
  /// Values carried inline: every reply (MD-Force's multi-return is 3), SOR's
  /// invocations (0 arguments) and EM3D's get/recv (1 and 3).
  static constexpr std::size_t kInline = 3;

  Payload() noexcept : inline_{} {}
  /// Copies the `n` values: inline up to kInline, else into a new spill.
  Payload(const Value* vs, std::size_t n) : Payload() {
    if (n <= kInline) {
      std::copy(vs, vs + n, inline_);
    } else {
      new (&heap_) std::vector<Value>(vs, vs + n);
      spill_ = true;
    }
    n_ = static_cast<std::uint32_t>(n);
  }
  Payload(std::initializer_list<Value> vs) : Payload(vs.begin(), vs.size()) {}
  /// Copies up to kInline values inline; adopts a longer vector as the spill.
  Payload(std::vector<Value>&& vs) : Payload() {  // NOLINT(google-explicit-constructor)
    n_ = static_cast<std::uint32_t>(vs.size());
    if (vs.size() <= kInline) {
      std::copy(vs.begin(), vs.end(), inline_);
    } else {
      new (&heap_) std::vector<Value>(std::move(vs));
      spill_ = true;
    }
  }
  Payload(Payload&& o) noexcept : Payload() { steal(o); }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      if (spill_) unspill();
      steal(o);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() {
    if (spill_) heap_.~vector();
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// True when the values live in a spilled buffer (see take_spill).
  bool spilled() const { return spill_; }
  const Value* data() const { return spill_ ? heap_.data() : inline_; }
  const Value& operator[](std::size_t i) const { return data()[i]; }
  const Value& at(std::size_t i) const {
    CONCERT_CHECK(i < n_, "payload index " << i << " of " << n_);
    return data()[i];
  }

  /// Moves the spilled buffer out, leaving this payload empty and inline (an
  /// empty vector when nothing spilled).
  std::vector<Value> take_spill() {
    std::vector<Value> out;
    if (spill_) {
      out = std::move(heap_);
      unspill();
    }
    n_ = 0;
    return out;
  }
  /// Spilled payloads only: swaps the buffer with `v`; the payload then holds
  /// what `v` held.
  void swap_spill(std::vector<Value>& v) {
    CONCERT_CHECK(spill_, "swap_spill on an inline payload");
    heap_.swap(v);
    n_ = static_cast<std::uint32_t>(heap_.size());
  }

 private:
  /// Frees the spilled buffer and makes the inline slots live again.
  void unspill() noexcept {
    heap_.~vector();
    for (Value& v : inline_) new (&v) Value();
    spill_ = false;
  }
  /// Takes `o`'s values; this payload is inline on entry.
  void steal(Payload& o) noexcept {
    if (o.spill_) {
      new (&heap_) std::vector<Value>(std::move(o.heap_));
      spill_ = true;
      o.unspill();
    } else {
      std::memcpy(static_cast<void*>(inline_), o.inline_, sizeof inline_);
    }
    n_ = o.n_;
    o.n_ = 0;
  }

  std::uint32_t n_ = 0;
  bool spill_ = false;
  union {
    Value inline_[kInline];
    std::vector<Value> heap_;
  };
};

struct Message {
  /// The out-of-line part: what a plain message never uses.
  struct Box;
  struct BoxDeleter {
    void operator()(Box* b) const noexcept;
  };

  MsgKind kind = MsgKind::Invoke;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  MethodId method = kInvalidMethod;  ///< Invoke only.
  GlobalRef target;                  ///< Invoke only.
  Continuation reply_to;             ///< Invoke: result continuation. Reply: future to fill.
  Payload args;                      ///< Invoke arguments / Reply value(s) from args[0].

  // --- simulator bookkeeping (not "on the wire") ---
  std::uint64_t deliver_at = 0;  ///< Receiver-clock time the message becomes visible.
  std::uint64_t seq = 0;         ///< Global send order; FIFO tie-break.
  /// Trace causal id (concert-scope): drawn at send when tracing is enabled,
  /// re-recorded by the receiver so MsgSend/MsgRecv export as one Perfetto
  /// flow. 0 when tracing is off. Outside the wire-size accounting.
  std::uint64_t cause = 0;

  Message() = default;
  Message(Message&&) noexcept = default;
  Message& operator=(Message&&) noexcept = default;

  bool is_bundle() const { return kind == MsgKind::Bundle; }
  /// True if this message (or any bundled element) is an Invoke — bundles
  /// with a request pay request-grade overhead, pure-reply bundles the
  /// cheaper reply overhead.
  bool any_invoke() const;

  /// Wire header: kind + src + dst + method + target + continuation.
  static constexpr std::uint32_t kHeaderBytes = 1 + 4 + 4 + 4 + 8 + Continuation::wire_size();
  /// Wire size in bytes, used to count packets for the cost model. A bundle
  /// shares one envelope: each element contributes its payload without a
  /// second (src, dst) pair.
  std::uint32_t size_bytes() const {
    if (kind == MsgKind::Bundle) return bundle_size_bytes();
    return kHeaderBytes + static_cast<std::uint32_t>(args.size()) * Value::wire_size();
  }

  /// Bundle only: the coalesced elements, in send order (empty otherwise).
  /// Elements share this message's (src, dst) and are never themselves
  /// bundles. On delivery each element runs through the normal wrapper /
  /// reply-routing path; only the per-message overhead is paid once for the
  /// whole bundle.
  std::span<Message> bundle();
  std::span<const Message> bundle() const;
  /// Vector-clock stamp (concert-race): the sender's per-node logical clock,
  /// ticked and copied at send when MachineConfig::verify is on; joined into
  /// the receiver's clock at delivery so the sanitizer can tell ordered from
  /// concurrent same-object deliveries. Empty when verification is off.
  /// Outside the wire-size accounting, like `cause` (a real transport would
  /// piggyback O(nodes) words per message only under the sanitizer).
  const std::vector<std::uint32_t>& vclock() const;
  /// The box, allocated on first use (bundle_of, a verify stamp at send).
  Box& box();

  static Message invoke(NodeId src, NodeId dst, MethodId m, GlobalRef target, Payload args,
                        Continuation reply_to);
  static Message reply(NodeId src, NodeId dst, Continuation k, const Value& v);
  /// Multi-value variant: `payload` (already holding the reply value(s))
  /// becomes the message's args.
  static Message reply(NodeId src, NodeId dst, Continuation k, Payload payload);
  /// Wraps >= 2 staged messages (all with dst `dst`) into one bundle, moving
  /// each out of `elems` into the box: one allocation holds the box and
  /// every element.
  static Message bundle_of(NodeId src, NodeId dst, std::span<Message> elems);

 private:
  std::uint32_t bundle_size_bytes() const;

  std::unique_ptr<Box, BoxDeleter> box_;
};

/// One heap block: the box, then its bundle elements.
struct alignas(Message) Message::Box {
  std::vector<std::uint32_t> vclock;
  std::uint32_t size = 0;  ///< Bundle elements that follow the box.

  Message* elems() { return reinterpret_cast<Message*>(this + 1); }
  const Message* elems() const { return reinterpret_cast<const Message*>(this + 1); }
  /// Allocates a box with room for `elems`, moving each into it.
  static Box* make(std::span<Message> elems);
};

inline std::span<Message> Message::bundle() {
  return box_ ? std::span<Message>(box_->elems(), box_->size) : std::span<Message>();
}
inline std::span<const Message> Message::bundle() const {
  return box_ ? std::span<const Message>(box_->elems(), box_->size)
              : std::span<const Message>();
}
inline const std::vector<std::uint32_t>& Message::vclock() const {
  static const std::vector<std::uint32_t> kNone;
  return box_ ? box_->vclock : kNone;
}
inline Message::Box& Message::box() {
  if (!box_) box_.reset(Box::make({}));
  return *box_;
}

static_assert(sizeof(Message) <= 128, "a message, inline payload included, is at most 128 bytes");

}  // namespace concert
