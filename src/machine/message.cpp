#include "machine/message.hpp"

namespace concert {

bool Message::any_invoke() const {
  if (kind == MsgKind::Invoke) return true;
  for (const Message& e : bundle()) {
    if (e.kind == MsgKind::Invoke) return true;
  }
  return false;
}

std::uint32_t Message::bundle_size_bytes() const {
  // Envelope: kind + src + dst + element count; each element then carries
  // its own payload minus the (src, dst) pair the envelope already names.
  std::uint32_t n = 1 + 4 + 4 + 2;
  for (const Message& e : bundle()) n += e.size_bytes() - 8;
  return n;
}

Message Message::invoke(NodeId src, NodeId dst, MethodId m, GlobalRef target, Payload args,
                        Continuation reply_to) {
  Message msg;
  msg.kind = MsgKind::Invoke;
  msg.src = src;
  msg.dst = dst;
  msg.method = m;
  msg.target = target;
  msg.args = std::move(args);
  msg.reply_to = reply_to;
  return msg;
}

Message Message::reply(NodeId src, NodeId dst, Continuation k, const Value& v) {
  return reply(src, dst, k, Payload(&v, 1));
}

Message Message::reply(NodeId src, NodeId dst, Continuation k, Payload payload) {
  Message msg;
  msg.kind = MsgKind::Reply;
  msg.src = src;
  msg.dst = dst;
  msg.reply_to = k;
  msg.args = std::move(payload);
  return msg;
}

Message Message::bundle_of(NodeId src, NodeId dst, std::span<Message> elems) {
  CONCERT_CHECK(elems.size() >= 2, "bundle of " << elems.size() << " elements (send it plain)");
  Message msg;
  msg.kind = MsgKind::Bundle;
  msg.src = src;
  msg.dst = dst;
  for (const Message& e : elems) {
    CONCERT_CHECK(e.dst == dst, "bundle element for node " << e.dst << " in bundle to " << dst);
    CONCERT_CHECK(e.kind != MsgKind::Bundle, "nested bundle");
  }
  msg.box_.reset(Box::make(elems));
  return msg;
}

Message::Box* Message::Box::make(std::span<Message> elems) {
  void* block = ::operator new(sizeof(Box) + elems.size() * sizeof(Message));
  Box* box = ::new (block) Box;
  for (Message& e : elems) {
    ::new (static_cast<void*>(box->elems() + box->size)) Message(std::move(e));
    ++box->size;
  }
  return box;
}

void Message::BoxDeleter::operator()(Box* b) const noexcept {
  std::destroy_n(b->elems(), b->size);
  b->~Box();
  ::operator delete(b);
}

}  // namespace concert
