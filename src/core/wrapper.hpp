// Wrapper functions and proxy contexts (paper Sec. 3.3).
//
// When an Invoke message arrives, the wrapper executes the target method's
// *stack* version directly out of the message — no heap context is allocated
// unless the method actually blocks. The impedance matching per schema:
//
//   * Non-blocking: plain call; if a value was produced (not a purely
//     reactive invocation) it is passed to the waiting future through the
//     message's continuation.
//   * May-block: optimistically called; on fallback the message's
//     continuation is installed into the callee's freshly created context.
//   * Continuation-passing: a *proxy context* is built whose fixed
//     continuation slot holds the message's continuation, and the method is
//     called with caller_info = {context exists, forwarded}. If the method
//     needs its continuation it extracts it from the proxy; either way the
//     proxy dies with the wrapper.
//
// Thus a remote invocation — even one whose continuation is forwarded through
// several more nodes — can execute entirely on handler stacks.
#pragma once

#include "core/caller_info.hpp"
#include "core/context.hpp"
#include "machine/message.hpp"
#include "machine/node.hpp"

namespace concert {

/// Dispatches a delivered Invoke message (called from Node::deliver).
void handle_invoke_message(Node& nd, Message& msg);

/// Invokes `method` on `target` delivering the result through an arbitrary
/// continuation `k` — the wrapper core, also usable outside a message
/// handler (e.g. a parallel version forwarding its own continuation to the
/// next link of a chain). Handles every schema, remote targets (sends a
/// message), locked objects and ParallelOnly mode.
/// `count_invocation` is false when re-dispatching a delivered message (the
/// sender already counted the invocation as remote).
/// `owned`, when non-null, is the message-owned payload the `args` span
/// points into: the invocation may consume it without copying (swap a spill
/// buffer into a heap context, move the payload into a re-routed message).
/// A spill buffer it still holds afterwards is recycled by the caller
/// (Node::deliver_element).
void invoke_with_continuation(Node& nd, MethodId method, GlobalRef target, const Value* args,
                              std::size_t nargs, const Continuation& k,
                              bool count_invocation = true, Payload* owned = nullptr);

/// Builds a proxy context standing in for an arbitrary continuation `k`, so
/// that a CP-schema method can be invoked with a (return_val, caller_info)
/// pair even though the continuation came off the wire or out of a data
/// structure. The caller owns the proxy and must free it after the call.
Context& make_proxy_context(Node& nd, const Continuation& k);

/// CallerInfo describing a proxy: context exists, continuation forwarded.
CallerInfo proxy_caller_info(const Context& proxy);

/// Follows local forwarding records of migrated objects (charging name
/// translation per hop). The result is either a live local object or a
/// (possibly stale, to be chased further at its home) remote name.
GlobalRef resolve_forwarding(Node& nd, GlobalRef target);

}  // namespace concert
