// Per-layer unit costs for hem_bench's host cost ledger.
//
// Each probe times one public entry point of one runtime layer in isolation:
// a fresh small machine, a warm-up batch, then the median of `batches` timed
// batches of `ops` calls, reported per call. Only the region of interest is
// timed — messages, payloads and contexts a batch consumes are built before
// its clock starts. Shared by hem_bench (which reports the probes per
// workload and multiplies them into the ledger) and the hem_layer_probes test
// (which checks every probe yields a finite positive cost and that the ledger
// telescopes).
//
// The ledger is the paper's Table 2 accounting argument done in host time:
// per-rep event counts from the deterministic engine times these unit costs,
// as shares of the measured sim-engine rep time. Whatever the probes do not
// explain — the scheduler loop, the application's own arithmetic, cache
// effects a microbenchmark does not see — lands in an explicit unattributed
// share, so the shares always sum to 1.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "machine/mpsc_queue.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "support/stats.hpp"

namespace concert::hem {

/// The configuration every hem_bench machine runs: library defaults, with the
/// conformance sanitizer off (it is measured by its own tests, not here).
inline MachineConfig bench_config() {
  MachineConfig cfg;
  cfg.verify = false;
  return cfg;
}

inline double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Runtime counters the benchmark reads (a subset of NodeStats), with the
// arithmetic NodeStats lacks: per-rep deltas and sums.
// ---------------------------------------------------------------------------

#define HEM_COUNTERS(X)                                                                        \
  X(stack_calls) X(stack_completions) X(fallbacks) X(heap_invokes) X(local_invokes)            \
  X(remote_invokes) X(contexts_allocated) X(suspensions) X(proxy_contexts) X(msgs_sent)        \
  X(msgs_received) X(bytes_sent) X(replies_sent) X(inbox_batches) X(inbox_batched_msgs)        \
  X(inbox_parks) X(park_wakeups) X(ctx_fresh) X(ctx_recycled) X(payload_acquires)              \
  X(payload_pool_hits) X(payload_discards)

struct Counts {
#define HEM_FIELD(f) double f = 0;
  HEM_COUNTERS(HEM_FIELD)
#undef HEM_FIELD

  static Counts of(const NodeStats& s) {
    Counts c;
#define HEM_COPY(f) c.f = static_cast<double>(s.f);
    HEM_COUNTERS(HEM_COPY)
#undef HEM_COPY
    return c;
  }
  Counts operator-(const Counts& o) const {
    Counts c;
#define HEM_SUB(f) c.f = f - o.f;
    HEM_COUNTERS(HEM_SUB)
#undef HEM_SUB
    return c;
  }
  Counts& operator+=(const Counts& o) {
#define HEM_ADD(f) f += o.f;
    HEM_COUNTERS(HEM_ADD)
#undef HEM_ADD
    return *this;
  }
  Counts scaled(double k) const {
    Counts c;
#define HEM_SCALE(f) c.f = f * k;
    HEM_COUNTERS(HEM_SCALE)
#undef HEM_SCALE
    return c;
  }
  /// Invocations as the runtime counts them (every call site, local or remote).
  double invocations() const { return local_invokes + remote_invokes; }
};

/// a / b, or 0 when nothing happened (a ratio over zero events).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// Probe methods: an empty NB leaf, a loop that calls it from one stack frame,
// and an MB method whose activations the fallback probe unwinds.
// ---------------------------------------------------------------------------

namespace detail {

inline MethodId g_leaf = kInvalidMethod;
inline MethodId g_loop = kInvalidMethod;
inline MethodId g_fb_mid = kInvalidMethod;
inline MethodId g_fb_drv = kInvalidMethod;
/// Written by the timed method bodies: ns spent in the last timed loop.
inline double g_body_ns = 0.0;

inline Context* leaf_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                         std::size_t) {
  *ret = Value(1);
  return nullptr;
}
inline void leaf_par(Node& nd, Context& ctx) { ParFrame(nd, ctx).complete(Value(1)); }

/// args[0] = K: K Frame::call's of the leaf from one activation, timed inside
/// the body so the figure is per call, not per program.
inline Context* loop_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                         const Value* args, std::size_t nargs) {
  const std::int64_t k = args[0].as_i64();
  Frame f(nd, g_loop, self, ci, args, nargs);
  std::int64_t sum = 0;
  const double t0 = now_ns();
  for (std::int64_t i = 0; i < k; ++i) {
    Value v;
    CONCERT_CHECK(f.call(g_leaf, kNoObject, {}, 0, &v), "probe leaf left the stack");
    sum += v.as_i64();
  }
  g_body_ns = now_ns() - t0;
  *ret = Value(sum);
  return nullptr;
}

inline void fb_mid_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(f.get(0));
}

/// args[0] = K: K activations of the MB method whose leaf call is forced to
/// block (the injector is set to block every call), each unwound through
/// Frame::fallback. Timed inside the body; the scheduler completes the K
/// suspended activations after the body returns.
inline Context* fb_drv_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                           std::size_t) {
  const std::int64_t k = args[0].as_i64();
  const CallerInfo none = CallerInfo::none();  // outlives every Frame below
  const double t0 = now_ns();
  for (std::int64_t i = 0; i < k; ++i) {
    Frame f(nd, g_fb_mid, kNoObject, none, nullptr, 0);
    Value v;
    CONCERT_CHECK(!f.call(g_leaf, kNoObject, {}, 0, &v), "injected block did not fire");
    f.fallback(1, {});
  }
  g_body_ns = now_ns() - t0;
  *ret = Value(k);
  return nullptr;
}

inline void unused_par(Node&, Context&) { CONCERT_UNREACHABLE("probe method went parallel"); }

inline void register_probe_methods(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "probe.leaf";
  d.seq = leaf_seq;
  d.par = leaf_par;
  g_leaf = reg.declare(d);

  d = MethodDecl{};
  d.name = "probe.loop";
  d.seq = loop_seq;
  d.par = unused_par;
  d.frame_slots = 1;
  d.arg_count = 1;
  g_loop = reg.declare(d);
  reg.add_callee(g_loop, g_leaf);

  d = MethodDecl{};
  d.name = "probe.fb_mid";
  d.seq = leaf_seq;  // never called on the stack: fb_drv drives its Frames directly
  d.par = fb_mid_par;
  d.frame_slots = 1;
  d.blocks_locally = true;
  g_fb_mid = reg.declare(d);
  reg.add_callee(g_fb_mid, g_leaf);

  d = MethodDecl{};
  d.name = "probe.fb_drv";
  d.seq = fb_drv_seq;
  d.par = unused_par;
  d.arg_count = 1;
  g_fb_drv = reg.declare(d);
  reg.finalize();
}

/// A sealed machine of `nodes` nodes with the probe methods registered.
template <typename M>
std::unique_ptr<M> probe_machine(std::size_t nodes, MachineConfig cfg = bench_config()) {
  auto m = std::make_unique<M>(nodes, cfg);
  register_probe_methods(m->registry());
  return m;
}

/// Pre-built reply messages from `src` into slots 0..n-1 of `ctx`.
inline std::vector<Message> replies_into(NodeId src, const Context& ctx, std::size_t n) {
  std::vector<Message> msgs;
  msgs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs.push_back(Message::reply(src, ctx.home,
                                  Continuation{ctx.ref(), static_cast<SlotId>(i), false},
                                  Value(static_cast<std::int64_t>(i))));
  }
  return msgs;
}

/// A proxy context on `nd` expecting `n` replies.
inline Context& reply_sink(Node& nd, std::size_t n) {
  Context& ctx = nd.alloc_context_raw(kInvalidMethod, n);
  ctx.status = ContextStatus::Proxy;
  for (std::size_t i = 0; i < n; ++i) ctx.expect(static_cast<SlotId>(i));
  return ctx;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The probes. Each returns ns (or us, for quiesce) per operation.
// ---------------------------------------------------------------------------

struct ProbeScale {
  std::size_t ops = 16384;  ///< Operations per timed batch.
  int batches = 9;          ///< Timed batches; the median is reported.
  std::size_t nodes = 4;    ///< Machine size for the idle-quiescence probe.
};

/// Median over `s.batches` of `batch(ops)` / ops, after one untimed warm-up
/// batch. `batch` returns the ns its timed region took.
template <typename Batch>
double per_op(const ProbeScale& s, std::size_t ops, Batch&& batch) {
  batch(ops);
  std::vector<double> v;
  for (int b = 0; b < s.batches; ++b) v.push_back(batch(ops) / static_cast<double>(ops));
  return median_of(std::move(v));
}

/// core: Frame::call of an NB leaf that completes on the stack.
inline double probe_stack_call_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  return per_op(s, s.ops, [&](std::size_t n) {
    m->run_main(0, detail::g_loop, kNoObject, {Value(static_cast<std::int64_t>(n))});
    return detail::g_body_ns;
  });
}

/// core: an injected block at a call site plus Frame::fallback (lazy context
/// creation, the blocked callee's heap invocation, save and suspend).
inline double probe_fallback_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  m->node(0).injector().set_probability(1.0, 1);
  const double ns = per_op(s, s.ops, [&](std::size_t n) {
    m->run_main(0, detail::g_fb_drv, kNoObject, {Value(static_cast<std::int64_t>(n))});
    return detail::g_body_ns;
  });
  m->node(0).injector().reset();
  return ns;
}

/// core: heap_invoke_local of the leaf plus the run_one that dispatches,
/// completes and frees it.
inline double probe_heap_invoke_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  Node& nd = m->node(0);
  return per_op(s, s.ops, [&](std::size_t n) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      heap_invoke_local(nd, detail::g_leaf, kNoObject, nullptr, 0, kNoContinuation);
      nd.run_one();
    }
    return now_ns() - t0;
  });
}

/// core: alloc_context + free_context of a one-slot frame.
inline double probe_ctx_alloc_free_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  Node& nd = m->node(0);
  return per_op(s, s.ops, [&](std::size_t n) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      Context& ctx = nd.alloc_context(detail::g_fb_mid);
      ctx.status = ContextStatus::Waiting;
      nd.free_context(ctx);
    }
    return now_ns() - t0;
  });
}

/// core: handle_invoke_message of a reactive invocation of the NB leaf — the
/// wrapper running the stack version straight out of the message.
inline double probe_wrapper_dispatch_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  Node& nd = m->node(0);
  std::vector<Message> msgs;
  return per_op(s, s.ops, [&](std::size_t n) {
    msgs.clear();
    for (std::size_t i = 0; i < n; ++i) {
      msgs.push_back(Message::invoke(0, 0, detail::g_leaf, kNoObject, {}, kNoContinuation));
    }
    const double t0 = now_ns();
    for (Message& msg : msgs) handle_invoke_message(nd, msg);
    return now_ns() - t0;
  });
}

/// machine: Node::send of a reply to another node on the threaded engine
/// (work accounting + MPSC inbox push). The probe thread drains the inbox
/// afterwards; the machine is never run.
inline double probe_send_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<ThreadedMachine>(2);
  Node& src = m->node(0);
  Node& dst = m->node(1);
  Context& sink = detail::reply_sink(dst, s.ops);
  std::vector<Message> drained;
  const double ns = per_op(s, s.ops, [&](std::size_t n) {
    std::vector<Message> msgs = detail::replies_into(0, sink, n);
    const double t0 = now_ns();
    for (Message& msg : msgs) src.send(std::move(msg));
    const double t = now_ns() - t0;
    drained.clear();
    while (dst.drain_inbox(drained, n) > 0) drained.clear();
    return t;
  });
  // The sent messages' work credits were never retired; the machine is
  // discarded without running, so nothing waits on them.
  return ns;
}

/// machine: Node::deliver of a one-value reply into a waiting future slot.
inline double probe_deliver_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  Node& nd = m->node(0);
  return per_op(s, s.ops, [&](std::size_t n) {
    Context& sink = detail::reply_sink(nd, n);
    std::vector<Message> msgs = detail::replies_into(0, sink, n);
    const double t0 = now_ns();
    for (Message& msg : msgs) nd.deliver(msg);
    const double t = now_ns() - t0;
    nd.free_context(sink);
    return t;
  });
}

/// machine: one message handed from a producer thread to a consumer thread
/// through the MPSC inbox queue (push, then batched drain), end to end.
inline double probe_mpsc_handoff_ns(const ProbeScale& s) {
  MpscQueue<Message> q;
  std::vector<Message> out;
  out.reserve(256);
  return per_op(s, s.ops, [&](std::size_t n) {
    std::atomic<bool> go{false};
    std::thread producer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < n; ++i) q.push(Message{});
    });
    std::size_t got = 0;
    const double t0 = now_ns();
    go.store(true, std::memory_order_release);
    while (got < n) {
      out.clear();
      got += q.drain(std::back_inserter(out), 256);
    }
    const double t = now_ns() - t0;
    producer.join();
    return t;
  });
}

/// machine: staging a reply in the per-destination outbox plus its share of
/// the flush that ships 8 staged messages as one bundle.
inline double probe_outbox_stage_flush_ns(const ProbeScale& s) {
  MachineConfig cfg = bench_config();
  cfg.flush_policy = FlushPolicy::flush_on_idle();
  auto m = detail::probe_machine<SimMachine>(2, cfg);
  Node& src = m->node(0);
  Context& sink = detail::reply_sink(m->node(1), s.ops);
  constexpr std::size_t kBundle = 8;
  return per_op(s, s.ops, [&](std::size_t n) {
    std::vector<Message> msgs = detail::replies_into(0, sink, n);
    const double t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      src.send(std::move(msgs[i]));
      if ((i + 1) % kBundle == 0) src.flush_all_outboxes();
    }
    src.flush_all_outboxes();
    const double t = now_ns() - t0;
    while (!m->network().empty_for(1)) m->network().pop_for(1);
    return t;
  });
}

/// machine: the deterministic engine's per-message path — Node::send into the
/// simulated network, the receiver's pop, and Node::deliver of the reply.
inline double probe_sim_route_deliver_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(2);
  Node& src = m->node(0);
  Node& dst = m->node(1);
  return per_op(s, s.ops, [&](std::size_t n) {
    Context& sink = detail::reply_sink(dst, n);
    std::vector<Message> msgs = detail::replies_into(0, sink, n);
    const double t0 = now_ns();
    for (Message& msg : msgs) {
      src.send(std::move(msg));
      Message in = m->network().pop_for(1);
      dst.advance_clock_to(in.deliver_at);
      dst.deliver(in);
    }
    const double t = now_ns() - t0;
    dst.free_context(sink);
    return t;
  });
}

/// machine: run_until_quiescent on an idle threaded machine of the
/// workload's size (thread start, quiescence detection, join) — the fixed
/// cost every threaded rep pays. Reported in us.
inline double probe_quiesce_idle_us(const ProbeScale& s) {
  auto m = detail::probe_machine<ThreadedMachine>(s.nodes);
  constexpr std::size_t kRuns = 8;
  return per_op(s, kRuns, [&](std::size_t n) {
           const double t0 = now_ns();
           for (std::size_t i = 0; i < n; ++i) m->run_until_quiescent();
           return now_ns() - t0;
         }) /
         1e3;
}

/// support: acquire_payload + release_payload of a one-value message buffer.
inline double probe_payload_acquire_release_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  Node& nd = m->node(0);
  return per_op(s, s.ops, [&](std::size_t n) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Value> buf = nd.acquire_payload(1);
      buf.push_back(Value(1));
      nd.release_payload(std::move(buf));
    }
    return now_ns() - t0;
  });
}

/// objects: the name-translation + locality + lock check every call site
/// pays (Node::local_and_unlocked on a local, unlocked object).
inline double probe_resolve_local_ns(const ProbeScale& s) {
  auto m = detail::probe_machine<SimMachine>(1);
  Node& nd = m->node(0);
  const GlobalRef ref = nd.objects().create<std::int64_t>(1).first;
  std::size_t local = 0;
  const double ns = per_op(s, s.ops, [&](std::size_t n) {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) local += nd.local_and_unlocked(ref) ? 1 : 0;
    return now_ns() - t0;
  });
  CONCERT_CHECK(local > 0, "probe object was not local");
  return ns;
}

/// Every probe's result, one field each (the ledger reads them by field).
struct ProbeSet {
  double stack_call_ns = 0;
  double fallback_ns = 0;
  double heap_invoke_ns = 0;
  double ctx_alloc_free_ns = 0;
  double wrapper_dispatch_ns = 0;
  double send_ns = 0;
  double deliver_ns = 0;
  double mpsc_handoff_ns = 0;
  double outbox_stage_flush_ns = 0;
  double sim_route_deliver_ns = 0;
  double quiesce_idle_us = 0;
  double payload_acquire_release_ns = 0;
  double resolve_local_ns = 0;
};

struct ProbeDef {
  const char* metric;  ///< Per-layer metric name (layer.what_unit).
  const char* unit;
  double ProbeSet::*field;
  double (*run)(const ProbeScale&);
};

inline constexpr ProbeDef kProbes[] = {
    {"core.stack_call_ns", "ns", &ProbeSet::stack_call_ns, probe_stack_call_ns},
    {"core.fallback_ns", "ns", &ProbeSet::fallback_ns, probe_fallback_ns},
    {"core.heap_invoke_ns", "ns", &ProbeSet::heap_invoke_ns, probe_heap_invoke_ns},
    {"core.ctx_alloc_free_ns", "ns", &ProbeSet::ctx_alloc_free_ns, probe_ctx_alloc_free_ns},
    {"core.wrapper_dispatch_ns", "ns", &ProbeSet::wrapper_dispatch_ns, probe_wrapper_dispatch_ns},
    {"machine.send_ns", "ns", &ProbeSet::send_ns, probe_send_ns},
    {"machine.deliver_ns", "ns", &ProbeSet::deliver_ns, probe_deliver_ns},
    {"machine.mpsc_handoff_ns", "ns", &ProbeSet::mpsc_handoff_ns, probe_mpsc_handoff_ns},
    {"machine.outbox_stage_flush_ns", "ns", &ProbeSet::outbox_stage_flush_ns,
     probe_outbox_stage_flush_ns},
    {"machine.sim_route_deliver_ns", "ns", &ProbeSet::sim_route_deliver_ns,
     probe_sim_route_deliver_ns},
    {"machine.quiesce_idle_us", "us", &ProbeSet::quiesce_idle_us, probe_quiesce_idle_us},
    {"support.payload_acquire_release_ns", "ns", &ProbeSet::payload_acquire_release_ns,
     probe_payload_acquire_release_ns},
    {"objects.resolve_local_ns", "ns", &ProbeSet::resolve_local_ns, probe_resolve_local_ns},
};

// ---------------------------------------------------------------------------
// The ledger.
// ---------------------------------------------------------------------------

/// Shares of one sim-engine rep's wall time; the five sum to 1.
struct Ledger {
  double core = 0;
  double machine = 0;
  double support = 0;
  double objects = 0;
  double unattributed = 0;
};

/// Attributes `wall_ns` (one sim-engine rep) to layers from that rep's
/// counters `c` and the probe unit costs `p`. Each event is charged once:
///   core     wrapper executions of delivered invocations, call-site stack
///            completions, fallbacks, heap invocations, and any further
///            contexts (proxies, roots, lazily created caller contexts);
///   machine  every logical message's send + network + delivery;
///   support  every payload buffer acquired and recycled;
///   objects  the name-translation/locality/lock check of each of the
///            `object_calls` invocations that target an object (calls of
///            pure functions never reach the object table).
/// unattributed is the remainder (negative when the isolated probes
/// overstate the in-situ costs).
inline Ledger sim_ledger(const Counts& c, double object_calls, double wall_ns,
                         const ProbeSet& p) {
  const double msg_invokes = std::max(0.0, c.msgs_received - c.replies_sent);
  const double site_stack = std::max(0.0, c.stack_completions - msg_invokes);
  const double other_ctx = std::max(0.0, c.contexts_allocated - c.heap_invokes - c.fallbacks);
  Ledger l;
  l.core = (msg_invokes * p.wrapper_dispatch_ns + site_stack * p.stack_call_ns +
            c.fallbacks * p.fallback_ns + c.heap_invokes * p.heap_invoke_ns +
            other_ctx * p.ctx_alloc_free_ns) /
           wall_ns;
  l.machine = c.msgs_sent * p.sim_route_deliver_ns / wall_ns;
  l.support = c.payload_acquires * p.payload_acquire_release_ns / wall_ns;
  l.objects = object_calls * p.resolve_local_ns / wall_ns;
  l.unattributed = 1.0 - (l.core + l.machine + l.support + l.objects);
  return l;
}

}  // namespace concert::hem
