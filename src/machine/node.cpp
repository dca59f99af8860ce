#include "machine/node.hpp"

#include "core/invoke.hpp"
#include "core/registry.hpp"
#include "core/wrapper.hpp"
#include "machine/machine.hpp"

namespace concert {

void NodeMetrics::note(TraceKind kind, MethodId method, std::uint32_t arg) {
  switch (kind) {
    case TraceKind::WaveRun:
      wave_size.record(arg);
      [[fallthrough]];
    case TraceKind::DispatchBegin:
    case TraceKind::StackRun:
      open_runs.push_back(OpenRun{method, std::chrono::steady_clock::now()});
      break;
    case TraceKind::DispatchEnd:
    case TraceKind::RunEnd: {
      if (open_runs.empty()) break;
      const OpenRun run = open_runs.back();
      open_runs.pop_back();
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - run.t0)
                          .count();
      invoke_latency_ns.record(static_cast<std::uint64_t>(ns));
      method_latency(run.method).record(static_cast<std::uint64_t>(ns));
      break;
    }
    case TraceKind::InboxDrain: inbox_depth.record(arg); break;
    case TraceKind::OutboxFlush: flush_size.record(arg); break;
    default: break;
  }
}

Node::Node(NodeId id, Machine& machine)
    : id_(id),
      machine_(machine),
      cfg_(machine.config()),
      arena_(id),
      objects_(id) {
  verifier.set_enabled(cfg_.verify);
  if (cfg_.metrics) metrics_ = std::make_unique<NodeMetrics>();
  if (cfg_.profile_sites) sites_.enable();
}

MethodRegistry& Node::registry() { return machine_.registry(); }

void Node::init_comms(std::size_t nodes) {
  outbox_.reset(nodes);
  verifier.init_vclock(id_, nodes);
}

void Node::bind_dispatch() {
  MethodRegistry& reg = registry();
  CONCERT_CHECK(reg.finalized(), "dispatch before registry seal()");
  dispatch_ = reg.dispatch_table(mode());
  dispatch_size_ = reg.size();
  spec_ = reg.site_specialization() ? reg.spec_table(mode()) : nullptr;
}

static_assert(Context::kInlineArgs == Payload::kInline,
              "an argument list that travels inline is saved inline");

Context& Node::alloc_context(MethodId m) {
  const DispatchEntry& de = dispatch(m);
  // Argument cells for a list that can fit them (a variadic one may be as
  // long as a message carries inline); a longer list lives out of line.
  const std::size_t inline_args = de.arg_count > Context::kInlineArgs ? 0
                                  : de.variadic                       ? Context::kInlineArgs
                                                                      : de.arg_count;
  return alloc_context_raw(m, de.frame_slots, inline_args);
}

Context& Node::alloc_context_raw(MethodId m, std::size_t slots, std::size_t inline_args) {
  charge(costs().context_alloc);
  ++stats.contexts_allocated;
  const std::size_t slab_before = arena_.slab_bytes();
  bool recycled = false;
  Context& ctx = arena_.alloc(m, slots, inline_args, &recycled);
  if (recycled) {
    ++stats.ctx_recycled;
  } else {
    ++stats.ctx_fresh;
  }
  stats.arena_slab_bytes += arena_.slab_bytes() - slab_before;
  if (metrics_) ctx.born_ns = machine_.wall_now_ns();
  return ctx;
}

Payload Node::spill_payload(const Value* vs, std::size_t n) {
  std::vector<Value> buf = acquire_payload(n);
  buf.assign(vs, vs + n);
  return Payload(std::move(buf));
}

std::vector<Value> Node::acquire_payload(std::size_t reserve) {
  // A zero reserve requests nothing: it takes a buffer from the smallest
  // populated class, if any, and is kept out of payload_acquires and
  // payload_pool_hits. No send path makes one — short payloads travel inline
  // (make_payload).
  if (reserve == 0) {
    std::vector<Value> buf;
    payload_pool_.try_acquire(buf, 0);
    return buf;
  }
  ++stats.payload_acquires;
  std::vector<Value> buf;
  if (payload_pool_.try_acquire(buf, reserve)) {
    ++stats.payload_pool_hits;
  }
  buf.reserve(reserve);
  return buf;
}

void Node::release_payload(std::vector<Value>&& buf) {
  if (buf.capacity() == 0) return;  // moved-from or never grown: nothing to keep
  buf.clear();
  if (payload_pool_.release(std::move(buf))) {
    ++stats.payload_releases;
  } else {
    ++stats.payload_discards;
  }
}

void Node::quiesce_memory() {
  arena_.reset_at_quiescence();
  stats.payload_discards += payload_pool_.trim(kPayloadPoolKeep);
  ++stats.arena_resets;
}

void Node::free_context(Context& ctx) {
  CONCERT_CHECK(ctx.status != ContextStatus::Ready,
                "freeing context " << ctx.ref() << " still in the ready queue");
  CONCERT_CHECK(!ctx.holds_lock, "freeing context " << ctx.ref() << " still holding a lock");
  charge(costs().context_free);
  ++stats.contexts_freed;
  if (metrics_ && ctx.born_ns != 0) {
    const std::uint64_t now = machine_.wall_now_ns();
    metrics_->ctx_lifetime_ns.record(now > ctx.born_ns ? now - ctx.born_ns : 0);
  }
  arena_.free(ctx);
}

std::vector<const Context*> Node::suspended_contexts() const {
  std::vector<const Context*> out;
  for (ContextId id = 0; id < arena_.capacity(); ++id) {
    const Context* ctx = arena_.try_resolve_any_gen(id);
    if (ctx != nullptr && ctx->status == ContextStatus::Waiting && ctx->join > 0) {
      out.push_back(ctx);
    }
  }
  return out;
}

void Node::enqueue(Context& ctx) {
  CONCERT_CHECK(ctx.home == id_, "enqueue of foreign context " << ctx.ref());
  CONCERT_CHECK(ctx.status != ContextStatus::Ready, "double enqueue of " << ctx.ref());
  ctx.status = ContextStatus::Ready;
  charge(costs().schedule_enqueue);
  ready_.push_back(ctx.id);
  work_created();
}

void Node::suspend(Context& ctx) {
  CONCERT_CHECK(ctx.status == ContextStatus::Running || ctx.status == ContextStatus::Waiting,
                "suspend of non-running context " << ctx.ref());
  if (ctx.join == 0) {
    // Everything it waited for already arrived: the touch succeeds at once.
    ctx.status = ContextStatus::Waiting;
    enqueue(ctx);
  } else {
    ctx.status = ContextStatus::Waiting;
    ++stats.suspensions;
    verifier.record_block(ctx.method);
    // A fresh flow id per suspension when tracing: the matching Resume
    // re-records it, exporting the pair as one Perfetto flow even if the
    // context suspends again later.
    if (tracer.enabled()) ctx.trace_flow = machine_.next_trace_cause();
    trace<TraceKind::Suspend>(ctx.method, ctx.id, ctx.trace_flow);
  }
}

void Node::resume(Context& ctx) {
  ++stats.resumptions;
  trace<TraceKind::Resume>(ctx.method, ctx.id, ctx.trace_flow);
  if (fallback_policy() == FallbackPolicy::AlwaysRetrySequential && ctx.reverted) {
    // Ablation A1: this policy re-runs the method on the stack at every
    // resumption; if it blocks again it pays the unwinding again. Charged as
    // a lump since the re-execution reproduces the already-counted work.
    charge(costs().respeculation);
  }
  enqueue(ctx);
}

void Node::release_guard(Context& ctx) {
  CONCERT_CHECK(ctx.join > 0, "guard release with join==0 on " << ctx.ref());
  if (--ctx.join == 0 && ctx.status == ContextStatus::Waiting) {
    resume(ctx);
  }
}

bool Node::run_one() {
  if (ready_.empty()) return false;
  const ContextId cid = ready_.front();
  ready_.pop_front();
  // A queued context cannot be freed (free_context checks), so its id names
  // it whatever its generation: one lookup.
  CONCERT_CHECK(cid < arena_.capacity(), "ready queue holds bad context id " << cid);
  Context* const queued = arena_.try_resolve_any_gen(cid);
  CONCERT_CHECK(queued != nullptr, "ready queue refers to freed context " << cid);
  Context& ctx = *queued;
  CONCERT_CHECK(ctx.status == ContextStatus::Ready, "dequeued context " << ctx.ref()
                                                                        << " is not Ready");
  // Implicit locking: an invocation on a held object is deferred (the
  // holder is either in this queue or waiting on futures; it will finish).
  if (ctx.method != kInvalidMethod) {
    const DispatchEntry& de = dispatch(ctx.method);
    if (de.locks_self && ctx.self.valid() && !ctx.holds_lock) {
      if (objects_.locked(ctx.self)) {
        charge(costs().lock_check);
        if (verifier.enabled() && deadlocked_on_ancestor(ctx)) {
          // Observed self-deadlock: the lock's holder is an *ancestor* of
          // this invocation, so re-deferring would spin forever. Quarantine
          // the context (park it Waiting, off the ready queue, retiring its
          // work credit) so both engines still reach quiescence, where the
          // conformance sanitizer reports ReentrantAcquire with its witness
          // chain — a panic here would end the run with far less to go on.
          ctx.status = ContextStatus::Waiting;
          return true;
        }
        ready_.push_back(cid);  // defer to the back of the queue
        work_created();
        return true;
      }
      objects_.lock(ctx.self);
      verifier.record_lock_acquire(ctx.method, ctx.self.pack());
      charge(costs().lock_check);
      ctx.holds_lock = true;
    }
  }
  ctx.status = ContextStatus::Running;
  charge(costs().dispatch);
  const MethodId method = ctx.method;
  trace<TraceKind::DispatchBegin>(method, ctx.id);
  const ParStep par = dispatch(method).par;
  CONCERT_CHECK(par != nullptr, "context " << ctx.ref() << " has no parallel version");
  par(*this, ctx);  // may free ctx: the end record keys on the saved method id
  trace<TraceKind::DispatchEnd>(method);
  return true;
}

bool Node::deadlocked_on_ancestor(const Context& ctx) {
  // Follow the reply chain upward: ctx replies into its caller's context,
  // that one into its caller's, ... The walk is local-only (a remote hop
  // means the holder is on another node, where this node cannot inspect —
  // and a genuinely remote holder is making progress anyway) and hop-capped
  // as a cycle/pathology guard. Runs only on the deferred path of verify
  // builds, so it costs nothing when verification is off and is outside the
  // cost model when on.
  constexpr int kMaxHops = 64;
  Continuation k = ctx.ret;
  for (int hop = 0; hop < kMaxHops && k.valid() && k.target.node == id_; ++hop) {
    const Context* anc = arena_.try_resolve(k.target);
    if (anc == nullptr) break;
    if (anc->holds_lock && anc->self == ctx.self) {
      verifier.record_reentrant_acquire(anc->method, ctx.method);
      return true;
    }
    k = anc->ret;
  }
  return false;
}

void Node::send(Message&& msg) {
  msg.src = id_;
  const bool is_reply = msg.kind == MsgKind::Reply;
  // Causal id for the send->recv flow: drawn once, travels with the message
  // (and through any bundle), re-recorded by the receiver.
  if (tracer.enabled() && msg.cause == 0) msg.cause = machine_.next_trace_cause();
  // Vector-clock stamp (concert-race): taken at the *logical* send, so a
  // staged message carries its staging-time causality and flush_outbox never
  // re-stamps. No-op (and no allocation) unless verification is on.
  if (verifier.enabled()) verifier.stamp_send(msg.box().vclock);
  if (!comms_policy().buffered() && !wave_staging_) {
    // Immediate: fixed software overhead plus processor-driven injection of
    // each packet (on the CM-5 every extra packet costs nearly another
    // active message).
    const std::uint64_t c = costs().send_cost(is_reply, msg.size_bytes());
    charge(c);
    stats.comm_instructions += c;
    trace<TraceKind::MsgSend>(msg.method, msg.dst, msg.cause);
    ++stats.msgs_sent;
    if (is_reply) ++stats.replies_sent;
    stats.bytes_sent += msg.size_bytes();
    machine_.route(*this, std::move(msg));
    return;
  }
  // Buffered: stage in the per-destination outbox; the network only sees the
  // message at flush time. A staged message counts as outstanding work so
  // quiescence detection stays sound in both engines.
  charge(costs().outbox_stage);
  stats.comm_instructions += costs().outbox_stage;
  trace<TraceKind::MsgSend>(msg.method, msg.dst, msg.cause);
  ++stats.msgs_sent;
  if (is_reply) ++stats.replies_sent;
  const NodeId dst = msg.dst;
  outbox_.push(std::move(msg));
  work_created();
  const FlushPolicy& pol = comms_policy();
  if (pol.kind == FlushPolicy::Kind::SizeThreshold && outbox_.pending(dst) >= pol.threshold) {
    flush_outbox(dst);
  }
}

void Node::flush_outbox(NodeId dst) {
  const std::span<Message> staged = outbox_.staged(dst);
  const std::size_t n = staged.size();
  if (n == 0) return;
  Message out = n == 1 ? std::move(staged.front()) : Message::bundle_of(id_, dst, staged);
  outbox_.clear(dst);
  // Amortized accounting: one per-message overhead for the whole bundle plus
  // per-packet costs for the combined payload (a bundle of one is charged
  // exactly like a plain send).
  const std::uint64_t c =
      n == 1 ? costs().send_cost(out.kind == MsgKind::Reply, out.size_bytes())
             : costs().bundle_send_cost(out.any_invoke(), out.size_bytes(), n);
  charge(c);
  stats.comm_instructions += c;
  stats.bytes_sent += out.size_bytes();
  ++stats.outbox_flushes;
  stats.record_bundle(n);
  if (n > 1) {
    ++stats.bundles_sent;
    stats.msgs_coalesced += n;
  }
  trace<TraceKind::OutboxFlush>(kInvalidMethod, static_cast<std::uint32_t>(n));
  machine_.route(*this, std::move(out));
  // Retire the staged elements' credits only after route() counted the
  // bundle's own, so no instant shows this work as finished.
  work_retired(n);
}

std::size_t Node::flush_all_outboxes() {
  std::size_t flushed = 0;
  while (!outbox_.empty()) {
    const NodeId dst = outbox_.first_nonempty();
    flushed += outbox_.pending(dst);
    flush_outbox(dst);
  }
  return flushed;
}

void Node::deliver(std::span<Message> batch) {
  for (Message& msg : batch) {
    if (!msg.is_bundle()) {
      if (cfg_.merge_waves) {
        feed(msg, /*accounted=*/false);
      } else {
        deliver_element(msg, /*accounted=*/false);  // no run ever forms
      }
      continue;
    }
    // Bundle arrival, paid once: the amortized receive overhead here, each
    // member's receive stats as it is fed. Runs never span a bundle
    // boundary, so the pending run retires first, and the bundle's last run
    // before the next message.
    flush_run();
    const std::uint64_t c = costs().bundle_recv_cost(msg.any_invoke(), msg.bundle().size());
    charge(c);
    stats.comm_instructions += c;
    ++stats.bundles_received;
    for (Message& e : msg.bundle()) {
      ++stats.msgs_received;
      trace<TraceKind::MsgRecv>(e.method, e.src, e.cause);
      feed(e, /*accounted=*/true);
    }
    flush_run();
  }
  if (cfg_.merge_waves) flush_run();
}

void Node::feed(Message& msg, bool accounted) {
  // A message may join the pending run only if executing it inline is
  // guaranteed equivalent to delivering it alone: a plain Invoke of a
  // wave-eligible method (NB, non-locking — see seal()) on a local,
  // unforwarded, unlocked object. Nothing executes between this check and
  // the run's execution except earlier members of the same run, and a
  // wave-eligible body can neither lock nor migrate objects, so the check
  // cannot go stale. Everything else — and every run-key change — retires
  // the pending run first, preserving delivery order exactly.
  const bool joins = cfg_.merge_waves && msg.kind == MsgKind::Invoke && msg.target.valid() &&
                     msg.target.node == id_ && dispatch(msg.method).wave != nullptr &&
                     !objects_.is_forwarded(msg.target) && !objects_.locked(msg.target);
  if (!joins) {
    flush_run();
    deliver_element(msg, accounted);
    return;
  }
  if (!wave_msgs_.empty() &&
      (msg.method != wave_msgs_.front()->method || wave_msgs_.size() >= kWaveCap)) {
    flush_run();
  }
  run_accounted_ = accounted;
  wave_targets_.push_back(msg.target);
  wave_args_.push_back(msg.args.data());
  wave_nargs_.push_back(static_cast<std::uint32_t>(msg.args.size()));
  wave_replies_.push_back(msg.reply_to);
  wave_msgs_.push_back(&msg);
}

void Node::flush_run() {
  if (wave_msgs_.empty()) return;
  // Every send made while a run executes is staged in the outbox — even
  // under FlushPolicy::Immediate — and leaves as one flush per destination
  // when the run retires, so a wave's replies travel as bundles without a
  // policy change. Flushing per *run* (not per delivered batch) and capping
  // run length keeps requesters supplied while this node works through a
  // long drain: with one flush per 128-message batch, SOR's boundary
  // exchange serializes into idle ping-pong bubbles and the merged path
  // loses more to lost overlap than it wins in amortized dispatch.
  wave_staging_ = true;
  if (wave_msgs_.size() == 1) {
    deliver_element(*wave_msgs_.front(), run_accounted_);
  } else {
    execute_wave();
  }
  wave_staging_ = false;
  flush_all_outboxes();
  wave_targets_.clear();
  wave_args_.clear();
  wave_nargs_.clear();
  wave_replies_.clear();
  wave_msgs_.clear();
}

void Node::deliver_element(Message& msg, bool accounted) {
  if (!accounted) {
    const std::uint64_t c = costs().recv_cost(msg.kind == MsgKind::Reply);
    charge(c);
    stats.comm_instructions += c;
    ++stats.msgs_received;
    trace<TraceKind::MsgRecv>(msg.method, msg.src, msg.cause);
  }
  verify_delivery(msg);
  if (msg.kind == MsgKind::Reply) {
    // Replies may carry several values, filling consecutive slots (the
    // multiple-return-values extension).
    for (std::size_t i = 0; i < msg.args.size(); ++i) {
      Continuation ki = msg.reply_to;
      ki.slot = static_cast<SlotId>(msg.reply_to.slot + i);
      fill_local(ki, msg.args[i]);
    }
  } else {
    handle_invoke_message(*this, msg);
  }
  // The payload has been consumed (filled into slots, executed from, copied
  // or swapped into a context, or moved onward); a spill buffer the message
  // still owns goes to this node's pool.
  recycle_payload(msg.args);
}

void Node::verify_delivery(const Message& msg) {
  if (!verifier.enabled() || msg.vclock().empty()) return;
  verifier.join_delivery(msg.vclock());
  if (msg.kind == MsgKind::Invoke && msg.target.valid()) {
    verifier.record_object_delivery(msg.target.pack(), msg.method, msg.vclock());
  }
}

void Node::execute_wave() {
  const std::size_t n = wave_msgs_.size();
  const MethodId method = wave_msgs_.front()->method;
  const DispatchEntry& de = dispatch(method);
  // Amortized accounting: ONE receive overhead and ONE sequential-call setup
  // for the run, then the residual per-member loop cost plus the lock probe
  // each member would have paid anyway. A run of bundle members paid its
  // receive costs at bundle arrival.
  if (!run_accounted_) {
    const std::uint64_t recv = costs().recv_cost(/*is_reply=*/false);
    charge(recv);
    stats.comm_instructions += recv;
    stats.msgs_received += n;
    for (const Message* m : wave_msgs_) trace<TraceKind::MsgRecv>(method, m->src, m->cause);
  }
  charge_seq_call(*this, Schema::NonBlocking);
  charge((costs().wave_member + costs().lock_check) * n);
  stats.stack_calls += n;
  stats.stack_completions += n;
  stats.record_wave(n);
  trace<TraceKind::WaveRun>(method, static_cast<std::uint32_t>(n));
  if (sites_.enabled()) {
    // Wave members are wrapper-path executions: no declared caller, so they
    // aggregate under the "(message)" pseudo-caller. A wave only ever runs
    // NB members, so every attempt is a hit; the sender already counted the
    // invocation (invokes/remote stay untouched, mirroring NodeStats).
    SiteRecord& site = sites_.at(kInvalidMethod, method);
    site.attempts += n;
    site.nb_hits += n;
  }
  // Under verify the members run one at a time (stride 1), each after
  // joining its sender's clock, so the sanitizer observes the same
  // interleaving of delivery joins and reply stamps as one-by-one delivery.
  // Verification is outside the cost model; the charges above are untouched.
  const std::size_t stride = verifier.enabled() ? 1 : n;
  for (std::size_t i = 0; i < n; i += stride) {
    verify_delivery(*wave_msgs_[i]);
    de.wave(*this, InvokeWave{method, stride, wave_targets_.data() + i, wave_args_.data() + i,
                              wave_nargs_.data() + i, wave_replies_.data() + i});
  }
  // One latency record for the whole run (the per-message path records one
  // per invocation; the wave's single record is the amortization at work).
  trace<TraceKind::RunEnd>(method);
  for (Message* m : wave_msgs_) recycle_payload(m->args);
}

void Node::init_inbox(std::size_t sources) {
  inbox_ = std::vector<ChannelFifo<Message>>(sources);
  unpublished_.reserve(sources);
}

void Node::post(Node& to, Message&& msg) {
  ChannelFifo<Message>& ch = to.inbox_[id_];
  if (!defer_publish_) {
    ch.push(std::move(msg));
    to.notify_if_parked();
    return;
  }
  const std::size_t unpublished = ch.write(std::move(msg));
  if (unpublished == 0) {
    to.notify_if_parked();  // the write filled its segment and published it
  } else if (unpublished == 1) {
    unpublished_.push_back(&to);
  }
}

void Node::publish_sends() {
  for (Node* to : unpublished_) {
    if (to->inbox_[id_].publish()) to->notify_if_parked();
  }
  unpublished_.clear();
}

void Node::push_inbox(Message&& msg) {
  CONCERT_CHECK(msg.src < inbox_.size(), "inbox push from node " << msg.src << " to node " << id_
                                                                 << ", which has " << inbox_.size()
                                                                 << " channels");
  machine_.node(msg.src).post(*this, std::move(msg));
}

bool Node::inbox_empty() const {
  for (const ChannelFifo<Message>& ch : inbox_) {
    if (!ch.empty()) return false;
  }
  return true;
}

std::size_t Node::drain_inbox(std::vector<Message>& out, std::size_t max) {
  return consume_inbox(max, [&out](std::span<Message> run) {
    for (Message& msg : run) out.push_back(std::move(msg));
  });
}

void Node::note_inbox_batch(std::size_t n) {
  stats.record_inbox_batch(n);
  trace<TraceKind::InboxDrain>(kInvalidMethod, static_cast<std::uint32_t>(n));
}

void Node::park_inbox(std::chrono::microseconds timeout) {
  parked_.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  {
    std::unique_lock lk(park_mu_);
    // Re-check under the lock: most pushes that raced our park decision are
    // seen here and skip the wait entirely, and a producer that loads
    // parked_ == true notifies under this mutex. A publish keeps its
    // parked_ load unfenced, so a narrow window remains where both sides
    // miss; the timeout bounds that window (and covers shutdown races).
    // Liveness, not correctness, is all that rides on the wake — every
    // queued message holds its work credit.
    if (inbox_empty()) {
      ++stats.inbox_parks;
      trace<TraceKind::Park>(kInvalidMethod);
      park_cv_.wait_for(lk, timeout);
      // Consumer-side wakeup accounting (producers must not touch another
      // node's stats): a park that ends with work waiting was a productive
      // wakeup, whether the producer's notify or the timeout ended it.
      if (!inbox_empty()) ++stats.park_wakeups;
    }
  }
  parked_.store(false, std::memory_order_relaxed);
}

void Node::wake_inbox() {
  std::scoped_lock lk(park_mu_);
  park_cv_.notify_one();
}

void Node::reply_to(const Continuation& k, const Value& v) {
  if (!k.valid()) return;  // reactive invocation: nobody wants the value
  if (k.target.node == id_) {
    fill_local(k, v);
  } else {
    send(Message::reply(id_, k.target.node, k, make_payload(&v, 1)));
  }
}

void Node::reply_to_multi(const Continuation& k, const Value* vs, std::size_t n) {
  if (!k.valid()) return;
  if (k.target.node == id_) {
    for (std::size_t i = 0; i < n; ++i) {
      Continuation ki = k;
      ki.slot = static_cast<SlotId>(k.slot + i);
      fill_local(ki, vs[i]);
    }
  } else {
    send(Message::reply(id_, k.target.node, k, make_payload(vs, n)));
  }
}

void Node::fill_local(const Continuation& k, const Value& v) {
  CONCERT_CHECK(k.target.node == id_, "fill_local for remote continuation " << k);
  Context& ctx = arena_.resolve(k.target);
  charge(costs().reply_store);
  if (!futures_in_context()) {
    // Ablation A2: futures allocated apart from the context cost one more
    // indirection on every delivery and every touch (the StackThreads layout).
    charge(2);
  }
  const bool released = ctx.fill(k.slot, v);
  if (released && ctx.status == ContextStatus::Waiting) {
    resume(ctx);
  }
}

}  // namespace concert
