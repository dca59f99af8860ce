#include "apps/em3d/em3d.hpp"

#include <algorithm>

#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "support/rng.hpp"

namespace concert::em3d {

namespace {

MethodId g_get = kInvalidMethod;
MethodId g_pull = kInvalidMethod;
MethodId g_recv = kInvalidMethod;
MethodId g_combine = kInvalidMethod;
MethodId g_fwd = kInvalidMethod;
MethodId g_driver = kInvalidMethod;
MethodId g_arrive = kInvalidMethod;

// compute_pull frame layout (variable-degree gather, nqueens-style resume).
constexpr SlotId kAcc = 0;
constexpr SlotId kFrom = 1;
constexpr SlotId kSpawnFrom = 2;
constexpr SlotId kIn = 3;

// driver frame layout.
constexpr SlotId kIter = 0;
constexpr SlotId kBar = 1;
constexpr SlotId kWork = 2;

// --- the deterministic graph plan --------------------------------------------

/// The whole graph in flat arrays: graph id `id` is owned by machine node
/// id % P, and its in-edges are entries [id * degree, (id + 1) * degree).
struct Plan {
  std::size_t nodes = 1;  ///< P
  std::size_t n_e = 0;
  std::size_t degree = 0;
  std::vector<std::uint32_t> srcs;  ///< in-edge sources
  std::vector<double> weights;      ///< in-edge weights
  std::vector<double> init;         ///< per graph node
  std::size_t local_edges = 0, remote_edges = 0;

  NodeId owner(std::size_t id) const { return static_cast<NodeId>(id % nodes); }
};

/// Graph ids in [lo, hi) owned by machine node q of p: first, first + p, ...
struct Stride {
  std::uint32_t first = 0, count = 0;
};
Stride owned_in(std::uint32_t lo, std::uint32_t hi, std::uint32_t q, std::uint32_t p) {
  const std::uint32_t first = lo + (q + p - lo % p) % p;
  return {first, first < hi ? (hi - first + p - 1) / p : 0};
}

Plan make_graph(const Params& p, std::size_t nodes) {
  // Every graph node draws its edges from the opposite half, so each half
  // needs a member. build(), reference() and register_em3d() all start here.
  CONCERT_CHECK(p.graph_nodes >= 2,
                "em3d needs at least 2 graph nodes, got " << p.graph_nodes);
  Plan plan;
  const std::size_t n = p.graph_nodes;
  plan.nodes = nodes;
  plan.n_e = n / 2;
  plan.degree = p.degree;
  const auto P = static_cast<std::uint32_t>(nodes);
  const auto n_e = static_cast<std::uint32_t>(plan.n_e);

  SplitMix64 rng(p.seed);
  plan.srcs.resize(n * p.degree);
  plan.weights.resize(n * p.degree);
  plan.init.resize(n);
  for (std::size_t id = 0; id < n; ++id) plan.init[id] = rng.next_double() * 2.0 - 1.0;

  std::size_t e = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    const bool is_e = id < plan.n_e;
    // Opposite-half candidates on this node, for local edge selection.
    const Stride local_pool = is_e ? owned_in(n_e, static_cast<std::uint32_t>(n), plan.owner(id), P)
                                   : owned_in(0, n_e, plan.owner(id), P);
    const std::uint32_t lo = is_e ? n_e : 0u;
    const std::uint32_t span = is_e ? static_cast<std::uint32_t>(n) - n_e : n_e;
    for (std::size_t d = 0; d < p.degree; ++d, ++e) {
      std::uint32_t src;
      if (local_pool.count > 0 && rng.chance(p.local_fraction)) {
        src = local_pool.first + static_cast<std::uint32_t>(rng.uniform(local_pool.count)) * P;
      } else {
        src = lo + static_cast<std::uint32_t>(rng.uniform(span));
      }
      plan.srcs[e] = src;
      plan.weights[e] = rng.next_double();
      if (plan.owner(src) == plan.owner(id)) {
        ++plan.local_edges;
      } else {
        ++plan.remote_edges;
      }
    }
  }
  return plan;
}

// --- NB methods ---------------------------------------------------------------

Context* get_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                 std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  *ret = Value(c.values[c.nodes.local(static_cast<std::uint32_t>(args[0].as_i64()))]);
  return nullptr;
}
void get_par(Node& nd, Context& ctx) {
  Value v;
  get_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

Context* recv_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                  std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  c.inbox_slot(static_cast<std::uint32_t>(args[0].as_i64()), args[1].as_i64()) = args[2].as_f64();
  *ret = Value(1);
  return nullptr;
}
void recv_par(Node& nd, Context& ctx) {
  Value v;
  recv_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

Context* combine_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                     std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  const std::uint32_t li = c.nodes.local(static_cast<std::uint32_t>(args[0].as_i64()));
  const double* w = c.weights.data() + std::size_t{li} * c.degree;
  const double* in = c.inbox.data() + std::size_t{li} * c.degree;
  double acc = 0.0;
  for (std::size_t k = 0; k < c.degree; ++k) acc += w[k] * in[k];
  c.values[li] -= acc;
  *ret = Value(1);
  return nullptr;
}
void combine_par(Node& nd, Context& ctx) {
  Value v;
  combine_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

// --- merged-wave bodies (MachineConfig::merge_waves) --------------------------
// A push/pull superstep delivers hundreds of same-method invocations per
// container; the wave bodies run them as struct-of-arrays loops, gathering
// the graph-node reads into a plain double chunk before the reply loop.

void get_wave(Node& nd, const InvokeWave& w) {
  ObjectSpace& os = nd.objects();
  constexpr std::size_t kChunk = 64;
  double v[kChunk];
  for (std::size_t base = 0; base < w.count; base += kChunk) {
    const std::size_t m = std::min(kChunk, w.count - base);
    for (std::size_t i = 0; i < m; ++i) {
      auto& c = os.get<NodeContainer>(w.targets[base + i]);
      v[i] = c.values[c.nodes.local(static_cast<std::uint32_t>(w.args[base + i][0].as_i64()))];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const Value rv(v[i]);
      nd.reply_to_multi(w.replies[base + i], &rv, 1);
    }
  }
}

void recv_wave(Node& nd, const InvokeWave& w) {
  ObjectSpace& os = nd.objects();
  for (std::size_t i = 0; i < w.count; ++i) {
    const Value* a = w.args[i];
    os.get<NodeContainer>(w.targets[i]).inbox_slot(static_cast<std::uint32_t>(a[0].as_i64()),
                                                   a[1].as_i64()) = a[2].as_f64();
  }
  const Value ack(1);
  for (std::size_t i = 0; i < w.count; ++i) nd.reply_to_multi(w.replies[i], &ack, 1);
}

// --- compute_pull: MB -----------------------------------------------------------

Context* pull_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  auto& c = nd.objects().get<NodeContainer>(self);
  const std::uint32_t li = c.nodes.local(static_cast<std::uint32_t>(args[0].as_i64()));
  const std::uint32_t* srcs = c.srcs.data() + std::size_t{li} * c.degree;
  const double* w = c.weights.data() + std::size_t{li} * c.degree;
  Frame f(nd, g_pull, self, ci, args, nargs);
  double acc = 0.0;
  for (std::size_t d = 0; d < c.degree; ++d) {
    Value v;
    if (!f.call(g_get, c.container_of(srcs[d]), {Value(std::int64_t{srcs[d]})},
                static_cast<SlotId>(kIn + d), &v)) {
      return f.fallback(1, {{kAcc, Value(acc)},
                            {kFrom, Value(static_cast<std::int64_t>(d))},
                            {kSpawnFrom, Value(static_cast<std::int64_t>(d + 1))}});
    }
    acc += w[d] * v.as_f64();
  }
  c.values[li] -= acc;
  *ret = Value(1);
  return nullptr;
}

void pull_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  const std::uint32_t li = c.nodes.local(static_cast<std::uint32_t>(ctx.args[0].as_i64()));
  const std::uint32_t* srcs = c.srcs.data() + std::size_t{li} * c.degree;
  const double* w = c.weights.data() + std::size_t{li} * c.degree;
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.save(kAcc, Value(0.0));
      f.save(kFrom, Value(std::int64_t{0}));
      f.save(kSpawnFrom, Value(std::int64_t{0}));
      [[fallthrough]];
    case 1: {
      for (std::size_t d = static_cast<std::size_t>(f.get(kSpawnFrom).as_i64()); d < c.degree;
           ++d) {
        f.spawn(g_get, c.container_of(srcs[d]), {Value(std::int64_t{srcs[d]})},
                static_cast<SlotId>(kIn + d));
      }
      if (!f.touch(2)) return;
      [[fallthrough]];
    }
    case 2: {
      double acc = f.get(kAcc).as_f64();
      for (std::size_t d = static_cast<std::size_t>(f.get(kFrom).as_i64()); d < c.degree; ++d) {
        acc += w[d] * f.get(static_cast<SlotId>(kIn + d)).as_f64();
      }
      c.values[li] -= acc;
      f.complete(Value(1));
      return;
    }
    default:
      CONCERT_UNREACHABLE("compute_pull bad pc");
  }
}

// --- fwd_update: CP, variadic ----------------------------------------------------
// args: [value, dst0, slot0, dst1, slot1, ...] — consumers sorted by owner
// node; this handler applies its own prefix and forwards the remainder.

std::size_t apply_local_prefix(Node& nd, NodeContainer& c, const Value* args,
                               std::size_t nargs) {
  const double v = args[0].as_f64();
  std::size_t k = 1;
  while (k + 1 < nargs) {
    const auto dst = static_cast<std::uint32_t>(args[k].as_i64());
    if (c.nodes.home_of(dst) != nd.id()) break;
    c.inbox_slot(dst, args[k + 1].as_i64()) = v;
    nd.charge(2);
    k += 2;
  }
  return k;
}

Context* fwd_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                 std::size_t nargs) {
  auto& c = nd.objects().get<NodeContainer>(self);
  const std::size_t k = apply_local_prefix(nd, c, args, nargs);
  if (k >= nargs) {
    *ret = Value(1);  // end of chain: the reply travels back to the origin
    return nullptr;
  }
  // Forward the remainder (value + unconsumed entries) to the next node.
  std::vector<Value>& rest = c.fwd_rest;
  rest.assign(args, args + 1);
  rest.insert(rest.end(), args + k, args + nargs);
  const GlobalRef next = c.container_of(static_cast<std::uint32_t>(args[k].as_i64()));
  Frame f(nd, g_fwd, self, ci, args, nargs);
  return f.forward(g_fwd, next, rest.data(), rest.size(), ret);
}

void fwd_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  const std::size_t k = apply_local_prefix(nd, c, ctx.args.data(), ctx.args.size());
  Continuation reply = ctx.ret;
  if (k >= ctx.args.size()) {
    nd.free_context(ctx);
    nd.reply_to(reply, Value(1));
    return;
  }
  std::vector<Value>& rest = c.fwd_rest;
  rest.assign(ctx.args.begin(), ctx.args.begin() + 1);
  rest.insert(rest.end(), ctx.args.begin() + static_cast<std::ptrdiff_t>(k), ctx.args.end());
  const GlobalRef next = c.container_of(static_cast<std::uint32_t>(ctx.args[k].as_i64()));
  nd.free_context(ctx);
  reply.forwarded = true;
  ++nd.stats.continuations_forwarded;
  invoke_with_continuation(nd, g_fwd, next, rest.data(), rest.size(), reply);
}

// --- driver ---------------------------------------------------------------------

Context* driver_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                    const Value* args, std::size_t nargs) {
  (void)ret;
  Frame f(nd, g_driver, self, ci, args, nargs);
  return f.yield_to_parallel(0, {});
}

/// Spawns one half-step's pushes: every owned source in local indices
/// [lo, hi) sends its value to each of its consumers, in consumer order.
void spawn_pushes(Node& nd, ParFrame& f, NodeContainer& c, std::uint32_t lo, std::uint32_t hi,
                  bool forward_version) {
  SlotId s = kWork;
  std::vector<Value> chain;  // the forward version's chain, reused per source
  for (std::uint32_t li = lo; li < hi; ++li) {
    const Consumer* first = c.consumers.data() + c.consumer_begin[li];
    const Consumer* last = c.consumers.data() + c.consumer_begin[li + 1];
    if (first == last) continue;
    const double v = c.values[li];
    if (!forward_version) {
      for (const Consumer* cons = first; cons != last; ++cons) {
        f.spawn(g_recv, c.container_of(cons->dst),
                {Value(std::int64_t{cons->dst}), Value(std::int64_t{cons->slot}), Value(v)}, s++);
      }
      continue;
    }
    // forward version: local consumers delivered directly; remote ones as one
    // chain message following the (node-sorted) consumer order.
    chain.clear();
    chain.push_back(Value(v));
    for (const Consumer* cons = first; cons != last; ++cons) {
      if (c.nodes.home_of(cons->dst) == nd.id()) {
        f.spawn(g_recv, c.container_of(cons->dst),
                {Value(std::int64_t{cons->dst}), Value(std::int64_t{cons->slot}), Value(v)}, s++);
      } else {
        chain.push_back(Value(std::int64_t{cons->dst}));
        chain.push_back(Value(std::int64_t{cons->slot}));
      }
    }
    if (chain.size() > 1) {
      const GlobalRef next = c.container_of(static_cast<std::uint32_t>(chain[1].as_i64()));
      f.spawn(g_fwd, next, chain.data(), chain.size(), s++);
    }
  }
}

void driver_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  ParFrame f(nd, ctx);
  const auto version = static_cast<Version>(ctx.args[0].as_i64());
  const std::int64_t iters = ctx.args[1].as_i64();
  const bool pull = version == Version::Pull;
  // Local indices [0, e_end) are this container's E nodes, [e_end, h_end)
  // its H nodes.
  const std::uint32_t e_end = c.nodes.first_h();
  const std::uint32_t h_end = c.nodes.size();
  for (;;) {
    switch (ctx.pc) {
      case 0:
        f.save(kIter, Value(std::int64_t{0}));
        ctx.pc = 1;
        break;
      case 1: {  // E half: gather (pull) or scatter H values (push/forward)
        if (f.get(kIter).as_i64() >= iters) {
          f.complete(Value(f.get(kIter).as_i64()));
          return;
        }
        if (pull) {
          SlotId s = kWork;
          for (std::uint32_t li = 0; li < e_end; ++li) {
            f.spawn(g_pull, ctx.self, {Value(std::int64_t{c.nodes.id(li)})}, s++);
          }
        } else {
          spawn_pushes(nd, f, c, e_end, h_end, version == Version::Forward);
        }
        ctx.pc = 2;
        if (!f.touch(2)) return;
        break;
      }
      case 2:
        f.spawn(g_arrive, c.barrier, {}, kBar);
        ctx.pc = 3;
        if (!f.touch(3)) return;
        break;
      case 3: {  // E half completion (push/forward combine); pull already done
        if (!pull) {
          SlotId s = kWork;
          for (std::uint32_t li = 0; li < e_end; ++li) {
            f.spawn(g_combine, ctx.self, {Value(std::int64_t{c.nodes.id(li)})}, s++);
          }
        }
        ctx.pc = 4;
        if (!f.touch(4)) return;
        break;
      }
      case 4:
        f.spawn(g_arrive, c.barrier, {}, kBar);
        ctx.pc = 5;
        if (!f.touch(5)) return;
        break;
      case 5: {  // H half
        if (pull) {
          SlotId s = kWork;
          for (std::uint32_t li = e_end; li < h_end; ++li) {
            f.spawn(g_pull, ctx.self, {Value(std::int64_t{c.nodes.id(li)})}, s++);
          }
        } else {
          spawn_pushes(nd, f, c, 0, e_end, version == Version::Forward);
        }
        ctx.pc = 6;
        if (!f.touch(6)) return;
        break;
      }
      case 6:
        f.spawn(g_arrive, c.barrier, {}, kBar);
        ctx.pc = 7;
        if (!f.touch(7)) return;
        break;
      case 7: {
        if (!pull) {
          SlotId s = kWork;
          for (std::uint32_t li = e_end; li < h_end; ++li) {
            f.spawn(g_combine, ctx.self, {Value(std::int64_t{c.nodes.id(li)})}, s++);
          }
        }
        ctx.pc = 8;
        if (!f.touch(8)) return;
        break;
      }
      case 8:
        f.spawn(g_arrive, c.barrier, {}, kBar);
        ctx.pc = 9;
        if (!f.touch(9)) return;
        break;
      case 9:
        f.save(kIter, Value(f.get(kIter).as_i64() + 1));
        ctx.pc = 1;
        break;
      default:
        CONCERT_UNREACHABLE("em3d driver bad pc");
    }
  }
}

}  // namespace

Ids register_em3d(MethodRegistry& reg, const Params& params, std::size_t nodes) {
  // Frame sizing. A frame counts its slots in 16 bits, so a graph that needs
  // a larger one is rejected here rather than when a spawn runs past it.
  CONCERT_CHECK(kIn + params.degree <= Context::kMaxSlots,
                "em3d degree " << params.degree << " needs compute_pull frames of "
                               << kIn + params.degree << " slots, over the limit of "
                               << Context::kMaxSlots);
  const Plan plan = make_graph(params, nodes);

  // The driver's frame holds the widest spawn wave any driver issues.
  std::vector<std::size_t> e_cnt(nodes, 0), h_cnt(nodes, 0), push_e(nodes, 0), push_h(nodes, 0);
  for (std::size_t id = 0, e = 0; id < params.graph_nodes; ++id) {
    const bool is_e = id < plan.n_e;
    (is_e ? e_cnt : h_cnt)[plan.owner(id)]++;
    for (std::size_t d = 0; d < plan.degree; ++d, ++e) {
      // An edge id<-src makes src push one value (counted at src's owner).
      (is_e ? push_e : push_h)[plan.owner(plan.srcs[e])]++;
    }
  }
  std::size_t max_work = 1;
  for (std::size_t nid = 0; nid < nodes; ++nid) {
    const std::size_t work = std::max({e_cnt[nid], h_cnt[nid], push_e[nid], push_h[nid]});
    CONCERT_CHECK(kWork + work <= Context::kMaxSlots,
                  "em3d driver on node " << nid << " spawns " << work
                                         << " invocations in one phase, over the limit of "
                                         << Context::kMaxSlots - kWork);
    max_work = std::max(max_work, work);
  }

  Ids ids;
  ids.barrier = register_barrier_methods(reg);
  g_arrive = ids.barrier.arrive;

  MethodDecl d;
  d.name = "em3d.get_value";
  d.seq = get_seq;
  d.par = get_par;
  d.wave = get_wave;
  d.frame_slots = 0;
  d.arg_count = 1;
  d.class_id = 1;  // NodeContainer
  d.reads = {"value"};
  ids.get_value = g_get = reg.declare(d);

  d = MethodDecl{};
  d.name = "em3d.recv_value";
  d.seq = recv_seq;
  d.par = recv_par;
  d.wave = recv_wave;
  d.frame_slots = 0;
  d.arg_count = 3;
  d.class_id = 1;
  d.writes = {"inbox"};
  ids.recv_value = g_recv = reg.declare(d);

  d = MethodDecl{};
  d.name = "em3d.combine_node";
  d.seq = combine_seq;
  d.par = combine_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  d.class_id = 1;
  d.reads = {"inbox", "weights"};
  d.writes = {"value"};
  ids.combine_node = g_combine = reg.declare(d);

  d = MethodDecl{};
  d.name = "em3d.compute_pull";
  d.seq = pull_seq;
  d.par = pull_par;
  d.frame_slots = static_cast<std::uint16_t>(kIn + params.degree);
  d.arg_count = 1;
  d.blocks_locally = true;
  d.class_id = 1;
  d.reads = {"srcs", "weights"};
  d.writes = {"value"};
  ids.compute_pull = g_pull = reg.declare(d);
  reg.add_callee(g_pull, g_get);

  d = MethodDecl{};
  d.name = "em3d.fwd_update";
  d.seq = fwd_seq;
  d.par = fwd_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  d.variadic = true;
  d.class_id = 1;
  d.writes = {"inbox"};
  // Termination fact (concert-progress): each hop consumes its own prefix of
  // the consumer list and forwards a strictly shorter remainder; the last
  // prefix replies — a bounded multi-hop update, not a livelock.
  d.bounded_forwarding = true;
  ids.fwd_update = g_fwd = reg.declare(d);
  reg.add_callee(g_fwd, g_fwd, /*forwards=*/true);

  d = MethodDecl{};
  d.name = "em3d.driver";
  d.seq = driver_seq;
  d.par = driver_par;
  d.frame_slots = static_cast<std::uint16_t>(kWork + max_work);
  d.arg_count = 2;
  d.blocks_locally = true;
  d.class_id = 1;  // Its target is the node's own container.
  d.reads = {"value", "my_e", "my_h", "consumers"};
  ids.driver = g_driver = reg.declare(d);
  reg.add_callee(g_driver, g_pull);
  reg.add_callee(g_driver, g_recv);
  reg.add_callee(g_driver, g_combine);
  reg.add_callee(g_driver, g_fwd);
  reg.add_callee(g_driver, g_arrive);

  // concert-race facts. Each half-step is "scatter into inboxes (or pull),
  // arrive, combine" — the scatter↔combine conflicts on inbox/value are
  // ordered by the phase barrier:
  reg.add_barrier_separation(g_driver, g_recv, g_combine);
  reg.add_barrier_separation(g_driver, g_fwd, g_combine);
  reg.add_barrier_separation(g_driver, g_pull, g_combine);
  // Within one wave the remaining conflicts are benign:
  //  * recv/fwd both write disjoint planned inbox slots (one per dependency);
  //  * pull waves write only the active half's values while get reads the
  //    other half (bipartite E/H graph), and each node is pulled once;
  //  * combine targets each node exactly once per wave;
  //  * the drivers' value reads happen while staging the scatter of their own
  //    half — the same wave whose writers (pull never coexists with a scatter
  //    wave; combine is behind the barrier) touch the opposite half.
  reg.add_commutes(g_recv, g_recv);
  reg.add_commutes(g_recv, g_fwd);
  reg.add_commutes(g_fwd, g_fwd);
  reg.add_commutes(g_pull, g_pull);
  reg.add_commutes(g_pull, g_get);
  reg.add_commutes(g_combine, g_combine);
  reg.add_commutes(g_driver, g_pull);
  reg.add_commutes(g_driver, g_combine);

  return ids;
}

World build(Machine& machine, const Ids& ids, const Params& params) {
  (void)ids;
  const std::size_t nodes = machine.node_count();
  const Plan plan = make_graph(params, nodes);
  const std::size_t n = params.graph_nodes;
  const std::size_t deg = plan.degree;
  const auto P = static_cast<std::uint32_t>(nodes);

  World w;
  w.params = params;
  w.owner.resize(n);
  for (std::size_t id = 0; id < n; ++id) w.owner[id] = plan.owner(id);
  w.local_edges = plan.local_edges;
  w.remote_edges = plan.remote_edges;
  w.barrier = make_barrier(machine, 0, static_cast<int>(nodes));

  w.containers.resize(nodes);
  std::vector<NodeContainer*> cs(nodes);
  for (NodeId nid = 0; nid < nodes; ++nid) {
    auto [ref, c] = machine.node(nid).objects().create<NodeContainer>(kContainerType);
    w.containers[nid] = ref;
    cs[nid] = c;
  }

  // Each container's nodes and their in-edges, copied out of the plan in
  // local-index order.
  for (NodeId nid = 0; nid < nodes; ++nid) {
    NodeContainer& c = *cs[nid];
    const Stride all = owned_in(0, static_cast<std::uint32_t>(n), nid, P);
    const Stride e_half = owned_in(0, static_cast<std::uint32_t>(plan.n_e), nid, P);
    c.nodes = OwnedNodes(nid, P, all.count, e_half.count);
    c.degree = static_cast<std::uint32_t>(deg);
    c.barrier = w.barrier;
    c.containers = w.containers;
    c.values.resize(all.count);
    c.srcs.resize(all.count * deg);
    c.weights.resize(all.count * deg);
    c.inbox.assign(all.count * deg, 0.0);
    for (std::uint32_t li = 0; li < all.count; ++li) {
      const std::size_t id = c.nodes.id(li);
      c.values[li] = plan.init[id];
      std::copy_n(plan.srcs.begin() + static_cast<std::ptrdiff_t>(id * deg), deg,
                  c.srcs.begin() + static_cast<std::ptrdiff_t>(li * deg));
      std::copy_n(plan.weights.begin() + static_cast<std::ptrdiff_t>(id * deg), deg,
                  c.weights.begin() + static_cast<std::ptrdiff_t>(li * deg));
    }
  }

  // Consumer lists in CSR. Counting pass: next[src] = consumers of src;
  // prefix pass: next[src] = where src's list starts in its container.
  std::vector<std::uint32_t> next(n, 0);
  for (const std::uint32_t src : plan.srcs) ++next[src];
  for (NodeId nid = 0; nid < nodes; ++nid) {
    NodeContainer& c = *cs[nid];
    c.consumer_begin.resize(std::size_t{c.nodes.size()} + 1);
    std::uint32_t at = 0;
    for (std::uint32_t li = 0; li < c.nodes.size(); ++li) {
      const std::uint32_t count = next[c.nodes.id(li)];
      c.consumer_begin[li] = at;
      next[c.nodes.id(li)] = at;
      at += count;
    }
    c.consumer_begin[c.nodes.size()] = at;
    c.consumers.resize(at);
  }
  // Fill pass, visiting consumers by owner node, then id, then slot: each
  // source's list comes out in the forward-chain order.
  for (NodeId q = 0; q < nodes; ++q) {
    const Stride owned = owned_in(0, static_cast<std::uint32_t>(n), q, P);
    for (std::uint32_t k = 0; k < owned.count; ++k) {
      const std::uint32_t dst = owned.first + k * P;
      for (std::size_t d = 0; d < deg; ++d) {
        const std::uint32_t src = plan.srcs[dst * deg + d];
        cs[plan.owner(src)]->consumers[next[src]++] = Consumer{dst, static_cast<std::uint16_t>(d)};
      }
    }
  }

  for (NodeContainer* c : cs) {
    c->nodes.views.reserve(c->nodes.size());
    for (std::uint32_t li = 0; li < c->nodes.size(); ++li) {
      const std::size_t e = std::size_t{li} * deg;
      c->nodes.views.push_back(GNode{c->values[li], {c->srcs.data() + e, deg},
                                     {c->weights.data() + e, deg}, {c->inbox.data() + e, deg}});
    }
  }
  return w;
}

bool run(Machine& machine, const Ids& ids, World& w, Version version) {
  std::vector<Context*> roots;
  for (const GlobalRef& cref : w.containers) {
    Node& nd = machine.node(cref.node);
    Context& root = nd.alloc_context_raw(kInvalidMethod, 1);
    root.status = ContextStatus::Proxy;
    root.expect(0);
    roots.push_back(&root);
    nd.send(Message::invoke(nd.id(), cref.node, ids.driver, cref,
                            {Value(static_cast<std::int64_t>(version)),
                             Value(std::int64_t{w.params.iters})},
                            {root.ref(), 0, false}));
  }
  machine.run_until_quiescent();
  bool ok = true;
  for (Context* r : roots) {
    ok = ok && r->slot_full(0) && r->get(0).as_i64() == w.params.iters;
    machine.node(r->home).free_context(*r);
  }
  return ok;
}

std::vector<double> extract(Machine& machine, const World& w) {
  std::vector<double> out(w.params.graph_nodes);
  for (const GlobalRef& cref : w.containers) {
    const auto& c = machine.node(cref.node).objects().get<NodeContainer>(cref);
    for (std::uint32_t li = 0; li < c.nodes.size(); ++li) out[c.nodes.id(li)] = c.values[li];
  }
  return out;
}

std::vector<double> reference(const Params& params, std::size_t machine_nodes) {
  const Plan plan = make_graph(params, machine_nodes);
  const std::size_t deg = plan.degree;
  std::vector<double> value = plan.init;
  // E half from H, then H half from the *new* E values.
  const auto half = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t id = lo; id < hi; ++id) {
      double acc = 0.0;
      for (std::size_t e = id * deg; e < (id + 1) * deg; ++e) {
        acc += plan.weights[e] * value[plan.srcs[e]];
      }
      value[id] -= acc;
    }
  };
  for (int it = 0; it < params.iters; ++it) {
    half(0, plan.n_e);
    half(plan.n_e, params.graph_nodes);
  }
  return value;
}

}  // namespace concert::em3d
