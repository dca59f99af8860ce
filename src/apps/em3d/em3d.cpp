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

struct Plan {
  std::vector<NodeId> owner;                 ///< graph id -> machine node.
  std::vector<std::vector<std::uint32_t>> srcs;  ///< per graph node.
  std::vector<std::vector<double>> weights;
  std::vector<double> init;
  std::size_t n_e = 0;
  std::size_t local_edges = 0, remote_edges = 0;
};

Plan make_graph(const Params& p, std::size_t nodes) {
  // Every graph node draws its edges from the opposite half, so each half
  // needs a member. build(), reference() and register_em3d() all start here.
  CONCERT_CHECK(p.graph_nodes >= 2,
                "em3d needs at least 2 graph nodes, got " << p.graph_nodes);
  Plan plan;
  const std::size_t n = p.graph_nodes;
  plan.n_e = n / 2;
  plan.owner.resize(n);
  for (std::size_t id = 0; id < n; ++id) plan.owner[id] = static_cast<NodeId>(id % nodes);

  // Opposite-half candidates per machine node, for local edge selection.
  std::vector<std::vector<std::uint32_t>> e_by_node(nodes), h_by_node(nodes);
  for (std::uint32_t id = 0; id < plan.n_e; ++id) e_by_node[plan.owner[id]].push_back(id);
  for (std::uint32_t id = plan.n_e; id < n; ++id) h_by_node[plan.owner[id]].push_back(id);

  SplitMix64 rng(p.seed);
  plan.srcs.resize(n);
  plan.weights.resize(n);
  plan.init.resize(n);
  for (std::size_t id = 0; id < n; ++id) plan.init[id] = rng.next_double() * 2.0 - 1.0;

  for (std::uint32_t id = 0; id < n; ++id) {
    const bool is_e = id < plan.n_e;
    const auto& local_pool = is_e ? h_by_node[plan.owner[id]] : e_by_node[plan.owner[id]];
    const std::uint32_t lo = is_e ? static_cast<std::uint32_t>(plan.n_e) : 0u;
    const std::uint32_t span = is_e ? static_cast<std::uint32_t>(n - plan.n_e)
                                    : static_cast<std::uint32_t>(plan.n_e);
    for (std::size_t d = 0; d < p.degree; ++d) {
      std::uint32_t src;
      if (!local_pool.empty() && rng.chance(p.local_fraction)) {
        src = local_pool[rng.uniform(local_pool.size())];
      } else {
        src = lo + static_cast<std::uint32_t>(rng.uniform(span));
      }
      plan.srcs[id].push_back(src);
      plan.weights[id].push_back(rng.next_double());
      if (plan.owner[src] == plan.owner[id]) {
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
  *ret = Value(c.nodes.at(static_cast<std::uint32_t>(args[0].as_i64())).value);
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
  GNode& g = c.nodes.at(static_cast<std::uint32_t>(args[0].as_i64()));
  g.inbox.at(static_cast<std::size_t>(args[1].as_i64())) = args[2].as_f64();
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
  GNode& g = c.nodes.at(static_cast<std::uint32_t>(args[0].as_i64()));
  double acc = 0.0;
  for (std::size_t k = 0; k < g.weights.size(); ++k) acc += g.weights[k] * g.inbox[k];
  g.value -= acc;
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
      v[i] = c.nodes.at(static_cast<std::uint32_t>(w.args[base + i][0].as_i64())).value;
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
    auto& c = os.get<NodeContainer>(w.targets[i]);
    GNode& g = c.nodes.at(static_cast<std::uint32_t>(a[0].as_i64()));
    g.inbox.at(static_cast<std::size_t>(a[1].as_i64())) = a[2].as_f64();
  }
  const Value ack(1);
  for (std::size_t i = 0; i < w.count; ++i) nd.reply_to_multi(w.replies[i], &ack, 1);
}

// --- compute_pull: MB -----------------------------------------------------------

Context* pull_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  auto& c = nd.objects().get<NodeContainer>(self);
  GNode& g = c.nodes.at(static_cast<std::uint32_t>(args[0].as_i64()));
  Frame f(nd, g_pull, self, ci, args, nargs);
  double acc = 0.0;
  for (std::size_t d = 0; d < g.srcs.size(); ++d) {
    Value v;
    if (!f.call(g_get, c.owner_container[g.srcs[d]], {Value(std::int64_t{g.srcs[d]})},
                static_cast<SlotId>(kIn + d), &v)) {
      return f.fallback(1, {{kAcc, Value(acc)},
                            {kFrom, Value(static_cast<std::int64_t>(d))},
                            {kSpawnFrom, Value(static_cast<std::int64_t>(d + 1))}});
    }
    acc += g.weights[d] * v.as_f64();
  }
  g.value -= acc;
  *ret = Value(1);
  return nullptr;
}

void pull_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  GNode& g = c.nodes.at(static_cast<std::uint32_t>(ctx.args[0].as_i64()));
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.save(kAcc, Value(0.0));
      f.save(kFrom, Value(std::int64_t{0}));
      f.save(kSpawnFrom, Value(std::int64_t{0}));
      [[fallthrough]];
    case 1: {
      for (std::size_t d = static_cast<std::size_t>(f.get(kSpawnFrom).as_i64());
           d < g.srcs.size(); ++d) {
        f.spawn(g_get, c.owner_container[g.srcs[d]], {Value(std::int64_t{g.srcs[d]})},
                static_cast<SlotId>(kIn + d));
      }
      if (!f.touch(2)) return;
      [[fallthrough]];
    }
    case 2: {
      double acc = f.get(kAcc).as_f64();
      for (std::size_t d = static_cast<std::size_t>(f.get(kFrom).as_i64()); d < g.srcs.size();
           ++d) {
        acc += g.weights[d] * f.get(static_cast<SlotId>(kIn + d)).as_f64();
      }
      g.value -= acc;
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
    if (c.owner_container[dst].node != nd.id()) break;
    GNode& g = c.nodes.at(dst);
    g.inbox.at(static_cast<std::size_t>(args[k + 1].as_i64())) = v;
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
  std::vector<Value> rest;
  rest.reserve(nargs - k + 1);
  rest.push_back(args[0]);
  rest.insert(rest.end(), args + k, args + nargs);
  const GlobalRef next = c.owner_container[static_cast<std::uint32_t>(args[k].as_i64())];
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
  std::vector<Value> rest;
  rest.reserve(ctx.args.size() - k + 1);
  rest.push_back(ctx.args[0]);
  rest.insert(rest.end(), ctx.args.begin() + static_cast<std::ptrdiff_t>(k), ctx.args.end());
  const GlobalRef next = c.owner_container[static_cast<std::uint32_t>(ctx.args[k].as_i64())];
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

void spawn_pushes(Node& nd, ParFrame& f, NodeContainer& c,
                  const std::vector<std::uint32_t>& sources, bool forward_version) {
  SlotId s = kWork;
  for (std::uint32_t src : sources) {
    auto it = c.consumers.find(src);
    if (it == c.consumers.end()) continue;
    const double v = c.nodes.at(src).value;
    if (!forward_version) {
      for (const Consumer& cons : it->second) {
        f.spawn(g_recv, c.owner_container[cons.dst],
                {Value(std::int64_t{cons.dst}), Value(std::int64_t{cons.slot}), Value(v)}, s++);
      }
      continue;
    }
    // forward version: local consumers delivered directly; remote ones as one
    // chain message following the (node-sorted) consumer order.
    std::vector<Value> chain;
    chain.push_back(Value(v));
    for (const Consumer& cons : it->second) {
      if (c.owner_container[cons.dst].node == nd.id()) {
        f.spawn(g_recv, c.owner_container[cons.dst],
                {Value(std::int64_t{cons.dst}), Value(std::int64_t{cons.slot}), Value(v)}, s++);
      } else {
        chain.push_back(Value(std::int64_t{cons.dst}));
        chain.push_back(Value(std::int64_t{cons.slot}));
      }
    }
    if (chain.size() > 1) {
      const GlobalRef first = c.owner_container[static_cast<std::uint32_t>(chain[1].as_i64())];
      f.spawn(g_fwd, first, chain.data(), chain.size(), s++);
    }
  }
}

void driver_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  ParFrame f(nd, ctx);
  const auto version = static_cast<Version>(ctx.args[0].as_i64());
  const std::int64_t iters = ctx.args[1].as_i64();
  const bool pull = version == Version::Pull;
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
          for (std::uint32_t id : c.my_e) f.spawn(g_pull, ctx.self, {Value(std::int64_t{id})}, s++);
        } else {
          spawn_pushes(nd, f, c, c.my_h, version == Version::Forward);
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
          for (std::uint32_t id : c.my_e) {
            f.spawn(g_combine, ctx.self, {Value(std::int64_t{id})}, s++);
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
          for (std::uint32_t id : c.my_h) f.spawn(g_pull, ctx.self, {Value(std::int64_t{id})}, s++);
        } else {
          spawn_pushes(nd, f, c, c.my_e, version == Version::Forward);
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
          for (std::uint32_t id : c.my_h) {
            f.spawn(g_combine, ctx.self, {Value(std::int64_t{id})}, s++);
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
  const Plan plan = make_graph(params, nodes);

  // Frame sizing: the widest spawn wave any driver issues.
  std::vector<std::size_t> e_cnt(nodes, 0), h_cnt(nodes, 0), push_e(nodes, 0), push_h(nodes, 0);
  for (std::uint32_t id = 0; id < params.graph_nodes; ++id) {
    const bool is_e = id < plan.n_e;
    (is_e ? e_cnt : h_cnt)[plan.owner[id]]++;
    for (std::uint32_t src : plan.srcs[id]) {
      // An edge id<-src makes src push one value (counted at src's owner).
      (is_e ? push_e : push_h)[plan.owner[src]]++;
    }
  }
  std::size_t max_work = 1;
  for (std::size_t nid = 0; nid < nodes; ++nid) {
    max_work = std::max({max_work, e_cnt[nid], h_cnt[nid], push_e[nid], push_h[nid]});
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
  d.frame_slots = static_cast<std::uint16_t>(std::min<std::size_t>(kWork + max_work, 0xfff0));
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

  World w;
  w.params = params;
  w.owner = plan.owner;
  w.local_edges = plan.local_edges;
  w.remote_edges = plan.remote_edges;
  w.barrier = make_barrier(machine, 0, static_cast<int>(nodes));

  w.containers.resize(nodes);
  std::vector<NodeContainer*> cs(nodes);
  for (NodeId nid = 0; nid < nodes; ++nid) {
    auto [ref, c] = machine.node(nid).objects().create<NodeContainer>(kContainerType);
    w.containers[nid] = ref;
    cs[nid] = c;
    c->barrier = w.barrier;
  }

  for (std::uint32_t id = 0; id < params.graph_nodes; ++id) {
    NodeContainer& c = *cs[plan.owner[id]];
    GNode g;
    g.value = plan.init[id];
    g.srcs = plan.srcs[id];
    g.weights = plan.weights[id];
    g.inbox.assign(g.srcs.size(), 0.0);
    c.nodes.emplace(id, std::move(g));
    (id < plan.n_e ? c.my_e : c.my_h).push_back(id);
  }
  for (NodeId nid = 0; nid < nodes; ++nid) {
    cs[nid]->owner_container.resize(params.graph_nodes);
    for (std::uint32_t id = 0; id < params.graph_nodes; ++id) {
      cs[nid]->owner_container[id] = w.containers[plan.owner[id]];
    }
  }
  // Consumer lists (sorted by owner node, then id, then slot — the forward
  // chain order).
  for (std::uint32_t id = 0; id < params.graph_nodes; ++id) {
    for (std::size_t d = 0; d < plan.srcs[id].size(); ++d) {
      const std::uint32_t src = plan.srcs[id][d];
      cs[plan.owner[src]]->consumers[src].push_back(
          Consumer{id, static_cast<std::uint16_t>(d)});
    }
  }
  for (NodeId nid = 0; nid < nodes; ++nid) {
    for (auto& [src, list] : cs[nid]->consumers) {
      std::sort(list.begin(), list.end(), [&](const Consumer& a, const Consumer& b) {
        const NodeId na = plan.owner[a.dst], nb = plan.owner[b.dst];
        if (na != nb) return na < nb;
        if (a.dst != b.dst) return a.dst < b.dst;
        return a.slot < b.slot;
      });
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
  for (std::uint32_t id = 0; id < w.params.graph_nodes; ++id) {
    const GlobalRef cref = w.containers[w.owner[id]];
    out[id] = machine.node(cref.node).objects().get<NodeContainer>(cref).nodes.at(id).value;
  }
  return out;
}

std::vector<double> reference(const Params& params, std::size_t machine_nodes) {
  const Plan plan = make_graph(params, machine_nodes);
  std::vector<double> value = plan.init;
  for (int it = 0; it < params.iters; ++it) {
    // E half from H, then H half from the *new* E values.
    for (std::uint32_t id = 0; id < plan.n_e; ++id) {
      double acc = 0.0;
      for (std::size_t d = 0; d < plan.srcs[id].size(); ++d) {
        acc += plan.weights[id][d] * value[plan.srcs[id][d]];
      }
      value[id] -= acc;
    }
    for (std::uint32_t id = static_cast<std::uint32_t>(plan.n_e); id < params.graph_nodes;
         ++id) {
      double acc = 0.0;
      for (std::size_t d = 0; d < plan.srcs[id].size(); ++d) {
        acc += plan.weights[id][d] * value[plan.srcs[id][d]];
      }
      value[id] -= acc;
    }
  }
  return value;
}

}  // namespace concert::em3d
