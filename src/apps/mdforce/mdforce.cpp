#include "apps/mdforce/mdforce.hpp"

#include <algorithm>
#include <cmath>

#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "support/rng.hpp"

namespace concert::md {

namespace {

MethodId g_cache = kInvalidMethod;
MethodId g_get_coord = kInvalidMethod;
MethodId g_fetch_coords = kInvalidMethod;
bool g_batched_fetch = false;
MethodId g_add_force = kInvalidMethod;
MethodId g_pair = kInvalidMethod;
MethodId g_driver = kInvalidMethod;
MethodId g_arrive = kInvalidMethod;

// pair_force frame layout (cache-miss fetch of the three coordinates).
constexpr SlotId kSpawnFrom = 0;
constexpr SlotId kC = 1;  // kC + dim, dim in [0,3)

// driver frame layout.
constexpr SlotId kBar = 0;
constexpr SlotId kWork = 1;

double coord_dim(const Vec3& v, std::int64_t dim) {
  return dim == 0 ? v.x : dim == 1 ? v.y : v.z;
}

/// Lennard-Jones force (epsilon = sigma = 1) of j on i along d = pi - pj.
Vec3 lj_force(const Vec3& pi, const Vec3& pj, double cutoff2) {
  const double dx = pi.x - pj.x, dy = pi.y - pj.y, dz = pi.z - pj.z;
  const double r2 = dx * dx + dy * dy + dz * dz;
  if (r2 >= cutoff2 || r2 <= 0.0) return {};
  const double inv2 = 1.0 / r2;
  const double s6 = inv2 * inv2 * inv2;
  const double coef = 24.0 * inv2 * s6 * (2.0 * s6 - 1.0);
  return {coef * dx, coef * dy, coef * dz};
}

// --- the shared world plan (positions, owners, pairs, pushes) ---------------

struct Plan {
  std::vector<Vec3> pos;
  std::vector<NodeId> owner;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> pairs;  // per node
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> pushes;        // per node
  std::vector<std::size_t> needed_in;  // per node: distinct remote coords required
  std::size_t total_pairs = 0;
  std::size_t cross_pairs = 0;
};

Plan make_plan(const Params& p, std::size_t nodes) {
  Plan plan;
  plan.pos = make_positions(p);
  const std::size_t n = p.atoms;

  // Layout.
  if (p.spatial) {
    std::vector<Point3> pts(n);
    for (std::size_t i = 0; i < n; ++i) pts[i] = {plan.pos[i].x, plan.pos[i].y, plan.pos[i].z};
    plan.owner = orb_owners(pts, nodes);
  } else {
    plan.owner = dist::random_owners(n, nodes, p.seed ^ 0xd15717u);
  }

  // Cutoff pairs via a cell list.
  const double box = std::cbrt(static_cast<double>(n) / p.density);
  const double rc2 = p.cutoff * p.cutoff;
  const std::size_t m = std::max<std::size_t>(1, static_cast<std::size_t>(box / p.cutoff));
  const double cell = box / static_cast<double>(m);
  std::vector<std::vector<std::uint32_t>> bins(m * m * m);
  auto bin_of = [&](const Vec3& v) {
    auto clamp = [&](double c) {
      return std::min(m - 1, static_cast<std::size_t>(std::max(0.0, c / cell)));
    };
    return (clamp(v.x) * m + clamp(v.y)) * m + clamp(v.z);
  };
  for (std::uint32_t i = 0; i < n; ++i) bins[bin_of(plan.pos[i])].push_back(i);

  plan.pairs.resize(nodes);
  plan.pushes.resize(nodes);
  plan.needed_in.assign(nodes, 0);
  // Duplicate (many pairs share a remote atom) push/need records accumulate in
  // flat vectors and are sorted+uniqued once per node below — one allocation
  // arc per node instead of one red-black node per insert, and the sorted
  // result matches the std::set iteration order this used to produce.
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> push_acc(nodes);
  std::vector<std::vector<std::uint32_t>> need_acc(nodes);

  auto consider = [&](std::uint32_t i, std::uint32_t j) {
    if (i >= j) return;
    const Vec3 &a = plan.pos[i], &b = plan.pos[j];
    const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
    if (dx * dx + dy * dy + dz * dz >= rc2) return;
    const NodeId oi = plan.owner[i], oj = plan.owner[j];
    plan.pairs[oi].emplace_back(i, j);  // owner of i computes
    ++plan.total_pairs;
    if (oi != oj) {
      ++plan.cross_pairs;
      push_acc[oj].emplace_back(oi, j);  // j's owner ships j's coords to i's owner
      need_acc[oi].push_back(j);
    }
  };

  for (std::size_t cx = 0; cx < m; ++cx) {
    for (std::size_t cy = 0; cy < m; ++cy) {
      for (std::size_t cz = 0; cz < m; ++cz) {
        const auto& mine = bins[(cx * m + cy) * m + cz];
        for (std::size_t dx = 0; dx < 2; ++dx) {
          for (std::size_t dy = 0; dy < (dx == 0 ? 2u : 3u); ++dy) {
            for (std::size_t dz = 0; dz < ((dx == 0 && dy == 0) ? 2u : 3u); ++dz) {
              // Half-shell neighbor enumeration (avoids double visits).
              const std::size_t nx = cx + dx, ny = cy + dy - (dx == 0 ? 0 : 1),
                                nz = cz + dz - ((dx == 0 && dy == 0) ? 0 : 1);
              if (nx >= m || ny >= m || nz >= m) continue;
              const auto& other = bins[(nx * m + ny) * m + nz];
              for (std::uint32_t i : mine) {
                for (std::uint32_t j : other) {
                  if (&mine == &other && j <= i) continue;
                  consider(std::min(i, j), std::max(i, j));
                }
              }
            }
          }
        }
      }
    }
  }

  for (std::size_t nid = 0; nid < nodes; ++nid) {
    auto& pushes = push_acc[nid];
    std::sort(pushes.begin(), pushes.end());
    pushes.erase(std::unique(pushes.begin(), pushes.end()), pushes.end());
    plan.pushes[nid] = std::move(pushes);
    auto& needs = need_acc[nid];
    std::sort(needs.begin(), needs.end());
    needs.erase(std::unique(needs.begin(), needs.end()), needs.end());
    plan.needed_in[nid] = needs.size();
    // Partial caching (ablation knob): drop the tail of the push plan.
    if (p.cache_fraction < 1.0) {
      const auto keep = static_cast<std::size_t>(
          static_cast<double>(plan.pushes[nid].size()) * p.cache_fraction);
      plan.pushes[nid].resize(keep);
    }
  }
  return plan;
}

// --- NB methods --------------------------------------------------------------

Context* cache_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                   std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  c.cache[static_cast<std::uint32_t>(args[0].as_i64())] =
      Vec3{args[1].as_f64(), args[2].as_f64(), args[3].as_f64()};
  *ret = Value(1);
  return nullptr;
}
void cache_par(Node& nd, Context& ctx) {
  Value v;
  cache_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

Context* get_coord_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self,
                       const Value* args, std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  *ret = Value(coord_dim(c.atoms.at(static_cast<std::uint32_t>(args[0].as_i64())).pos,
                         args[1].as_i64()));
  return nullptr;
}

/// Multi-return variant: all three coordinates in one invocation/reply.
Context* fetch_coords_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self,
                          const Value* args, std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  const Vec3& p = c.atoms.at(static_cast<std::uint32_t>(args[0].as_i64())).pos;
  ret[0] = Value(p.x);
  ret[1] = Value(p.y);
  ret[2] = Value(p.z);
  return nullptr;
}
void fetch_coords_par(Node& nd, Context& ctx) {
  Value v[3];
  fetch_coords_seq(nd, v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete_multi(v, 3);
}
void get_coord_par(Node& nd, Context& ctx) {
  Value v;
  get_coord_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

Context* add_force_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self,
                       const Value* args, std::size_t) {
  auto& c = nd.objects().get<NodeContainer>(self);
  Atom& a = c.atoms.at(static_cast<std::uint32_t>(args[0].as_i64()));
  a.force.x += args[1].as_f64();
  a.force.y += args[2].as_f64();
  a.force.z += args[3].as_f64();
  *ret = Value(1);
  return nullptr;
}
void add_force_par(Node& nd, Context& ctx) {
  Value v;
  add_force_seq(nd, &v, CallerInfo::none(), ctx.self, ctx.args.data(), ctx.args.size());
  ParFrame(nd, ctx).complete(v);
}

// --- pair_force: MB -----------------------------------------------------------

void apply_pair(Node& nd, NodeContainer& c, std::uint32_t i, std::uint32_t j, const Vec3& pj,
                double cutoff2) {
  Atom& ai = c.atoms.at(i);
  const Vec3 f = lj_force(ai.pos, pj, cutoff2);
  ai.force.x += f.x;
  ai.force.y += f.y;
  ai.force.z += f.z;
  auto it = c.atoms.find(j);
  if (it != c.atoms.end()) {
    it->second.force.x -= f.x;
    it->second.force.y -= f.y;
    it->second.force.z -= f.z;
  } else {
    // Remote atom: combine the increment locally; flushed once per iteration.
    nd.charge(3);
    std::uint32_t& slot = c.combine_slot.at(j);
    if (slot == 0) {
      c.combine.emplace_back(j, Vec3{});
      slot = static_cast<std::uint32_t>(c.combine.size());
    }
    Vec3& acc = c.combine[slot - 1].second;
    acc.x -= f.x;
    acc.y -= f.y;
    acc.z -= f.z;
  }
}

// cutoff² is compiled into the program at registration time.
double g_cutoff2 = 0.0;

Context* pair_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  auto& c = nd.objects().get<NodeContainer>(self);
  const auto i = static_cast<std::uint32_t>(args[0].as_i64());
  const auto j = static_cast<std::uint32_t>(args[1].as_i64());

  Vec3 pj;
  auto local = c.atoms.find(j);
  if (local != c.atoms.end()) {
    pj = local->second.pos;
  } else {
    nd.charge(2);  // cache lookup
    auto hit = c.cache.find(j);
    if (hit != c.cache.end()) {
      pj = hit->second;
    } else {
      // Cache miss: fetch the three coordinates from j's owner, then retry.
      Frame f(nd, g_pair, self, ci, args, nargs);
      const GlobalRef owner = c.owner_container.at(j);
      Value v[3];
      if (g_batched_fetch) {
        // One 3-value fetch (multiple-return-values extension).
        if (!f.call(g_fetch_coords, owner, {args[1]}, kC, v)) {
          return f.fallback(1, {{kSpawnFrom, Value(std::int64_t{3})}});
        }
        pj = Vec3{v[0].as_f64(), v[1].as_f64(), v[2].as_f64()};
        c.cache[j] = pj;
        apply_pair(nd, c, i, j, pj, g_cutoff2);
        *ret = Value(1);
        return nullptr;
      }
      for (std::int64_t dim = 0; dim < 3; ++dim) {
        if (!f.call(g_get_coord, owner, {args[1], Value(dim)}, static_cast<SlotId>(kC + dim),
                    &v[dim])) {
          switch (dim) {
            case 0: return f.fallback(1, {{kSpawnFrom, Value(std::int64_t{1})}});
            case 1:
              return f.fallback(1, {{kSpawnFrom, Value(std::int64_t{2})}, {kC, v[0]}});
            default:
              return f.fallback(
                  1, {{kSpawnFrom, Value(std::int64_t{3})}, {kC, v[0]}, {kC + 1, v[1]}});
          }
        }
      }
      pj = Vec3{v[0].as_f64(), v[1].as_f64(), v[2].as_f64()};
      c.cache[j] = pj;  // later pairs against j hit the cache
    }
  }
  apply_pair(nd, c, i, j, pj, g_cutoff2);
  *ret = Value(1);
  return nullptr;
}

void pair_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  const auto i = static_cast<std::uint32_t>(ctx.args[0].as_i64());
  const auto j = static_cast<std::uint32_t>(ctx.args[1].as_i64());
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0: {
      Vec3 pj;
      auto local = c.atoms.find(j);
      if (local != c.atoms.end()) {
        pj = local->second.pos;
      } else {
        nd.charge(2);
        auto hit = c.cache.find(j);
        if (hit == c.cache.end()) {
          f.save(kSpawnFrom, Value(std::int64_t{0}));
          ctx.pc = 1;
          break;  // to the fetch phase
        }
        pj = hit->second;
      }
      apply_pair(nd, c, i, j, pj, g_cutoff2);
      f.complete(Value(1));
      return;
    }
    default:
      break;
  }
  switch (ctx.pc) {
    case 1: {
      const GlobalRef owner = c.owner_container.at(j);
      if (g_batched_fetch) {
        if (f.get(kSpawnFrom).as_i64() == 0) f.spawn(g_fetch_coords, owner, {ctx.args[1]}, kC);
      } else {
        for (std::int64_t dim = f.get(kSpawnFrom).as_i64(); dim < 3; ++dim) {
          f.spawn(g_get_coord, owner, {ctx.args[1], Value(dim)},
                  static_cast<SlotId>(kC + dim));
        }
      }
      if (!f.touch(2)) return;
      [[fallthrough]];
    }
    case 2: {
      const Vec3 pj{f.get(kC).as_f64(), f.get(kC + 1).as_f64(), f.get(kC + 2).as_f64()};
      c.cache[j] = pj;
      apply_pair(nd, c, i, j, pj, g_cutoff2);
      f.complete(Value(1));
      return;
    }
    default:
      CONCERT_UNREACHABLE("pair_force bad pc");
  }
}

// --- driver -------------------------------------------------------------------

Context* driver_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                    const Value* args, std::size_t nargs) {
  (void)ret;
  Frame f(nd, g_driver, self, ci, args, nargs);
  return f.yield_to_parallel(0, {});
}

void driver_par(Node& nd, Context& ctx) {
  auto& c = nd.objects().get<NodeContainer>(ctx.self);
  ParFrame f(nd, ctx);
  for (;;) {
    switch (ctx.pc) {
      case 0: {  // coordinate exchange: push everything the plan says to ship
        // Pushes are *reactive* (no reply wanted): the phase barrier provides
        // the bulk synchronization, and a straggler that arrives late is
        // absorbed by pair_force's cache-miss fetch path.
        for (const auto& [dst, id] : c.pushes) {
          const Vec3& p = c.atoms.at(id).pos;
          const Value args[4] = {Value(std::int64_t{id}), Value(p.x), Value(p.y), Value(p.z)};
          invoke_with_continuation(nd, g_cache, dst, args, 4, kNoContinuation);
        }
        ctx.pc = 1;
        if (!f.touch(1)) return;
        break;
      }
      case 1:
        f.spawn(g_arrive, c.barrier, {}, kBar);
        ctx.pc = 2;
        if (!f.touch(2)) return;
        break;
      case 2: {  // force phase: one invocation per pair
        SlotId s = kWork;
        for (const auto& [i, j] : c.pairs) {
          f.spawn(g_pair, ctx.self, {Value(std::int64_t{i}), Value(std::int64_t{j})}, s++);
        }
        ctx.pc = 3;
        if (!f.touch(3)) return;
        break;
      }
      case 3: {  // flush combined remote-force increments (reactive too:
                 // quiescence of the single measured iteration drains them)
        for (const auto& [id, acc] : c.combine) {
          const Value args[4] = {Value(std::int64_t{id}), Value(acc.x), Value(acc.y),
                                 Value(acc.z)};
          invoke_with_continuation(nd, g_add_force, c.owner_container.at(id), args, 4,
                                   kNoContinuation);
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
      case 5:
        // Retire the step: zero only the touched slot-directory entries and
        // keep combine's capacity — the next iteration reuses both.
        for (const auto& [id, acc] : c.combine) c.combine_slot[id] = 0;
        c.combine.clear();
        f.complete(Value(1));
        return;
      default:
        CONCERT_UNREACHABLE("md_driver bad pc");
    }
  }
}

}  // namespace

std::vector<Vec3> make_positions(const Params& p) {
  // Perturbed lattice: well-separated (no LJ blow-ups), deterministic.
  const std::size_t n = p.atoms;
  const double box = std::cbrt(static_cast<double>(n) / p.density);
  const auto side = static_cast<std::size_t>(std::ceil(std::cbrt(static_cast<double>(n))));
  const double a = box / static_cast<double>(side);
  SplitMix64 rng(p.seed);
  std::vector<Vec3> pos(n);
  std::size_t k = 0;
  for (std::size_t x = 0; x < side && k < n; ++x) {
    for (std::size_t y = 0; y < side && k < n; ++y) {
      for (std::size_t z = 0; z < side && k < n; ++z) {
        pos[k++] = Vec3{(static_cast<double>(x) + 0.5 + 0.2 * (rng.next_double() - 0.5)) * a,
                        (static_cast<double>(y) + 0.5 + 0.2 * (rng.next_double() - 0.5)) * a,
                        (static_cast<double>(z) + 0.5 + 0.2 * (rng.next_double() - 0.5)) * a};
      }
    }
  }
  return pos;
}

Ids register_md(MethodRegistry& reg, const Params& params, std::size_t nodes) {
  const Plan plan = make_plan(params, nodes);
  g_cutoff2 = params.cutoff * params.cutoff;

  // The driver's frame holds the widest spawn wave any driver issues. A
  // frame counts its slots in 16 bits, so a plan that needs a larger one is
  // rejected here rather than when a spawn runs past it.
  std::size_t max_work = 1;
  for (std::size_t nid = 0; nid < nodes; ++nid) {
    const std::size_t work =
        std::max({plan.pushes[nid].size(), plan.pairs[nid].size(), plan.needed_in[nid]});
    CONCERT_CHECK(kWork + work <= Context::kMaxSlots,
                  "md driver on node " << nid << " spawns " << work
                                       << " invocations in one phase, over the limit of "
                                       << Context::kMaxSlots - kWork);
    max_work = std::max(max_work, work);
  }

  Ids ids;
  ids.barrier = register_barrier_methods(reg);
  g_arrive = ids.barrier.arrive;

  MethodDecl d;
  d.name = "md.cache_coords";
  d.seq = cache_seq;
  d.par = cache_par;
  d.frame_slots = 0;
  d.arg_count = 4;
  d.class_id = 1;  // Container
  d.writes = {"cache"};
  ids.cache_coords = g_cache = reg.declare(d);

  d = MethodDecl{};
  d.name = "md.get_coord";
  d.seq = get_coord_seq;
  d.par = get_coord_par;
  d.frame_slots = 0;
  d.arg_count = 2;
  d.class_id = 1;
  d.reads = {"pos"};
  ids.get_coord = g_get_coord = reg.declare(d);

  d = MethodDecl{};
  d.name = "md.fetch_coords";
  d.seq = fetch_coords_seq;
  d.par = fetch_coords_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  d.multi_return = 3;
  d.class_id = 1;
  d.reads = {"pos"};
  ids.fetch_coords = g_fetch_coords = reg.declare(d);
  g_batched_fetch = params.batched_fetch;

  d = MethodDecl{};
  d.name = "md.add_force";
  d.seq = add_force_seq;
  d.par = add_force_par;
  d.frame_slots = 0;
  d.arg_count = 4;
  d.class_id = 1;
  d.writes = {"force"};
  ids.add_force = g_add_force = reg.declare(d);

  d = MethodDecl{};
  d.name = "md.pair_force";
  d.seq = pair_seq;
  d.par = pair_par;
  d.frame_slots = kC + 3;
  d.arg_count = 2;
  d.blocks_locally = true;  // cache misses fetch remote coordinates
  d.class_id = 1;
  d.reads = {"pos", "cache"};
  d.writes = {"force", "combine", "cache"};
  ids.pair_force = g_pair = reg.declare(d);
  reg.add_callee(g_pair, g_get_coord);
  reg.add_callee(g_pair, g_fetch_coords);

  d = MethodDecl{};
  d.name = "md.driver";
  d.seq = driver_seq;
  d.par = driver_par;
  d.frame_slots = static_cast<std::uint16_t>(kWork + max_work);
  d.arg_count = 0;
  d.blocks_locally = true;
  d.class_id = 1;  // Its target is the node's own container.
  d.reads = {"pos", "pushes", "pairs"};
  d.writes = {"combine"};
  ids.driver = g_driver = reg.declare(d);
  reg.add_callee(g_driver, g_cache);
  reg.add_callee(g_driver, g_pair);
  reg.add_callee(g_driver, g_add_force);
  reg.add_callee(g_driver, g_arrive);

  // concert-race facts. MD-Force deliberately has NO barrier_separated claim:
  // coordinate pushes are reactive (no reply) and may straggle past the phase
  // barrier by design — pair_force's cache-miss path re-fetches authoritative
  // coordinates, so cache staleness is absorbed, not ordered away. Every
  // conflicting pair is annotated commutative instead:
  //  * cache pushes write disjoint planned slots (and are idempotent per
  //    step: the pushed coordinate equals what a miss would fetch);
  //  * force updates — local accumulation in pair_force and remote add_force
  //    flushes alike — are pure `+=` increments, the showcase commutative
  //    effect; combine-buffer accumulation is the same shape;
  //  * the driver clears its own combine buffer only after the post-flush
  //    barrier retired every pair wave and add_force of the generation, and
  //    drivers are replicated one per node, each touching its own container.
  reg.add_commutes(g_cache, g_cache);
  reg.add_commutes(g_cache, g_pair);
  reg.add_commutes(g_add_force, g_add_force);
  reg.add_commutes(g_add_force, g_pair);
  reg.add_commutes(g_pair, g_pair);
  reg.add_commutes(g_driver, g_pair);
  reg.add_commutes(g_driver, g_driver);

  return ids;
}

World build(Machine& machine, const Ids& ids, const Params& params) {
  (void)ids;
  const std::size_t nodes = machine.node_count();
  const Plan plan = make_plan(params, nodes);

  World w;
  w.params = params;
  w.owner = plan.owner;
  w.total_pairs = plan.total_pairs;
  w.cross_pairs = plan.cross_pairs;
  w.barrier = make_barrier(machine, 0, static_cast<int>(nodes));

  w.containers.resize(nodes);
  w.root_scratch.reserve(nodes);
  std::vector<NodeContainer*> cs(nodes);
  for (NodeId nid = 0; nid < nodes; ++nid) {
    auto [ref, c] = machine.node(nid).objects().create<NodeContainer>(kContainerType);
    w.containers[nid] = ref;
    cs[nid] = c;
  }
  for (std::uint32_t i = 0; i < params.atoms; ++i) {
    cs[plan.owner[i]]->atoms[i] = Atom{plan.pos[i], Vec3{}};
  }
  for (NodeId nid = 0; nid < nodes; ++nid) {
    NodeContainer& c = *cs[nid];
    c.barrier = w.barrier;
    c.combine_slot.assign(params.atoms, 0);
    c.pairs = plan.pairs[nid];
    c.owner_container.resize(params.atoms);
    for (std::uint32_t i = 0; i < params.atoms; ++i) {
      c.owner_container[i] = w.containers[plan.owner[i]];
    }
    for (const auto& [dst_node, id] : plan.pushes[nid]) {
      c.pushes.emplace_back(w.containers[dst_node], id);
    }
  }
  return w;
}

bool run(Machine& machine, const Ids& ids, World& w) {
  std::vector<Context*>& roots = w.root_scratch;  // reserved in build()
  roots.clear();
  for (const GlobalRef& cref : w.containers) {
    Node& nd = machine.node(cref.node);
    Context& root = nd.alloc_context_raw(kInvalidMethod, 1);
    root.status = ContextStatus::Proxy;
    root.expect(0);
    roots.push_back(&root);
    nd.send(Message::invoke(nd.id(), cref.node, ids.driver, cref, {}, {root.ref(), 0, false}));
  }
  machine.run_until_quiescent();
  bool ok = true;
  for (Context* r : roots) {
    ok = ok && r->slot_full(0);
    machine.node(r->home).free_context(*r);
  }
  return ok;
}

std::vector<Vec3> extract_forces(Machine& machine, const World& w) {
  std::vector<Vec3> out(w.params.atoms);
  for (std::uint32_t i = 0; i < w.params.atoms; ++i) {
    const GlobalRef cref = w.containers[w.owner[i]];
    out[i] = machine.node(cref.node).objects().get<NodeContainer>(cref).atoms.at(i).force;
  }
  return out;
}

std::vector<Vec3> reference(const Params& params) {
  const auto pos = make_positions(params);
  const double rc2 = params.cutoff * params.cutoff;
  std::vector<Vec3> force(pos.size());
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    for (std::uint32_t j = i + 1; j < pos.size(); ++j) {
      const Vec3 f = lj_force(pos[i], pos[j], rc2);
      force[i].x += f.x;
      force[i].y += f.y;
      force[i].z += f.z;
      force[j].x -= f.x;
      force[j].y -= f.y;
      force[j].z -= f.z;
    }
  }
  return force;
}

}  // namespace concert::md
