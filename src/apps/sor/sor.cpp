#include "apps/sor/sor.hpp"

#include <algorithm>

#include "core/invoke.hpp"
#include "core/tree_barrier.hpp"

namespace concert::sor {

double initial_value(std::size_t i, std::size_t j, std::size_t n) {
  (void)j;
  (void)n;
  return i == 0 ? 1.0 : 0.0;  // hot top boundary
}

namespace {

MethodId g_get = kInvalidMethod;
MethodId g_compute = kInvalidMethod;
MethodId g_update = kInvalidMethod;
MethodId g_driver = kInvalidMethod;
MethodId g_arrive = kInvalidMethod;

// compute_cell frame layout.
constexpr SlotId kSum = 0;        // partial neighbor sum before a fallback
constexpr SlotId kFrom = 1;       // first neighbor index living in a slot
constexpr SlotId kSpawnFrom = 2;  // first neighbor still to be spawned
constexpr SlotId kN = 3;          // neighbor values: kN + d, d in [0,4)

// driver frame layout.
constexpr SlotId kIter = 0;
constexpr SlotId kBar = 1;
constexpr SlotId kCells = 2;  // one ack slot per interior cell

// --- get_value: NB ---------------------------------------------------------

Context* get_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value*,
                 std::size_t) {
  *ret = Value(nd.objects().get<Cell>(self).value);
  return nullptr;
}
void get_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(Value(nd.objects().get<Cell>(ctx.self).value));
}

// --- update_cell: NB --------------------------------------------------------

Context* update_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value*,
                    std::size_t) {
  Cell& c = nd.objects().get<Cell>(self);
  c.value = c.next;
  *ret = Value(1);
  return nullptr;
}
void update_par(Node& nd, Context& ctx) {
  Cell& c = nd.objects().get<Cell>(ctx.self);
  c.value = c.next;
  ParFrame f(nd, ctx);
  f.complete(Value(1));
}

// --- compute_cell: MB (neighbors may be remote) ------------------------------

Context* compute_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                     const Value* args, std::size_t nargs) {
  Cell& c = nd.objects().get<Cell>(self);
  Frame f(nd, g_compute, self, ci, args, nargs);
  double sum = 0.0;
  for (int d = 0; d < 4; ++d) {
    Value v;
    if (!f.call(g_get, c.nb[d], {}, static_cast<SlotId>(kN + d), &v)) {
      return f.fallback(1, {{kSum, Value(sum)},
                            {kFrom, Value(std::int64_t{d})},
                            {kSpawnFrom, Value(std::int64_t{d + 1})}});
    }
    sum += v.as_f64();
  }
  c.next = 0.25 * sum;
  *ret = Value(1);
  return nullptr;
}

void compute_par(Node& nd, Context& ctx) {
  Cell& c = nd.objects().get<Cell>(ctx.self);
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.save(kSum, Value(0.0));
      f.save(kFrom, Value(std::int64_t{0}));
      f.save(kSpawnFrom, Value(std::int64_t{0}));
      [[fallthrough]];
    case 1: {
      const std::int64_t from = f.get(kSpawnFrom).as_i64();
      for (std::int64_t d = from; d < 4; ++d) {
        f.spawn(g_get, c.nb[d], {}, static_cast<SlotId>(kN + d));
      }
      if (!f.touch(2)) return;
      [[fallthrough]];
    }
    case 2: {
      double sum = f.get(kSum).as_f64();
      for (std::int64_t d = f.get(kFrom).as_i64(); d < 4; ++d) {
        sum += f.get(static_cast<SlotId>(kN + d)).as_f64();
      }
      c.next = 0.25 * sum;
      f.complete(Value(1));
      return;
    }
    default:
      CONCERT_UNREACHABLE("compute_cell bad pc");
  }
}

// --- sor_driver: per-node iteration engine -----------------------------------

Context* driver_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                    const Value* args, std::size_t nargs) {
  (void)ret;
  // The driver blocks immediately (it synchronizes every half-iteration), so
  // its sequential version transfers straight to the parallel version.
  Frame f(nd, g_driver, self, ci, args, nargs);
  return f.yield_to_parallel(0, {});
}

void driver_par(Node& nd, Context& ctx) {
  const NodeDriver& drv = nd.objects().get<NodeDriver>(ctx.self);
  ParFrame f(nd, ctx);
  const std::int64_t iters = ctx.args[0].as_i64();
  for (;;) {
    switch (ctx.pc) {
      case 0:
        f.save(kIter, Value(std::int64_t{0}));
        ctx.pc = 1;
        break;
      case 1: {  // half-iteration A: compute next values
        if (f.get(kIter).as_i64() >= iters) {
          f.complete(Value(f.get(kIter).as_i64()));
          return;
        }
        SlotId s = kCells;
        for (const GlobalRef& cell : drv.interior_cells) f.spawn(g_compute, cell, {}, s++);
        ctx.pc = 2;
        if (!f.touch(2)) return;
        break;
      }
      case 2:  // all local computes done: meet the others
        f.spawn(drv.arrive, drv.barrier, {}, kBar);
        ctx.pc = 3;
        if (!f.touch(3)) return;
        break;
      case 3: {  // half-iteration B: commit
        SlotId s = kCells;
        for (const GlobalRef& cell : drv.interior_cells) f.spawn(g_update, cell, {}, s++);
        ctx.pc = 4;
        if (!f.touch(4)) return;
        break;
      }
      case 4:
        f.spawn(drv.arrive, drv.barrier, {}, kBar);
        ctx.pc = 5;
        if (!f.touch(5)) return;
        break;
      case 5:
        f.save(kIter, Value(f.get(kIter).as_i64() + 1));
        ctx.pc = 1;
        break;
      default:
        CONCERT_UNREACHABLE("sor_driver bad pc");
    }
  }
}

/// The driver's frame: kCells plus one ack slot per interior cell of the node
/// that owns the most. A frame counts its slots in 16 bits, so a grid that
/// needs a larger one is rejected here rather than when a spawn runs past it.
std::uint16_t driver_frame_slots(const Params& p) {
  const BlockCyclic2D layout = p.layout();
  std::vector<std::size_t> count(p.nodes(), 0);
  for (std::size_t i = 1; i + 1 < p.n; ++i) {
    for (std::size_t j = 1; j + 1 < p.n; ++j) ++count[layout.owner(i, j)];
  }
  for (std::size_t nid = 0; nid < count.size(); ++nid) {
    CONCERT_CHECK(kCells + count[nid] <= Context::kMaxSlots,
                  "sor driver on node " << nid << " spawns " << count[nid]
                                        << " invocations in one phase, over the limit of "
                                        << Context::kMaxSlots - kCells);
  }
  return static_cast<std::uint16_t>(kCells + *std::max_element(count.begin(), count.end()));
}

}  // namespace

Ids register_sor(MethodRegistry& reg, const Params& params) {
  const std::uint16_t driver_slots = driver_frame_slots(params);
  Ids ids;
  ids.barrier = register_barrier_methods(reg);
  ids.tree = register_tree_barrier_methods(reg);
  g_arrive = params.tree_barrier ? ids.tree.arrive : ids.barrier.arrive;

  MethodDecl d;
  d.name = "sor.get_value";
  d.seq = get_seq;
  d.par = get_par;
  d.frame_slots = 0;
  d.arg_count = 0;
  d.class_id = 1;  // Cell
  d.reads = {"value"};
  ids.get_value = g_get = reg.declare(d);

  d = MethodDecl{};
  d.name = "sor.update_cell";
  d.seq = update_seq;
  d.par = update_par;
  d.frame_slots = 0;
  d.arg_count = 0;
  d.class_id = 1;  // Cell
  d.reads = {"next"};
  d.writes = {"value"};
  ids.update_cell = g_update = reg.declare(d);

  d = MethodDecl{};
  d.name = "sor.compute_cell";
  d.seq = compute_seq;
  d.par = compute_par;
  d.frame_slots = kN + 4;
  d.arg_count = 0;
  d.blocks_locally = true;  // stencil reads may target remote cells
  d.class_id = 1;           // Cell
  d.reads = {"nb"};
  d.writes = {"next"};
  ids.compute_cell = g_compute = reg.declare(d);
  reg.add_callee(g_compute, g_get);

  d = MethodDecl{};
  d.name = "sor.driver";
  d.seq = driver_seq;
  d.par = driver_par;
  d.frame_slots = driver_slots;
  d.arg_count = 1;
  d.blocks_locally = true;
  d.class_id = 2;  // Driver (one per node; reads its cell list only)
  d.reads = {"interior"};
  ids.driver = g_driver = reg.declare(d);
  reg.add_callee(g_driver, g_compute);
  reg.add_callee(g_driver, g_update);
  reg.add_callee(g_driver, ids.barrier.arrive);
  reg.add_callee(g_driver, ids.tree.arrive);

  // concert-race facts. The red/black value↔next conflicts (get/compute vs
  // update) are ordered by the driver's phase barrier; within one wave each
  // cell is spawned exactly once, so same-method pairs target distinct cells.
  reg.add_barrier_separation(g_driver, g_compute, g_update);
  reg.add_commutes(g_compute, g_compute);
  reg.add_commutes(g_update, g_update);

  return ids;
}

World build(Machine& machine, const Ids& ids, const Params& params) {
  CONCERT_CHECK(machine.node_count() == params.nodes(),
                "machine has " << machine.node_count() << " nodes, params want "
                               << params.nodes());
  (void)ids;
  World w;
  w.params = params;
  const std::size_t n = params.n;
  const BlockCyclic2D layout = params.layout();

  // Cells, owner-placed; the directory is the (charged) name-translation map.
  w.cells.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Node& owner = machine.node(layout.owner(i, j));
      auto [ref, cell] = owner.objects().create<Cell>(kCellType);
      cell->value = initial_value(i, j, n);
      cell->interior = i > 0 && j > 0 && i + 1 < n && j + 1 < n;
      w.cells[i * n + j] = ref;
    }
  }
  // Neighbor wiring: N, S, W, E.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const GlobalRef ref = w.cells[i * n + j];
      Cell& cell = machine.node(ref.node).objects().get<Cell>(ref);
      cell.nb[0] = i > 0 ? w.cells[(i - 1) * n + j] : kNoObject;
      cell.nb[1] = i + 1 < n ? w.cells[(i + 1) * n + j] : kNoObject;
      cell.nb[2] = j > 0 ? w.cells[i * n + j - 1] : kNoObject;
      cell.nb[3] = j + 1 < n ? w.cells[i * n + j + 1] : kNoObject;
    }
  }

  std::vector<GlobalRef> tree;
  if (params.tree_barrier) {
    tree = make_tree_barrier(machine, /*arrivals_per_node=*/1, /*fanout=*/2);
    w.barrier = tree[0];
  } else {
    w.barrier = make_barrier(machine, 0, static_cast<int>(params.nodes()));
  }

  for (NodeId nid = 0; nid < params.nodes(); ++nid) {
    auto [dref, drv] = machine.node(nid).objects().create<NodeDriver>(kDriverType);
    drv->barrier = params.tree_barrier ? tree[nid] : w.barrier;
    drv->arrive = params.tree_barrier ? ids.tree.arrive : ids.barrier.arrive;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) {
        if (layout.owner(i, j) == nid) drv->interior_cells.push_back(w.cells[i * n + j]);
      }
    }
    w.drivers.push_back(dref);
  }
  return w;
}

bool run(Machine& machine, const Ids& ids, World& w) {
  std::vector<Context*> roots;
  for (const GlobalRef& dref : w.drivers) {
    Node& nd = machine.node(dref.node);
    Context& root = nd.alloc_context_raw(kInvalidMethod, 1);
    root.status = ContextStatus::Proxy;
    root.expect(0);
    roots.push_back(&root);
    nd.send(Message::invoke(nd.id(), dref.node, ids.driver, dref,
                            {Value(std::int64_t{w.params.iters})}, {root.ref(), 0, false}));
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
  std::vector<double> grid(w.params.n * w.params.n);
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const GlobalRef ref = w.cells[k];
    grid[k] = machine.node(ref.node).objects().get<Cell>(ref).value;
  }
  return grid;
}

std::vector<double> reference(const Params& params) {
  const std::size_t n = params.n;
  std::vector<double> grid(n * n), next(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) grid[i * n + j] = initial_value(i, j, n);
  }
  next = grid;
  for (int it = 0; it < params.iters; ++it) {
    for (std::size_t i = 1; i + 1 < n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) {
        // Same summation order as compute_cell: N, S, W, E.
        const double sum = grid[(i - 1) * n + j] + grid[(i + 1) * n + j] +
                           grid[i * n + j - 1] + grid[i * n + j + 1];
        next[i * n + j] = 0.25 * sum;
      }
    }
    grid = next;
  }
  return grid;
}

}  // namespace concert::sor
