// Wall-clock throughput suite for the threaded engine (the "real time" half
// of DESIGN §3): SOR, EM3D and MD-Force plus a message-ping microbench, each
// reported as invocations/sec and messages/sec with warmup and repetitions.
//
// Unlike the table benches (which report *simulated* seconds under a machine
// cost model), this suite measures what the runtime itself costs on the host:
// inbox handoff, dispatch, name translation, scheduling. It is the perf
// trajectory for hot-path work — results are written to BENCH_wallclock.json
// so successive PRs can compare like against like.
//
//   wallclock_suite [--smoke] [--reps N] [--json PATH] [--metrics] [--trace]
//                   [--sites] [--postmortem-demo]
//
// --smoke shrinks every workload to a few hundred milliseconds total (the CI
// configuration); --json chooses the output path (default
// BENCH_wallclock.json in the working directory). --metrics runs every kernel
// with MachineConfig::metrics on and adds per-kernel invocation-latency
// p50/p99 to the table and the JSON. --trace runs one extra traced SOR
// iteration and writes TRACE_sor.ctrc (binary), TRACE_sor.json (Perfetto),
// CRITPATH_sor.json (concert-insight critical path; its bucket fractions
// also land in BENCH_wallclock.json as "critpath"), and — with --metrics —
// METRICS_sor.json / METRICS_sor.prom. --sites runs one extra SOR iteration
// with per-call-site profiling and writes SITES_sor.json.
// --postmortem-demo deliberately stalls a small run (a phantom work credit
// the watchdog then reports) and leaves POSTMORTEM_demo.json behind — the CI
// artifact exercising the postmortem dump end to end.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/mdforce/mdforce.hpp"
#include "apps/sor/sor.hpp"
#include "bench_util.hpp"
#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "machine/critpath.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "machine/trace.hpp"
#include "objects/migration.hpp"
#include "support/metrics.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation probe: link-time replacement of global operator new/delete
// for THIS binary only, counting every allocation with one relaxed atomic
// increment. The per-workload delta divided by invocations is the
// `allocs_per_invocation` column — the number the arena/pool layers exist to
// drive toward zero.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace concert {
namespace {

// ---------------------------------------------------------------------------
// Message-ping microbench: a ring of one object per node; each hop forwards
// the continuation to the next node's object, so every hop is exactly one
// invoke message plus one wrapper execution — the purest per-message
// software-overhead probe we have. K independent tokens circulate at once so
// the destination inbox sees concurrent producers.
// ---------------------------------------------------------------------------

struct PingObj {
  GlobalRef next;
};

inline constexpr std::uint32_t kPingType = 0x9106u;

MethodId g_ping = kInvalidMethod;

Context* ping_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  const std::int64_t hops = args[0].as_i64();
  if (hops <= 0) {
    *ret = Value(std::int64_t{1});
    return nullptr;
  }
  PingObj& obj = nd.objects().get<PingObj>(self);
  Frame f(nd, g_ping, self, ci, args, nargs);
  return f.forward(g_ping, obj.next, {Value(hops - 1)}, ret);
}

void ping_par(Node& nd, Context& ctx) {
  const std::int64_t hops = ctx.args[0].as_i64();
  Continuation k = ctx.ret;
  const GlobalRef self = ctx.self;
  nd.free_context(ctx);
  if (hops <= 0) {
    nd.reply_to(k, Value(std::int64_t{1}));
    return;
  }
  PingObj& obj = nd.objects().get<PingObj>(self);
  k.forwarded = true;
  ++nd.stats.continuations_forwarded;
  const Value next{hops - 1};
  invoke_with_continuation(nd, g_ping, obj.next, &next, 1, k);
}

MethodId register_ping(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "ping";
  d.seq = ping_seq;
  d.par = ping_par;
  d.frame_slots = 0;
  d.arg_count = 1;
  g_ping = reg.declare(std::move(d));
  reg.add_callee(g_ping, g_ping, /*forwards=*/true);
  return g_ping;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct WorkloadResult {
  std::string name;
  int reps = 0;
  double best_wall_s = 0.0;
  double mean_wall_s = 0.0;
  std::uint64_t invocations = 0;  ///< per measured rep (local + remote).
  std::uint64_t msgs = 0;         ///< per measured rep (logical messages sent).
  double inv_per_s = 0.0;         ///< at the best wall time.
  double msgs_per_s = 0.0;
  // Hot-path instrumentation (per measured rep, summed over nodes).
  double mean_inbox_batch = 0.0;
  std::uint64_t loc_cache_hits = 0;
  std::uint64_t loc_cache_misses = 0;
  std::uint64_t spec_nb_calls = 0;  ///< Call sites bound NB by edge specialization.
  // Memory subsystem (per measured rep, summed over nodes).
  std::uint64_t heap_allocs = 0;        ///< Global operator-new calls.
  double allocs_per_invocation = 0.0;   ///< heap_allocs / invocations.
  double arena_recycle_frac = 0.0;      ///< ctx_recycled / (ctx_fresh + ctx_recycled).
  double payload_hit_frac = 0.0;        ///< payload_pool_hits / payload_acquires.
  // Merged-wave dispatch (per measured rep; zero unless merge_waves is on).
  std::uint64_t wave_runs = 0;
  std::uint64_t wave_msgs = 0;
  double mean_wave = 0.0;  ///< wave_msgs / wave_runs.
  // Invocation wall latency, merged over nodes and reps (--metrics only).
  bool have_latency = false;
  std::uint64_t lat_p50_ns = 0;
  std::uint64_t lat_p99_ns = 0;
};

MachineConfig wallclock_config() {
  MachineConfig cfg;
  cfg.mode = ExecMode::Hybrid3;
  cfg.costs = CostModel::workstation();
  cfg.verify = false;  // perf run: the sanitizer is measured elsewhere
  return cfg;
}

/// Runs `body` (one full quiescent run) warmup+reps times, measuring stats
/// deltas of the measured repetitions.
template <typename Body>
WorkloadResult measure(const std::string& name, Machine& m, int warmup, int reps, Body&& body) {
  WorkloadResult r;
  r.name = name;
  r.reps = reps;
  for (int i = 0; i < warmup; ++i) body();
  double sum = 0.0;
  double best = -1.0;
  NodeStats first_delta;
  for (int i = 0; i < reps; ++i) {
    const NodeStats before = m.total_stats();
    const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    bench::WallTimer t;
    body();
    const double s = t.seconds();
    const std::uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
    NodeStats after = m.total_stats();
    sum += s;
    if (best < 0 || s < best) best = s;
    // Counters come from the LAST rep: invocation/message counts are
    // identical across reps, but the allocation counters are not — pools and
    // arenas warm up over the first reps, and the number that should gate
    // regressions is the steady-state allocation rate, not the warm-up cost.
    if (i == reps - 1) {
      first_delta = after;
      // Only the per-rep counter deltas matter; the subtraction is done
      // field-by-field below for the handful we report.
      r.invocations = (after.local_invokes + after.remote_invokes) -
                      (before.local_invokes + before.remote_invokes);
      r.msgs = after.msgs_sent - before.msgs_sent;
      r.loc_cache_hits = after.loc_cache_hits - before.loc_cache_hits;
      r.loc_cache_misses = after.loc_cache_misses - before.loc_cache_misses;
      r.spec_nb_calls = after.spec_stack_calls - before.spec_stack_calls;
      const std::uint64_t batches = after.inbox_batches - before.inbox_batches;
      const std::uint64_t drained = after.inbox_batched_msgs - before.inbox_batched_msgs;
      r.mean_inbox_batch = batches ? static_cast<double>(drained) / static_cast<double>(batches)
                                   : 0.0;
      r.heap_allocs = allocs_after - allocs_before;
      r.allocs_per_invocation =
          r.invocations ? static_cast<double>(r.heap_allocs) / static_cast<double>(r.invocations)
                        : 0.0;
      const std::uint64_t ctx_total = (after.ctx_fresh - before.ctx_fresh) +
                                      (after.ctx_recycled - before.ctx_recycled);
      r.arena_recycle_frac =
          ctx_total ? static_cast<double>(after.ctx_recycled - before.ctx_recycled) /
                          static_cast<double>(ctx_total)
                    : 0.0;
      const std::uint64_t acq = after.payload_acquires - before.payload_acquires;
      r.payload_hit_frac =
          acq ? static_cast<double>(after.payload_pool_hits - before.payload_pool_hits) /
                    static_cast<double>(acq)
              : 0.0;
      r.wave_runs = after.wave_runs - before.wave_runs;
      r.wave_msgs = after.wave_msgs - before.wave_msgs;
      r.mean_wave = r.wave_runs ? static_cast<double>(r.wave_msgs) /
                                      static_cast<double>(r.wave_runs)
                                : 0.0;
    }
  }
  r.best_wall_s = best;
  r.mean_wall_s = sum / reps;
  r.inv_per_s = best > 0 ? static_cast<double>(r.invocations) / best : 0.0;
  r.msgs_per_s = best > 0 ? static_cast<double>(r.msgs) / best : 0.0;
  // Latency quantiles accumulate over warmup+reps (the histogram is never
  // reset); quantiles are shape statistics, so the mix is representative.
  Histogram lat;
  for (NodeId nid = 0; nid < m.node_count(); ++nid) {
    if (const NodeMetrics* mx = m.node(nid).metrics()) lat += mx->invoke_latency_ns;
  }
  if (lat.count() > 0) {
    r.have_latency = true;
    r.lat_p50_ns = static_cast<std::uint64_t>(lat.quantile(0.5));
    r.lat_p99_ns = static_cast<std::uint64_t>(lat.quantile(0.99));
  }
  return r;
}

WorkloadResult run_ping(bool smoke, int reps, const MachineConfig& cfg) {
  const std::size_t nodes = 2;
  const std::size_t tokens = 4;
  const std::int64_t hops = smoke ? 2000 : 20000;
  ThreadedMachine m(nodes, cfg);
  register_ping(m.registry());
  m.registry().finalize();

  // Ring: one object per node, each pointing at the next node's object.
  std::vector<PingObj*> objs;
  std::vector<GlobalRef> refs;
  for (std::size_t i = 0; i < nodes; ++i) {
    auto [ref, obj] = m.node(static_cast<NodeId>(i)).objects().create<PingObj>(kPingType);
    refs.push_back(ref);
    objs.push_back(obj);
  }
  for (std::size_t i = 0; i < nodes; ++i) objs[i]->next = refs[(i + 1) % nodes];

  auto body = [&] {
    // K concurrent tokens: a K-slot root proxy collects one reply per token
    // (the same seeding run_main performs, widened to K futures).
    Node& nd = m.node(0);
    Context& root = nd.alloc_context_raw(kInvalidMethod, tokens);
    root.status = ContextStatus::Proxy;
    for (std::size_t k = 0; k < tokens; ++k) root.expect(static_cast<SlotId>(k));
    for (std::size_t k = 0; k < tokens; ++k) {
      const GlobalRef start = refs[k % nodes];
      nd.send(Message::invoke(0, start.node, g_ping, start, {Value(hops)},
                              Continuation{root.ref(), static_cast<SlotId>(k)}));
    }
    m.run_until_quiescent();
    for (std::size_t k = 0; k < tokens; ++k) {
      CONCERT_CHECK(root.slot_full(static_cast<SlotId>(k)), "ping token " << k << " lost");
    }
    nd.free_context(root);
  };
  return measure("ping", m, /*warmup=*/1, reps, body);
}

/// Ping with object churn: every body migrates each ring object to the other
/// node before circulating the tokens, but the `next` references (and the
/// token seeds) keep naming the objects' *original* homes. Every hop
/// therefore chases a forwarding record through the location cache — the
/// workload the cache exists for, kept separate from plain `ping` so the
/// pure-messaging number stays comparable across PRs.
WorkloadResult run_ping_churn(bool smoke, int reps, const MachineConfig& cfg) {
  const std::size_t nodes = 2;
  const std::size_t tokens = 4;
  const std::int64_t hops = smoke ? 1000 : 10000;
  ThreadedMachine m(nodes, cfg);
  register_ping(m.registry());
  m.registry().finalize();

  std::vector<PingObj*> objs;
  std::vector<GlobalRef> refs;      // original (soon stale) names
  std::vector<GlobalRef> current;   // live names, re-migrated every body
  for (std::size_t i = 0; i < nodes; ++i) {
    auto [ref, obj] = m.node(static_cast<NodeId>(i)).objects().create<PingObj>(kPingType);
    refs.push_back(ref);
    objs.push_back(obj);
  }
  for (std::size_t i = 0; i < nodes; ++i) objs[i]->next = refs[(i + 1) % nodes];
  current = refs;

  auto body = [&] {
    // Churn phase (machine idle between quiescent runs): move every object to
    // the opposite node. The stale `next` names now resolve through one more
    // forwarding hop; the first use per name misses the cache (the owner
    // invalidated its entries at migration), the rest of the run hits.
    for (std::size_t i = 0; i < nodes; ++i) {
      const NodeId away = static_cast<NodeId>((current[i].node + 1) % nodes);
      current[i] = migrate_object<PingObj>(m, current[i], away);
    }
    Node& nd = m.node(0);
    Context& root = nd.alloc_context_raw(kInvalidMethod, tokens);
    root.status = ContextStatus::Proxy;
    for (std::size_t k = 0; k < tokens; ++k) root.expect(static_cast<SlotId>(k));
    for (std::size_t k = 0; k < tokens; ++k) {
      // Seed through the stale original name: the old home re-routes it.
      const GlobalRef start = refs[k % nodes];
      nd.send(Message::invoke(0, start.node, g_ping, start, {Value(hops)},
                              Continuation{root.ref(), static_cast<SlotId>(k)}));
    }
    m.run_until_quiescent();
    for (std::size_t k = 0; k < tokens; ++k) {
      CONCERT_CHECK(root.slot_full(static_cast<SlotId>(k)), "churn token " << k << " lost");
    }
    nd.free_context(root);
  };
  WorkloadResult r = measure("ping_churn", m, /*warmup=*/1, reps, body);
  CONCERT_CHECK(r.loc_cache_hits > 0 && r.loc_cache_misses > 0,
                "ping_churn failed to exercise the location cache (hits="
                    << r.loc_cache_hits << ", misses=" << r.loc_cache_misses << ")");
  return r;
}

/// Engine selector for the kernel runners. The threaded engine is the
/// default (the "real time" half of DESIGN §3); the sequential sim engine is
/// used by the merge comparison to isolate dispatch amortization from thread
/// scheduling — on oversubscribed hosts the threaded off/on ratio measures
/// the scheduler, not the runtime.
std::unique_ptr<Machine> make_engine(bool sim, std::size_t nodes, const MachineConfig& cfg) {
  if (sim) return std::make_unique<SimMachine>(nodes, cfg);
  return std::make_unique<ThreadedMachine>(nodes, cfg);
}

WorkloadResult run_sor(bool smoke, int reps, const MachineConfig& cfg, bool sim = false) {
  sor::Params p;
  p.n = smoke ? 32 : 64;
  p.pgrid = 2;
  p.block = 8;
  p.iters = smoke ? 2 : 4;
  auto m = make_engine(sim, p.nodes(), cfg);
  auto ids = sor::register_sor(m->registry(), p);
  m->registry().finalize();
  auto world = sor::build(*m, ids, p);
  auto body = [&] {
    CONCERT_CHECK(sor::run(*m, ids, world), "SOR driver failed");
  };
  return measure("sor", *m, /*warmup=*/1, reps, body);
}

WorkloadResult run_em3d(bool smoke, int reps, const MachineConfig& cfg, bool sim = false) {
  em3d::Params p;
  p.graph_nodes = smoke ? 128 : 384;
  p.degree = 8;
  p.iters = smoke ? 2 : 4;
  p.local_fraction = 0.5;
  const std::size_t nodes = 4;
  auto m = make_engine(sim, nodes, cfg);
  auto ids = em3d::register_em3d(m->registry(), p, nodes);
  m->registry().finalize();
  auto world = em3d::build(*m, ids, p);
  auto body = [&] {
    CONCERT_CHECK(em3d::run(*m, ids, world, em3d::Version::Push), "EM3D driver failed");
  };
  return measure("em3d", *m, /*warmup=*/1, reps, body);
}

WorkloadResult run_md(bool smoke, int reps, const MachineConfig& cfg, bool sim = false) {
  md::Params p;
  p.atoms = smoke ? 128 : 320;
  p.spatial = true;
  const std::size_t nodes = 4;
  auto m = make_engine(sim, nodes, cfg);
  auto ids = md::register_md(m->registry(), p, nodes);
  m->registry().finalize();
  auto world = md::build(*m, ids, p);
  auto body = [&] {
    CONCERT_CHECK(md::run(*m, ids, world), "MD-Force driver failed");
  };
  return measure("mdforce", *m, /*warmup=*/1, reps, body);
}

// ---------------------------------------------------------------------------
// Edge-specialization comparison (concert-analyze): each kernel under Hybrid1
// with call-site specialization off vs on, same workload and engine. Hybrid1
// degrades every unlocked method to the CP interface, so this isolates what
// winning the NB stack convention back on refined edges is worth in real time.
// ---------------------------------------------------------------------------

struct SpecDelta {
  std::string name;
  double off_best_s = 0.0;
  double on_best_s = 0.0;
  std::uint64_t spec_nb_calls = 0;  ///< per rep, from the specialized run
  /// Positive = specialization made the kernel faster by this fraction.
  double delta() const {
    return off_best_s > 0 ? (off_best_s - on_best_s) / off_best_s : 0.0;
  }
};

std::vector<SpecDelta> run_spec_comparison(bool smoke, int reps) {
  MachineConfig off = wallclock_config();
  off.mode = ExecMode::Hybrid1;
  MachineConfig on = off;
  on.specialize_edges = true;

  using Runner = WorkloadResult (*)(bool, int, const MachineConfig&, bool);
  const std::pair<const char*, Runner> kernels[] = {
      {"sor", run_sor}, {"em3d", run_em3d}, {"mdforce", run_md}};
  std::vector<SpecDelta> deltas;
  for (const auto& [name, runner] : kernels) {
    SpecDelta d;
    d.name = name;
    d.off_best_s = runner(smoke, reps, off, /*sim=*/false).best_wall_s;
    const WorkloadResult r_on = runner(smoke, reps, on, /*sim=*/false);
    d.on_best_s = r_on.best_wall_s;
    d.spec_nb_calls = r_on.spec_nb_calls;
    deltas.push_back(d);
  }
  return deltas;
}

// ---------------------------------------------------------------------------
// Merged-wave comparison: each kernel under Hybrid3 with merge_waves off vs
// on, same workload and engine. This isolates what batching homogeneous
// invocation runs into one dispatch (plus bundled replies) is worth in real
// time — the headline claim of the merged-wave PR.
// ---------------------------------------------------------------------------

struct MergeDelta {
  std::string name;
  double off_best_s = 0.0;
  double on_best_s = 0.0;
  double off_inv_per_s = 0.0;
  double on_inv_per_s = 0.0;
  double mean_wave = 0.0;  ///< from the merged run
  /// Throughput ratio: >1 means the merged path is faster.
  double speedup() const { return off_best_s > 0 && on_best_s > 0 ? off_best_s / on_best_s : 0.0; }
};

std::vector<MergeDelta> run_merge_comparison(bool smoke, int reps, const MachineConfig& base) {
  MachineConfig off = base;
  off.merge_waves = false;
  MachineConfig on = base;
  on.merge_waves = true;

  using Runner = WorkloadResult (*)(bool, int, const MachineConfig&, bool);
  const std::pair<const char*, Runner> kernels[] = {
      {"sor", run_sor}, {"em3d", run_em3d}, {"mdforce", run_md}};
  std::vector<MergeDelta> deltas;
  // Both engines per kernel: the threaded rows measure the production path
  // (noisy on oversubscribed hosts — wall time there is mostly thread
  // scheduling); the sim rows run the identical merged partitioner on the
  // deterministic single-threaded engine, so their off/on ratio is the
  // runtime's own dispatch amortization and nothing else.
  for (const bool sim : {false, true}) {
    for (const auto& [name, runner] : kernels) {
      MergeDelta d;
      d.name = sim ? std::string(name) + "/sim" : std::string(name);
      const WorkloadResult r_off = runner(smoke, reps, off, sim);
      const WorkloadResult r_on = runner(smoke, reps, on, sim);
      d.off_best_s = r_off.best_wall_s;
      d.on_best_s = r_on.best_wall_s;
      d.off_inv_per_s = r_off.inv_per_s;
      d.on_inv_per_s = r_on.inv_per_s;
      d.mean_wave = r_on.mean_wave;
      deltas.push_back(d);
    }
  }
  return deltas;
}

/// Critical-path bucket fractions from the traced SOR run (concert-insight),
/// folded into BENCH_wallclock.json so PRs can track where makespan goes.
struct CritFracs {
  bool valid = false;
  double compute = 0.0;
  double network = 0.0;
  double wait = 0.0;
  double sched = 0.0;
  double attributed = 0.0;
};

void write_json(const std::string& path, const std::vector<WorkloadResult>& results,
                const std::vector<SpecDelta>& spec, const std::vector<MergeDelta>& merge,
                bool smoke, int reps, bool merged_main, const CritFracs& crit) {
  std::ofstream os(path);
  CONCERT_CHECK(os.good(), "cannot write " << path);
  os << "{\n"
     << "  \"bench\": \"wallclock_suite\",\n"
     << "  \"engine\": \"threaded\",\n"
     << "  \"mode\": \"Hybrid3\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"merge_waves\": " << (merged_main ? "true" : "false") << ",\n"
     << "  \"repetitions\": " << reps << ",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    os << "    {\"name\": \"" << r.name << "\""
       << ", \"best_wall_s\": " << r.best_wall_s << ", \"mean_wall_s\": " << r.mean_wall_s
       << ", \"invocations\": " << r.invocations << ", \"msgs\": " << r.msgs
       << ", \"invocations_per_sec\": " << static_cast<std::uint64_t>(r.inv_per_s)
       << ", \"msgs_per_sec\": " << static_cast<std::uint64_t>(r.msgs_per_s)
       << ", \"mean_inbox_batch\": " << r.mean_inbox_batch;
    // Only kernels that actually drove the location cache report its
    // counters; emitting 0/0 for the rest implied the cache was exercised.
    if (r.loc_cache_hits + r.loc_cache_misses > 0) {
      os << ", \"loc_cache_hits\": " << r.loc_cache_hits
         << ", \"loc_cache_misses\": " << r.loc_cache_misses;
    }
    os << ", \"heap_allocs\": " << r.heap_allocs
       << ", \"allocs_per_invocation\": " << r.allocs_per_invocation
       << ", \"arena_recycle_frac\": " << r.arena_recycle_frac
       << ", \"payload_hit_frac\": " << r.payload_hit_frac;
    if (r.wave_runs > 0) {
      os << ", \"wave_runs\": " << r.wave_runs << ", \"wave_msgs\": " << r.wave_msgs
         << ", \"mean_wave\": " << r.mean_wave;
    }
    if (r.have_latency) {
      os << ", \"invoke_latency_p50_ns\": " << r.lat_p50_ns
         << ", \"invoke_latency_p99_ns\": " << r.lat_p99_ns;
    }
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"spec_comparison\": [\n";
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const SpecDelta& d = spec[i];
    os << "    {\"name\": \"" << d.name << "\", \"mode\": \"Hybrid1\""
       << ", \"off_best_wall_s\": " << d.off_best_s << ", \"on_best_wall_s\": " << d.on_best_s
       << ", \"spec_nb_calls\": " << d.spec_nb_calls
       << ", \"speedup_frac\": " << d.delta() << "}" << (i + 1 < spec.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"merge_comparison\": [\n";
  for (std::size_t i = 0; i < merge.size(); ++i) {
    const MergeDelta& d = merge[i];
    os << "    {\"name\": \"" << d.name << "\", \"mode\": \"Hybrid3\""
       << ", \"off_best_wall_s\": " << d.off_best_s << ", \"on_best_wall_s\": " << d.on_best_s
       << ", \"off_invocations_per_sec\": " << static_cast<std::uint64_t>(d.off_inv_per_s)
       << ", \"on_invocations_per_sec\": " << static_cast<std::uint64_t>(d.on_inv_per_s)
       << ", \"mean_wave\": " << d.mean_wave << ", \"speedup\": " << d.speedup() << "}"
       << (i + 1 < merge.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (crit.valid) {
    os << ",\n  \"critpath\": {\"workload\": \"sor\", \"compute_frac\": " << crit.compute
       << ", \"network_frac\": " << crit.network << ", \"wait_frac\": " << crit.wait
       << ", \"sched_frac\": " << crit.sched
       << ", \"attributed_frac\": " << crit.attributed << "}";
  }
  os << "\n}\n";
}

// ---------------------------------------------------------------------------
// Traced SOR capture (--trace): one iteration on a tracing machine, exported
// as binary (for concert_trace) and as wall-clock Perfetto JSON. Runs after
// the timed suite so the ring-buffer writes never pollute the numbers above.
// ---------------------------------------------------------------------------

CritFracs run_traced_sor(bool metrics) {
  MachineConfig cfg = wallclock_config();
  cfg.trace = true;
  cfg.metrics = metrics;
  sor::Params p;
  p.n = 32;
  p.pgrid = 2;
  p.block = 8;
  p.iters = 1;
  ThreadedMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "traced SOR driver failed");

  const TraceDump dump = dump_trace(m, /*wall_time=*/true);
  {
    std::ofstream os("TRACE_sor.ctrc", std::ios::binary);
    CONCERT_CHECK(os.good(), "cannot write TRACE_sor.ctrc");
    write_binary_trace(dump, os);
  }
  {
    std::ofstream os("TRACE_sor.json");
    CONCERT_CHECK(os.good(), "cannot write TRACE_sor.json");
    write_chrome_trace(dump, os);
  }
  std::cout << "wrote TRACE_sor.ctrc, TRACE_sor.json (" << dump.events.size() << " events, "
            << dump.dropped << " dropped)\n";

  // Critical path over the same dump (concert-insight): the JSON artifact
  // plus the bucket fractions for BENCH_wallclock.json.
  const CritPathReport rep = analyze_critical_path(dump);
  {
    std::ofstream os("CRITPATH_sor.json");
    CONCERT_CHECK(os.good(), "cannot write CRITPATH_sor.json");
    write_critpath_json(rep, dump, os);
  }
  CritFracs cf;
  if (rep.span_us > 0) {
    cf.valid = true;
    cf.compute = rep.compute_us / rep.span_us;
    cf.network = rep.network_us / rep.span_us;
    cf.wait = rep.wait_us / rep.span_us;
    cf.sched = rep.sched_us / rep.span_us;
    cf.attributed = rep.attributed_frac;
  }
  std::cout << "wrote CRITPATH_sor.json (attributed_frac=" << fmt_double(cf.attributed, 3)
            << ", compute=" << fmt_double(cf.compute * 100.0, 1)
            << "%, network=" << fmt_double(cf.network * 100.0, 1)
            << "%, wait=" << fmt_double(cf.wait * 100.0, 1)
            << "%, sched=" << fmt_double(cf.sched * 100.0, 1) << "%)\n";

  if (metrics) {
    MetricsRegistry reg;
    export_metrics(m, reg);
    std::ofstream js("METRICS_sor.json");
    CONCERT_CHECK(js.good(), "cannot write METRICS_sor.json");
    reg.write_json(js);
    std::ofstream pm("METRICS_sor.prom");
    CONCERT_CHECK(pm.good(), "cannot write METRICS_sor.prom");
    reg.write_prometheus(pm);
    std::cout << "wrote METRICS_sor.json, METRICS_sor.prom\n";
  }
  return cf;
}

// ---------------------------------------------------------------------------
// Per-call-site profiled SOR (--sites): one iteration with
// MachineConfig::profile_sites on, dumped as SITES_sor.json. Separate from
// the timed runs — site profiling reads the host clock on the invoke path.
// ---------------------------------------------------------------------------

void run_sites_sor() {
  MachineConfig cfg = wallclock_config();
  cfg.profile_sites = true;
  sor::Params p;
  p.n = 32;
  p.pgrid = 2;
  p.block = 8;
  p.iters = 1;
  ThreadedMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "site-profiled SOR driver failed");
  std::ofstream os("SITES_sor.json");
  CONCERT_CHECK(os.good(), "cannot write SITES_sor.json");
  write_sites_json(m, os);
  const NodeStats t = m.total_stats();
  std::cout << "wrote SITES_sor.json (stack_calls=" << t.stack_calls
            << ", completions=" << t.stack_completions << ", fallbacks=" << t.fallbacks
            << ")\n";
}

// ---------------------------------------------------------------------------
// Postmortem demo (--postmortem-demo): run a small SOR so the event rings
// and health samplers hold real history, then leak one phantom work credit —
// the threaded analogue of a lost reply on a real transport. The watchdog
// declares a stall and dumps POSTMORTEM_demo.json (the CI artifact); the
// expected ProtocolError is caught here and the credit rebalanced.
// ---------------------------------------------------------------------------

void run_postmortem_demo() {
  MachineConfig cfg = wallclock_config();
  cfg.stall_timeout = 150;
  cfg.postmortem_path = "POSTMORTEM_demo.json";
  sor::Params p;
  p.n = 16;
  p.pgrid = 2;
  p.block = 8;
  p.iters = 1;
  ThreadedMachine m(p.nodes(), cfg);
  auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  CONCERT_CHECK(sor::run(m, ids, world), "postmortem-demo SOR driver failed");
  m.on_work_created();  // phantom credit: nothing will ever retire it
  bool stalled = false;
  try {
    m.run_until_quiescent();
  } catch (const ProtocolError&) {
    stalled = true;
  }
  m.on_work_retired();  // rebalance so teardown sees a clean counter
  CONCERT_CHECK(stalled, "postmortem demo failed to trip the stall watchdog");
  std::cout << "wrote POSTMORTEM_demo.json (deliberate stall)\n";
}

}  // namespace
}  // namespace concert

int main(int argc, char** argv) {
  using namespace concert;
  bool smoke = false;
  bool metrics = false;
  bool trace = false;
  bool pin = false;
  bool merge = false;
  bool sites = false;
  bool postmortem_demo = false;
  int reps = 3;
  std::string json_path = "BENCH_wallclock.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pin = true;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(argv[i], "--sites") == 0) {
      sites = true;
    } else if (std::strcmp(argv[i], "--postmortem-demo") == 0) {
      postmortem_demo = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: wallclock_suite [--smoke] [--reps N] [--json PATH] "
                   "[--metrics] [--trace] [--pin] [--merge] [--sites] "
                   "[--postmortem-demo]\n";
      return 2;
    }
  }
  if (smoke) reps = std::min(reps, 2);

  MachineConfig cfg = wallclock_config();
  cfg.metrics = metrics;
  cfg.pin_threads = pin;
  cfg.merge_waves = merge;

  bench::print_caption(std::string("Wall-clock suite — threaded engine") +
                       (smoke ? " (smoke)" : "") + (metrics ? " [metrics]" : "") +
                       (pin ? " [pinned]" : "") + (merge ? " [merged waves]" : ""));
  std::vector<WorkloadResult> results;
  results.push_back(run_ping(smoke, reps, cfg));
  results.push_back(run_ping_churn(smoke, reps, cfg));
  results.push_back(run_sor(smoke, reps, cfg));
  results.push_back(run_em3d(smoke, reps, cfg));
  results.push_back(run_md(smoke, reps, cfg));

  std::vector<std::string> cols = {"workload", "best (s)", "mean (s)", "invocations", "msgs",
                                   "inv/s", "msg/s", "avg inbox batch", "allocs/inv",
                                   "arena recycle", "loc cache hit"};
  if (merge) cols.push_back("avg wave");
  if (metrics) {
    cols.push_back("lat p50 (ns)");
    cols.push_back("lat p99 (ns)");
  }
  TablePrinter t(cols);
  for (const WorkloadResult& r : results) {
    std::vector<std::string> row = {r.name, fmt_double(r.best_wall_s, 4),
                                    fmt_double(r.mean_wall_s, 4), std::to_string(r.invocations),
                                    std::to_string(r.msgs),
                                    fmt_count(static_cast<std::uint64_t>(r.inv_per_s)),
                                    fmt_count(static_cast<std::uint64_t>(r.msgs_per_s)),
                                    fmt_double(r.mean_inbox_batch, 2),
                                    fmt_double(r.allocs_per_invocation, 3),
                                    fmt_double(r.arena_recycle_frac * 100.0, 1) + "%"};
    // Most kernels never touch the location cache (no migrations): print "-"
    // rather than a 0/0 that reads as "exercised and always missed".
    const std::uint64_t loc_traffic = r.loc_cache_hits + r.loc_cache_misses;
    row.push_back(loc_traffic ? fmt_double(100.0 * static_cast<double>(r.loc_cache_hits) /
                                               static_cast<double>(loc_traffic),
                                           1) + "%"
                              : "-");
    if (merge) row.push_back(r.wave_runs ? fmt_double(r.mean_wave, 2) : "-");
    if (metrics) {
      row.push_back(r.have_latency ? fmt_count(r.lat_p50_ns) : "-");
      row.push_back(r.have_latency ? fmt_count(r.lat_p99_ns) : "-");
    }
    t.add_row(row);
  }
  t.print(std::cout);

  const std::vector<SpecDelta> spec = run_spec_comparison(smoke, reps);
  bench::print_caption("Edge specialization under Hybrid1 (off vs on)");
  TablePrinter st({"kernel", "off best (s)", "on best (s)", "spec-NB calls", "speedup"});
  for (const SpecDelta& d : spec) {
    st.add_row({d.name, fmt_double(d.off_best_s, 4), fmt_double(d.on_best_s, 4),
                std::to_string(d.spec_nb_calls),
                fmt_double(d.delta() * 100.0, 1) + "%"});
  }
  st.print(std::cout);

  const std::vector<MergeDelta> merged = run_merge_comparison(smoke, reps, cfg);
  bench::print_caption("Merged-wave dispatch under Hybrid3 (off vs on)");
  TablePrinter mt({"kernel", "off best (s)", "on best (s)", "off inv/s", "on inv/s", "avg wave",
                   "speedup"});
  for (const MergeDelta& d : merged) {
    mt.add_row({d.name, fmt_double(d.off_best_s, 4), fmt_double(d.on_best_s, 4),
                fmt_count(static_cast<std::uint64_t>(d.off_inv_per_s)),
                fmt_count(static_cast<std::uint64_t>(d.on_inv_per_s)),
                fmt_double(d.mean_wave, 2), fmt_double(d.speedup(), 2) + "x"});
  }
  mt.print(std::cout);

  // The traced run comes before the JSON is written so its critical-path
  // bucket fractions land in the same BENCH_wallclock.json.
  CritFracs crit;
  if (trace) crit = run_traced_sor(metrics);
  write_json(json_path, results, spec, merged, smoke, reps, merge, crit);
  std::cout << "\nwrote " << json_path << "\n";

  if (sites) run_sites_sor();
  if (postmortem_demo) run_postmortem_demo();
  return 0;
}
