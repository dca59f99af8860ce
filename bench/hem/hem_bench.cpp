// hem_bench — the repository benchmark.
//
// Four workloads span the locality range of the hybrid execution model: pure
// stack speculation (fib_seq), a stencil whose fallbacks happen only on tile
// perimeters (sor_local), the same stencil at the paper's low-locality end
// (sor_remote), and one-way irregular messaging (em3d_push). Each is timed
// end to end on the threaded engine and on the deterministic engine, with
// MachineConfig defaults except verify=false, in a closed loop: one rep at a
// time, the initial state restored through the public object API
// before every rep, and every rep's output checked bit-exactly against a
// serial reference computed once at setup (restore and check sit outside the
// timed region). The two engines' reps interleave over the whole run, each
// rotating over several coexisting worlds, and every rep follows plain-C runs
// of the same computation and is also reported relative to them, so host
// drift and heap layout do not decide a run's medians.
//
// One process runs one workload; bench/hem/run.py runs each in a fresh
// process because the MPSC block pool and the payload pools are
// process-wide, so sharing a process would make the workload order matter.
//
//   hem_bench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//             [--json PATH] [--spans PATH]
//
// --seconds is the measuring budget (shared between the engines by
// kThrShare; every engine still runs its minimum rep count). Sizes and rep
// counts come from bench/hem/workloads.json, whose path is compiled in.
// --trace 1 adds the per-layer metrics, all taken from outside the runtime:
// NodeStats counter deltas, the layer probes of layer_probes.hpp, the
// sim-engine cost ledger, and extra threaded reps with tracing and metrics
// on. --smoke runs the workload's tiny sizes with 2 reps per engine.
// The result (raw per-rep samples, every metric with its unit, host
// metadata, the seed) goes to --json; the benchmark's own spans (setup
// phases, reps, restores, checks, probes) go to --spans in Chrome-trace form.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/seqbench/seqbench.hpp"
#include "apps/sor/sor.hpp"
#include "layer_probes.hpp"
#include "machine/critpath.hpp"
#include "machine/trace.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"

#ifndef HEM_BUILD_TYPE
#define HEM_BUILD_TYPE "unknown"
#endif
#ifndef HEM_WORKLOADS_JSON
#define HEM_WORKLOADS_JSON "bench/hem/workloads.json"
#endif

namespace concert::hem {

/// Global operator-new calls so far in this process (alloc_counter.cpp).
std::uint64_t heap_allocs();

namespace {

// ---------------------------------------------------------------------------
// Host clocks and metadata.
// ---------------------------------------------------------------------------

double wall_s() { return now_ns() * 1e-9; }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Anonymous resident memory — resident minus file-backed pages, whose count
/// follows which code pages happened to fault in (run to run it moved
/// fib_seq's ~0.3 MB growth by another 0.4-0.5 MB) — after handing freed
/// heap pages back to the kernel, so the reading is what the process holds,
/// not where the allocator's heap top happened to stop.
double rss_mb() {
  malloc_trim(0);
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  std::uint64_t file_backed = 0;
  f >> size >> resident >> file_backed;
  return static_cast<double>(resident - file_backed) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         1048576.0;
}

std::string first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Python's statistics.quantiles(v, n)[i-1] (the default 'exclusive'
/// method), so hem_bench and compare.py agree on what a quartile is.
double quantile(std::vector<double> v, int i, int n) {
  if (v.empty()) return 0.0;
  if (v.size() == 1) return v[0];
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  long j = i * m / n;
  j = std::clamp(j, 1L, ld - 1);
  const long delta = i * m - j * n;
  return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
          v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         n;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans, written as Chrome trace events.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  /// Storage for `capacity` spans is written once up front, so its pages are
  /// resident before the baseline RSS reading and the log's growth with the
  /// rep count (which follows the host's speed) is not counted in mem_mb.
  explicit SpanLog(std::size_t capacity) {
    spans_.resize(capacity);
    spans_.clear();
  }

  /// RAII span: opened at construction, closed at destruction; its parent is
  /// whichever span was open when it started.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, const char* cat)
        : log_(log), id_(log.open(std::move(name), cat)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t id_;
  };

  void write_chrome(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    const char* cat;
    double t0_us;
    double t1_us;
    long parent;
  };
  std::size_t open(std::string name, const char* cat) {
    const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    spans_.push_back(Span{std::move(name), cat, now_ns() * 1e-3 - origin_us_, 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].t1_us = now_ns() * 1e-3 - origin_us_;
    open_.pop_back();
  }

  double origin_us_ = now_ns() * 1e-3;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full precision; non-finite values have no JSON spelling and become null.
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jarr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + jnum(v[i]);
  return out + "]";
}

void SpanLog::write_chrome(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": " << jstr(s.name) << ", \"cat\": " << jstr(s.cat)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << jnum(s.t0_us)
       << ", \"dur\": " << jnum(s.t1_us - s.t0_us) << ", \"args\": {\"id\": " << i
       << ", \"parent\": " << s.parent << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "], \"displayTimeUnit\": \"ms\"}\n";
}

// ---------------------------------------------------------------------------
// How a run measures. Per-workload sizes and rep counts are in
// workloads.json; these are the same for every workload.
// ---------------------------------------------------------------------------

/// Coexisting worlds per engine, and traced worlds.
constexpr int kWorlds = 3;
/// Untimed reps per world and engine before measuring.
constexpr int kWarmupReps = 1;
/// The threaded engine's share of the measuring time; the deterministic
/// engine gets the rest.
constexpr double kThrShare = 0.6;
/// Minimum setup_s samples, and the share of the elapsed measuring time that
/// further samples may take.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupShare = 0.05;
/// One setup_s sample builds world pairs back to back until their
/// construction times add up to this.
constexpr double kSetupBatchS = 0.005;
/// Traced reps, rotated over the traced worlds.
constexpr int kTracedReps = 2 * kWorlds;

[[noreturn]] void fail(const std::string& msg) {
  std::cerr << "hem_bench: " << msg << "\n";
  std::exit(1);
}

double need(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    fail("workloads.json: missing numeric field '" + key + "'");
  }
  return v->number;
}

/// workloads.json: workload name -> parameter object.
JsonValue load_workloads(const std::string& path) {
  std::ifstream f(path);
  if (!f) fail("cannot read " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  JsonValue root;
  std::string err;
  if (!json_parse(ss.str(), root, &err)) fail(path + ": " + err);
  if (!root.is_object() || root.obj.empty()) fail(path + ": no workloads");
  return root;
}

/// The workload's parameters with its "smoke" overrides applied when asked.
JsonValue workload_params(const JsonValue& base, bool smoke) {
  JsonValue p = base;
  const JsonValue* sm = base.find("smoke");
  if (!smoke || sm == nullptr) return p;
  for (const auto& [key, value] : sm->obj) {
    bool replaced = false;
    for (auto& kv : p.obj) {
      if (kv.first == key) {
        kv.second = value;
        replaced = true;
      }
    }
    if (!replaced) p.obj.emplace_back(key, value);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Workloads. An Instance is one engine's machine with its world built; a
// Workload builds instances, owns the serial reference, and runs the plain-C
// baseline of the same computation.
// ---------------------------------------------------------------------------

struct Instance {
  virtual ~Instance() = default;
  std::unique_ptr<Machine> m;
  double build_s = 0.0;  ///< machine + register + finalize + build
  virtual bool run() = 0;
  virtual bool check() = 0;
  virtual void restore() = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t nodes() const = 0;
  /// Whether the program's invocations target objects (and so pay the
  /// object table's checks) rather than being calls of pure functions.
  virtual bool calls_objects() const { return true; }
  /// Computes the serial reference every rep is checked against.
  virtual void reference() = 0;
  /// Builds a world; its setup phases are logged as spans unless `spans`
  /// is null.
  virtual std::unique_ptr<Instance> make(bool sim, const MachineConfig& cfg,
                                         SpanLog* spans) const = 0;
  /// Prepares the plain-C baseline's inputs (from a freshly built instance).
  virtual void c_setup(Instance& built) = 0;
  virtual void c_restore() = 0;
  virtual void c_run() = 0;
  virtual bool c_check() const = 0;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Builds `inst` phase by phase (under setup spans when `spans` is set),
/// timing the four phases together.
template <typename Register, typename Build>
void construct(Instance& inst, bool sim, std::size_t nodes, const MachineConfig& cfg,
               SpanLog* spans, Register&& reg, Build&& build) {
  const auto phase = [spans](const char* name, auto&& body) {
    if (spans == nullptr) return body();
    SpanLog::Scope s(*spans, name, "setup");
    body();
  };
  const double t0 = wall_s();
  phase("setup.machine", [&] {
    if (sim) {
      inst.m = std::make_unique<SimMachine>(nodes, cfg);
    } else {
      inst.m = std::make_unique<ThreadedMachine>(nodes, cfg);
    }
  });
  phase("setup.register", [&] { reg(inst.m->registry()); });
  phase("setup.finalize", [&] { inst.m->registry().finalize(); });
  phase("setup.build", [&] { build(*inst.m); });
  inst.build_s = wall_s() - t0;
}

// --- fib_seq -------------------------------------------------------------------

class FibWorkload final : public Workload {
 public:
  explicit FibWorkload(const JsonValue& p) : n_(static_cast<std::int64_t>(need(p, "n"))) {}

  std::size_t nodes() const override { return 1; }
  bool calls_objects() const override { return false; }
  void reference() override { expected_ = seqbench::fib_c(n_); }

  struct Inst final : Instance {
    seqbench::Ids ids;
    std::int64_t n = 0;
    std::int64_t expected = 0;
    std::int64_t last = -1;
    bool run() override {
      const Value v = m->run_main(0, ids.fib, kNoObject, {Value(n)});
      last = v.is_nil() ? -1 : v.as_i64();
      return !v.is_nil();
    }
    bool check() override { return last == expected; }
    void restore() override { last = -1; }
  };

  std::unique_ptr<Instance> make(bool sim, const MachineConfig& cfg,
                                 SpanLog* spans) const override {
    auto inst = std::make_unique<Inst>();
    inst->n = n_;
    inst->expected = expected_;
    construct(
        *inst, sim, 1, cfg, spans,
        [&](MethodRegistry& reg) { inst->ids = seqbench::register_seqbench(reg, false); },
        [](Machine&) {});
    return inst;
  }

  void c_setup(Instance&) override {}
  void c_restore() override { c_result_ = -1; }
  void c_run() override { c_result_ = seqbench::fib_c(n_); }
  bool c_check() const override { return c_result_ == expected_; }

 private:
  std::int64_t n_;
  std::int64_t expected_ = 0;
  std::int64_t c_result_ = -1;
};

// --- sor_local / sor_remote --------------------------------------------------------

class SorWorkload final : public Workload {
 public:
  explicit SorWorkload(const JsonValue& p) {
    p_.n = static_cast<std::size_t>(need(p, "n"));
    p_.pgrid = static_cast<std::size_t>(need(p, "pgrid"));
    p_.block = static_cast<std::size_t>(need(p, "block"));
    p_.iters = static_cast<int>(need(p, "iters"));
  }

  std::size_t nodes() const override { return p_.nodes(); }
  void reference() override { ref_ = sor::reference(p_); }

  struct Inst final : Instance {
    sor::Ids ids;
    sor::World world;
    const std::vector<double>* ref = nullptr;
    bool run() override { return sor::run(*m, ids, world); }
    bool check() override { return same_bits(sor::extract(*m, world), *ref); }
    void restore() override {
      const std::size_t n = world.params.n;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          const GlobalRef r = world.cells[i * n + j];
          sor::Cell& c = m->node(r.node).objects().get<sor::Cell>(r);
          c.value = sor::initial_value(i, j, n);
          c.next = 0.0;
        }
      }
    }
  };

  std::unique_ptr<Instance> make(bool sim, const MachineConfig& cfg,
                                 SpanLog* spans) const override {
    auto inst = std::make_unique<Inst>();
    inst->ref = &ref_;
    construct(
        *inst, sim, p_.nodes(), cfg, spans,
        [&](MethodRegistry& reg) { inst->ids = sor::register_sor(reg, p_); },
        [&](Machine& m) { inst->world = sor::build(m, inst->ids, p_); });
    return inst;
  }

  /// The plain-C rep is the serial reference itself; its previous result is
  /// freed outside the timed region.
  void c_setup(Instance&) override {}
  void c_restore() override { std::vector<double>().swap(c_result_); }
  void c_run() override { c_result_ = sor::reference(p_); }
  bool c_check() const override { return same_bits(c_result_, ref_); }

 private:
  sor::Params p_;
  std::vector<double> ref_;
  std::vector<double> c_result_;
};

// --- em3d_push ----------------------------------------------------------------------

class Em3dWorkload final : public Workload {
 public:
  Em3dWorkload(const JsonValue& p, std::uint64_t seed)
      : nodes_(static_cast<std::size_t>(need(p, "nodes"))) {
    p_.graph_nodes = static_cast<std::size_t>(need(p, "graph_nodes"));
    p_.degree = static_cast<std::size_t>(need(p, "degree"));
    p_.local_fraction = need(p, "local_fraction");
    p_.iters = static_cast<int>(need(p, "iters"));
    p_.seed = seed;
  }

  std::size_t nodes() const override { return nodes_; }
  void reference() override { ref_ = em3d::reference(p_, nodes_); }

  struct Inst final : Instance {
    em3d::Ids ids;
    em3d::World world;
    std::vector<double> init;  ///< values right after build
    const std::vector<double>* ref = nullptr;
    em3d::GNode& gnode(std::uint32_t id) {
      const GlobalRef c = world.containers[world.owner[id]];
      return m->node(c.node).objects().get<em3d::NodeContainer>(c).nodes.at(id);
    }
    bool run() override { return em3d::run(*m, ids, world, em3d::Version::Push); }
    bool check() override { return same_bits(em3d::extract(*m, world), *ref); }
    void restore() override {
      for (std::uint32_t id = 0; id < init.size(); ++id) {
        em3d::GNode& g = gnode(id);
        g.value = init[id];
        std::fill(g.inbox.begin(), g.inbox.end(), 0.0);
      }
    }
  };

  std::unique_ptr<Instance> make(bool sim, const MachineConfig& cfg,
                                 SpanLog* spans) const override {
    auto inst = std::make_unique<Inst>();
    inst->ref = &ref_;
    construct(
        *inst, sim, nodes_, cfg, spans,
        [&](MethodRegistry& reg) { inst->ids = em3d::register_em3d(reg, p_, nodes_); },
        [&](Machine& m) { inst->world = em3d::build(m, inst->ids, p_); });
    inst->init = em3d::extract(*inst->m, inst->world);
    return inst;
  }

  /// The graph, flattened out of a built world into CSR arrays.
  void c_setup(Instance& built) override {
    auto& inst = static_cast<Inst&>(built);
    init_ = inst.init;
    offsets_.assign(1, 0);
    srcs_.clear();
    weights_.clear();
    for (std::uint32_t id = 0; id < init_.size(); ++id) {
      const em3d::GNode& g = inst.gnode(id);
      srcs_.insert(srcs_.end(), g.srcs.begin(), g.srcs.end());
      weights_.insert(weights_.end(), g.weights.begin(), g.weights.end());
      offsets_.push_back(srcs_.size());
    }
  }
  void c_restore() override { value_ = init_; }
  /// The serial update: the E half from H values, then the H half from the
  /// new E values, in the reference's edge order.
  void c_run() override {
    const std::size_t n = init_.size();
    const std::size_t n_e = n / 2;
    for (int it = 0; it < p_.iters; ++it) {
      for (const auto& [lo, hi] : {std::pair{std::size_t{0}, n_e}, std::pair{n_e, n}}) {
        for (std::size_t id = lo; id < hi; ++id) {
          double acc = 0.0;
          for (std::size_t e = offsets_[id]; e < offsets_[id + 1]; ++e) {
            acc += weights_[e] * value_[srcs_[e]];
          }
          value_[id] -= acc;
        }
      }
    }
  }
  bool c_check() const override { return same_bits(value_, ref_); }

 private:
  em3d::Params p_;
  std::size_t nodes_;
  std::vector<double> ref_;
  std::vector<double> init_, value_, weights_;
  std::vector<std::uint32_t> srcs_;
  std::vector<std::size_t> offsets_;
};

std::unique_ptr<Workload> make_workload(const JsonValue& p, std::uint64_t seed) {
  const std::string kind = p.str_or("kind", "");
  if (kind == "fib") return std::make_unique<FibWorkload>(p);
  if (kind == "sor") return std::make_unique<SorWorkload>(p);
  if (kind == "em3d") return std::make_unique<Em3dWorkload>(p, seed);
  fail("workloads.json: unknown workload kind '" + kind + "'");
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

/// One engine's measured reps.
struct Series {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  /// Each rep's wall and CPU time over the median of the plain-C burst run
  /// just before it: the host's speed at that moment cancels out.
  std::vector<double> over_c;
  std::vector<double> cpu_over_c;
  Counts delta;  ///< counter deltas summed over the measured reps
  std::uint64_t allocs = 0;
  double inv_per_rep = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Bench {
 public:
  Bench(std::string workload, const JsonValue& params, std::uint64_t seed, double seconds,
        bool trace, bool smoke)
      : name_(std::move(workload)),
        params_(params),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        smoke_(smoke),
        w_(make_workload(params, seed)) {}

  int run(const std::string& json_path, const std::string& spans_path);

 private:
  void add(const std::string& name, const std::string& unit, double v) {
    metrics_.push_back(Metric{name, unit, v});
  }
  /// One program rep: run (timed into `out` unless it is a warm-up), check
  /// against the reference, restore the initial state.
  void rep(Instance& inst, Series* out, const char* label);
  /// One plain-C rep of the same computation.
  void c_rep(std::vector<double>* out);
  /// A measured program rep preceded by `burst` plain-C reps; records the
  /// rep's times relative to the burst's median.
  void paired_rep(Instance& inst, Series& out, const char* label, int burst);
  /// Builds the serial reference and the worlds the reps rotate over.
  void setup();
  /// One setup_s sample: world pairs (one world per engine) built and
  /// discarded back to back until their construction times add up to
  /// kSetupBatchS; the sample is a pair's mean construction time. A fib_seq
  /// pair takes ~40 us, so one sample averages over ~100 constructions
  /// rather than being a draw of one construction's heap state.
  void setup_sample();
  void measure();
  void end_to_end();
  void layers();
  void traced_reps();
  void write_json(const std::string& path) const;

  std::size_t min_reps(const char* key) const {
    return smoke_ ? 2 : static_cast<std::size_t>(need(params_, key));
  }
  int burst() const { return smoke_ ? 1 : static_cast<int>(need(params_, "c_reps_per_rep")); }
  int worlds() const { return smoke_ ? 1 : kWorlds; }

  std::string name_;
  JsonValue params_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  bool smoke_;
  std::unique_ptr<Workload> w_;
  SpanLog spans_{std::size_t{1} << 16};

  std::vector<std::unique_ptr<Instance>> thr_, sim_;
  std::vector<double> setup_samples_;
  Series thr_series_, sim_series_;
  std::vector<double> c_samples_;
  double rss0_mb_ = 0, rss1_mb_ = 0;
  std::string load_before_, load_after_;
  int attempted_ = 0;
  int failed_ = 0;
  bool ledger_flagged_ = false;
  std::vector<Metric> metrics_;
};

void Bench::rep(Instance& inst, Series* out, const char* label) {
  const Counts c0 = Counts::of(inst.m->total_stats());
  const std::uint64_t a0 = heap_allocs();
  const double cpu0 = cpu_s();
  const double t0 = wall_s();
  bool ok;
  {
    SpanLog::Scope s(spans_, label, "rep");
    ok = inst.run();
  }
  const double t1 = wall_s();
  const double cpu1 = cpu_s();
  const std::uint64_t a1 = heap_allocs();
  const Counts d = Counts::of(inst.m->total_stats()) - c0;
  {
    SpanLog::Scope s(spans_, "verify", "check");
    ok = inst.check() && ok;
  }
  {
    SpanLog::Scope s(spans_, "restore", "check");
    inst.restore();
  }
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "hem_bench: " << name_ << " " << label << " failed its reference check\n";
  }
  if (out == nullptr) return;
  out->wall_s.push_back(t1 - t0);
  out->cpu_s.push_back(cpu1 - cpu0);
  out->delta += d;
  out->allocs += a1 - a0;
  out->inv_per_rep = d.invocations();
}

void Bench::c_rep(std::vector<double>* out) {
  {
    SpanLog::Scope s(spans_, "restore", "check");
    w_->c_restore();
  }
  const double t0 = wall_s();
  {
    SpanLog::Scope s(spans_, out ? "c.rep" : "c.warmup", "rep");
    w_->c_run();
  }
  const double t1 = wall_s();
  ++attempted_;
  if (!w_->c_check()) {
    ++failed_;
    std::cerr << "hem_bench: " << name_ << " plain-C rep failed its reference check\n";
  }
  if (out != nullptr) out->push_back(t1 - t0);
}

void Bench::setup() {
  {
    SpanLog::Scope s(spans_, "reference", "setup");
    w_->reference();
  }
  // Reps rotate over several coexisting worlds per engine: a world keeps the
  // heap layout it was built with, and layout alone moves rep times by ~15%,
  // so a single world would make each run's median a draw of one layout.
  const MachineConfig cfg = bench_config();
  for (int i = 0; i < worlds(); ++i) {
    SpanLog::Scope s(spans_, "setup", "setup");
    thr_.push_back(w_->make(false, cfg, &spans_));
    sim_.push_back(w_->make(true, cfg, &spans_));
  }
  SpanLog::Scope s(spans_, "setup.c_baseline", "setup");
  w_->c_setup(*sim_.front());
}

void Bench::setup_sample() {
  SpanLog::Scope s(spans_, "setup.sample", "setup");
  const MachineConfig cfg = bench_config();
  double built_s = 0;
  int pairs = 0;
  do {
    built_s += w_->make(false, cfg, nullptr)->build_s;
    built_s += w_->make(true, cfg, nullptr)->build_s;
    ++pairs;
  } while (!smoke_ && built_s < kSetupBatchS);
  setup_samples_.push_back(built_s / pairs);
}

void Bench::paired_rep(Instance& inst, Series& out, const char* label, int burst) {
  std::vector<double> c;
  for (int i = 0; i < burst; ++i) c_rep(&c);
  c_samples_.insert(c_samples_.end(), c.begin(), c.end());
  const double c_med = median_of(std::move(c));
  rep(inst, &out, label);
  out.over_c.push_back(out.wall_s.back() / c_med);
  out.cpu_over_c.push_back(out.cpu_s.back() / c_med);
}

void Bench::measure() {
  const std::size_t min_thr = min_reps("min_thr_reps");
  const std::size_t min_sim = min_reps("min_sim_reps");
  const std::size_t min_setup = smoke_ ? 2 : kSetupReps;
  const double budget = smoke_ ? 0.0 : seconds_;

  for (std::size_t i = 0; i < thr_.size(); ++i) {
    for (int k = 0; k < kWarmupReps; ++k) {
      c_rep(nullptr);
      rep(*thr_[i], nullptr, "thr.warmup");
      rep(*sim_[i], nullptr, "sim.warmup");
    }
  }
  // The host's speed drifts over seconds to minutes (other tenants share its
  // cores), moving every absolute time by 15-50%. So every measured rep
  // follows a burst of plain-C runs of the same computation and is also
  // recorded relative to them, and the engines interleave over the whole
  // budget, each held to its share of the time. The setup_s samples are
  // spread over the run the same way, up to kSetupShare of the elapsed time.
  const double start = wall_s();
  double thr_time = 0, sim_time = 0, setup_time = 0;
  std::size_t next_thr = 0, next_sim = 0;
  for (;;) {
    const bool past = wall_s() - start >= budget;
    const bool thr_short = thr_series_.wall_s.size() < min_thr;
    const bool sim_short = sim_series_.wall_s.size() < min_sim;
    const bool setup_short = setup_samples_.size() < min_setup;
    if (past && !thr_short && !sim_short && !setup_short) break;
    if (!past || thr_short || sim_short) {
      const double t0 = wall_s();
      if (past ? thr_short : thr_time <= kThrShare * (thr_time + sim_time)) {
        paired_rep(*thr_[next_thr++ % thr_.size()], thr_series_, "thr.rep", burst());
        thr_time += wall_s() - t0;
      } else {
        paired_rep(*sim_[next_sim++ % sim_.size()], sim_series_, "sim.rep", burst());
        sim_time += wall_s() - t0;
      }
    }
    if (setup_short || setup_time < kSetupShare * (wall_s() - start)) {
      const double t0 = wall_s();
      setup_sample();
      setup_time += wall_s() - t0;
    }
  }
  rss1_mb_ = rss_mb();
}

void Bench::end_to_end() {
  add("thr_over_c", "ratio", median_of(thr_series_.over_c));
  add("thr_cpu_over_c", "ratio", median_of(thr_series_.cpu_over_c));
  add("hyb_over_c", "ratio", median_of(sim_series_.over_c));
  add("setup_s", "s", median_of(setup_samples_));
  add("mem_mb", "MB", rss1_mb_ - rss0_mb_);
  // Reported but not bounded by BENCHMARK.json. The tail: a one-node
  // threaded rep and its C burst run on different cores, so contention on
  // one core and not the other moves single ratios both ways. The absolute
  // forms follow the host's speed.
  add("thr_over_c_p75", "ratio", quantile(thr_series_.over_c, 3, 4));
  const double inv = thr_series_.inv_per_rep;
  add("thr_inv_per_s", "1/s", inv / median_of(thr_series_.wall_s));
  add("thr_rep_ms_p75", "ms", quantile(thr_series_.wall_s, 3, 4) * 1e3);
  add("thr_cpu_ns_per_inv", "ns", median_of(thr_series_.cpu_s) * 1e9 / inv);
  add("sim_inv_per_s", "1/s", sim_series_.inv_per_rep / median_of(sim_series_.wall_s));
}

void Bench::layers() {
  // Event counts per rep from the deterministic engine (the same every rep).
  const Counts s = sim_series_.delta.scaled(1.0 / static_cast<double>(sim_series_.wall_s.size()));
  const double inv = s.invocations();
  add("core.stack_calls_per_inv", "1/inv", ratio(s.stack_calls, inv));
  add("core.stack_hit_frac", "frac", ratio(s.stack_completions, s.stack_calls));
  add("core.fallbacks_per_inv", "1/inv", ratio(s.fallbacks, inv));
  add("core.contexts_per_inv", "1/inv", ratio(s.contexts_allocated, inv));
  add("core.suspensions_per_inv", "1/inv", ratio(s.suspensions, inv));
  add("core.proxy_contexts_per_inv", "1/inv", ratio(s.proxy_contexts, inv));
  add("machine.msgs_per_inv", "1/inv", ratio(s.msgs_sent, inv));
  add("machine.bytes_per_msg", "B/msg", ratio(s.bytes_sent, s.msgs_sent));

  // The threaded engine's inbox, parking and memory behaviour.
  const Counts& t = thr_series_.delta;
  const double thr_reps = static_cast<double>(thr_series_.wall_s.size());
  add("machine.inbox_batch_mean", "msgs", ratio(t.inbox_batched_msgs, t.inbox_batches));
  add("machine.parks_per_rep", "1/rep", t.inbox_parks / thr_reps);
  add("machine.park_wakeup_frac", "frac", ratio(t.park_wakeups, t.inbox_parks));
  add("support.allocs_per_inv", "1/inv",
      ratio(static_cast<double>(thr_series_.allocs), t.invocations()));
  add("support.ctx_recycle_frac", "frac", ratio(t.ctx_recycled, t.ctx_fresh + t.ctx_recycled));
  add("support.payload_hit_frac", "frac", ratio(t.payload_pool_hits, t.payload_acquires));
  add("support.payload_discards_per_msg", "1/msg", ratio(t.payload_discards, t.msgs_sent));

  ProbeScale scale;
  scale.nodes = w_->nodes();
  if (smoke_) {
    scale.ops = std::max<std::size_t>(64, scale.ops / 16);
    scale.batches = 3;
  }
  ProbeSet ps;
  for (const ProbeDef& d : kProbes) {
    SpanLog::Scope span(spans_, std::string("probe.") + d.metric, "probe");
    ps.*d.field = d.run(scale);
    add(d.metric, d.unit, ps.*d.field);
  }

  const Ledger l =
      sim_ledger(s, w_->calls_objects() ? inv : 0.0, median_of(sim_series_.wall_s) * 1e9, ps);
  add("ledger.core_frac", "frac", l.core);
  add("ledger.machine_frac", "frac", l.machine);
  add("ledger.support_frac", "frac", l.support);
  add("ledger.objects_frac", "frac", l.objects);
  add("ledger.unattributed_frac", "frac", l.unattributed);
  ledger_flagged_ = l.unattributed > 0.15;
  if (ledger_flagged_) {
    std::cerr << "hem_bench: " << name_ << " ledger leaves " << l.unattributed * 100.0
              << "% of sim rep time unattributed (flag threshold 15%)\n";
  }

  traced_reps();
}

/// Threaded reps on worlds with tracing and metrics on, measured apart from
/// the end-to-end reps and rotated over as many worlds as the untraced reps,
/// so both medians pool the same number of heap layouts. Their median
/// slowdown against the untraced median (both relative to their plain-C
/// bursts) is the tracing overhead; a single paired rep is too noisy for
/// that. The trace, and so the critical path, is the last rep's: its world's
/// rings are cleared before it runs. The histograms pool every traced rep.
void Bench::traced_reps() {
  SpanLog::Scope span(spans_, "traced", "trace");
  MachineConfig cfg = bench_config();
  cfg.trace = true;
  cfg.metrics = true;
  std::vector<std::unique_ptr<Instance>> traced_worlds;
  for (int i = 0; i < worlds(); ++i) {
    traced_worlds.push_back(w_->make(false, cfg, &spans_));
    Machine& m = *traced_worlds.back()->m;
    rep(*traced_worlds.back(), nullptr, "traced.warmup");
    for (NodeId n = 0; n < m.node_count(); ++n) *m.node(n).metrics() = NodeMetrics{};
  }
  Series traced;
  Instance* last = nullptr;
  for (int i = 0; i < (smoke_ ? 1 : kTracedReps); ++i) {
    last = traced_worlds[static_cast<std::size_t>(i) % traced_worlds.size()].get();
    for (NodeId n = 0; n < last->m->node_count(); ++n) last->m->node(n).tracer.clear();
    paired_rep(*last, traced, "traced.rep", burst());
  }
  const TraceDump dump = dump_trace(*last->m, /*wall_time=*/true);
  const CritPathReport cp = analyze_critical_path(dump);
  Histogram lat, depth;
  for (const auto& inst : traced_worlds) {
    for (NodeId n = 0; n < inst->m->node_count(); ++n) {
      lat += inst->m->node(n).metrics()->invoke_latency_ns;
      depth += inst->m->node(n).metrics()->inbox_depth;
    }
  }
  add("trace.overhead_frac", "frac",
      median_of(traced.over_c) / median_of(thr_series_.over_c) - 1.0);
  add("trace.critpath_compute_frac", "frac", ratio(cp.compute_us, cp.span_us));
  add("trace.critpath_network_frac", "frac", ratio(cp.network_us, cp.span_us));
  add("trace.critpath_wait_frac", "frac", ratio(cp.wait_us, cp.span_us));
  add("trace.critpath_sched_frac", "frac", ratio(cp.sched_us, cp.span_us));
  add("trace.attributed_frac", "frac", cp.attributed_frac);
  add("trace.invoke_latency_p50_ns", "ns", lat.quantile(0.5));
  add("trace.invoke_latency_p99_ns", "ns", lat.quantile(0.99));
  add("trace.inbox_depth_p50", "msgs", depth.quantile(0.5));
  add("trace.dropped_records", "count", static_cast<double>(dump.dropped));
}

void Bench::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) fail("cannot write " + path);
  os << "{\n  \"schema\": \"hem_bench/1\",\n  \"workload\": " << jstr(name_)
     << ",\n  \"seed\": " << seed_ << ",\n  \"seconds\": " << jnum(seconds_)
     << ",\n  \"trace\": " << (trace_ ? 1 : 0) << ",\n  \"smoke\": " << (smoke_ ? "true" : "false")
     << ",\n  \"params\": {";
  bool first = true;
  for (const auto& [key, value] : params_.obj) {
    if (key == "smoke") continue;
    os << (first ? "" : ", ") << jstr(key) << ": "
       << (value.is_number() ? jnum(value.number) : jstr(value.str));
    first = false;
  }
  os << "},\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"loadavg_before\": " << jstr(load_before_)
     << ", \"loadavg_after\": " << jstr(load_after_) << ", \"cpu_model\": " << jstr(cpu_model())
     << ", \"compiler\": " << jstr(__VERSION__) << ", \"build_type\": " << jstr(HEM_BUILD_TYPE)
     << "},\n  \"correct\": " << (failed_ == 0 ? "true" : "false")
     << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
     << ",\n  \"invocations_per_rep\": " << jnum(thr_series_.inv_per_rep)
     << ",\n  \"ledger_flagged\": " << (ledger_flagged_ ? "true" : "false")
     << ",\n  \"samples\": {\n    \"setup_s\": " << jarr(setup_samples_)
     << ",\n    \"thr_rep_s\": " << jarr(thr_series_.wall_s)
     << ",\n    \"thr_cpu_s\": " << jarr(thr_series_.cpu_s)
     << ",\n    \"thr_over_c\": " << jarr(thr_series_.over_c)
     << ",\n    \"sim_rep_s\": " << jarr(sim_series_.wall_s)
     << ",\n    \"sim_over_c\": " << jarr(sim_series_.over_c)
     << ",\n    \"c_rep_s\": " << jarr(c_samples_) << "\n  },\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << "    " << jstr(m.name) << ": {\"value\": " << jnum(m.value)
       << ", \"unit\": " << jstr(m.unit) << "}" << (i + 1 < metrics_.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
}

int Bench::run(const std::string& json_path, const std::string& spans_path) {
  load_before_ = first_line("/proc/loadavg");
  rss0_mb_ = rss_mb();
  setup();
  measure();
  end_to_end();
  if (trace_) layers();
  load_after_ = first_line("/proc/loadavg");

  write_json(json_path);
  {
    std::ofstream os(spans_path);
    if (!os) fail("cannot write " + spans_path);
    spans_.write_chrome(os);
  }
  std::cout << "hem_bench " << name_ << " (seed " << seed_ << ", " << thr_series_.wall_s.size()
            << " threaded + " << sim_series_.wall_s.size() << " sim reps, "
            << thr_series_.inv_per_rep << " invocations/rep): " << attempted_
            << " reps attempted, " << failed_ << " failed\n";
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-36s %16.6g %s", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line << "\n";
  }
  return failed_ == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line. Malformed input exits 2 with the usage line.
// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: hem_bench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]\n"
    "                 [--json PATH] [--spans PATH]\n";

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "hem_bench: " << msg << "\n" << kUsage;
  std::exit(2);
}

/// Non-negative decimal integer that fits in 64 bits, nothing else.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 77;
  std::uint64_t seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string json = "BENCH_hem.json";
  std::string spans = "BENCH_hem_spans.json";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (a == "--help" || a == "-h") {
      std::cout << kUsage;
      std::exit(0);
    }
    const bool takes_value = a == "--workload" || a == "--seed" || a == "--seconds" ||
                             a == "--trace" || a == "--json" || a == "--spans";
    if (!takes_value) usage_error("unknown argument '" + a + "'");
    if (i + 1 >= argc) usage_error(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, o.seed)) usage_error("--seed wants a non-negative integer, got '" + v + "'");
    } else if (a == "--seconds") {
      if (!parse_u64(v, o.seconds) || o.seconds == 0 || o.seconds > 3600) {
        usage_error("--seconds wants an integer in 1..3600, got '" + v + "'");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace wants 0 or 1, got '" + v + "'");
      o.trace = v == "1";
    } else if (a == "--json") {
      o.json = v;
    } else {
      o.spans = v;
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

}  // namespace
}  // namespace concert::hem

int main(int argc, char** argv) {
  using namespace concert;
  using namespace concert::hem;
  // Freed heap memory stays in the process: no chunk is served by mmap and
  // the heap top is never trimmed. Otherwise every construction (and many
  // reps) faults its memory in afresh, and on a VM the cost of a page fault
  // follows the host's load: over one host slowdown of 27%, sor_local's
  // setup_s moved 32% with the allocator defaults and 10% with these.
  // mem_mb still reads what the process holds, since rss_mb trims first.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const Options o = parse_args(argc, argv);
  const JsonValue workloads = load_workloads(HEM_WORKLOADS_JSON);
  const JsonValue* base = workloads.find(o.workload);
  if (base == nullptr) {
    std::string known;
    for (const auto& kv : workloads.obj) known += (known.empty() ? "" : ", ") + kv.first;
    usage_error("unknown workload '" + o.workload + "' (known: " + known + ")");
  }
  try {
    Bench bench(o.workload, workload_params(*base, o.smoke), o.seed,
                static_cast<double>(o.seconds), o.trace, o.smoke);
    return bench.run(o.json, o.spans);
  } catch (const std::exception& e) {
    std::cerr << "hem_bench: " << o.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
}
