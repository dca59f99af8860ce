// The inline NB stack-hit path (Frame::call / ParFrame::spawn) against the
// general out-of-line path it short-circuits. MachineConfig::profile_sites
// observes individual calls, so it forces every call through the general
// path; the fast path must charge and count exactly what that path does —
// identical per-node clocks, invocation counters and results for every
// seqbench program and for SOR at both tile extremes. The EveryMode pins
// hold both paths to recorded clocks and counters in every mode. Also pins
// the cold failure branches: CONCERT_CHECK and the "NB callee fell back"
// panic keep their exception type and message on both paths.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/sor/sor.hpp"
#include "core/invoke.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

MachineConfig general_path_config() {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.profile_sites = true;
  return cfg;
}

/// Per-node clocks and invocation counters must match node for node.
void expect_same_accounting(const Machine& fast, const Machine& general) {
  ASSERT_EQ(fast.node_count(), general.node_count());
  for (NodeId n = 0; n < fast.node_count(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const Node& a = fast.node(n);
    const Node& b = general.node(n);
    EXPECT_EQ(a.clock(), b.clock());
    EXPECT_EQ(a.stats.stack_calls, b.stats.stack_calls);
    EXPECT_EQ(a.stats.stack_completions, b.stats.stack_completions);
    EXPECT_EQ(a.stats.local_invokes, b.stats.local_invokes);
    EXPECT_EQ(a.stats.remote_invokes, b.stats.remote_invokes);
    EXPECT_EQ(a.stats.fallbacks, b.stats.fallbacks);
    EXPECT_EQ(a.stats.contexts_allocated, b.stats.contexts_allocated);
  }
}

/// One seqbench program: its root invocation, plus an optional qsort array.
struct SeqCase {
  const char* name;
  MethodId seqbench::Ids::*method;
  std::vector<Value> args;
  bool on_array = false;
};

void PrintTo(const SeqCase& c, std::ostream* os) { *os << c.name; }

struct SeqRun {
  std::unique_ptr<SimMachine> machine;
  Value result;
  std::vector<std::int64_t> array;
};

SeqRun run_seq(const SeqCase& c, const MachineConfig& cfg) {
  SeqRun r;
  r.machine = std::make_unique<SimMachine>(1, cfg);
  const seqbench::Ids ids = seqbench::register_seqbench(r.machine->registry(), false);
  r.machine->registry().finalize();
  const GlobalRef target =
      c.on_array ? seqbench::make_qsort_array(*r.machine, 0, 512, 2024) : kNoObject;
  r.result = r.machine->run_main(0, ids.*c.method, target, c.args);
  if (c.on_array) r.array = seqbench::array_values(*r.machine, target);
  return r;
}

class FastPathSeqbench : public ::testing::TestWithParam<SeqCase> {};

TEST_P(FastPathSeqbench, MatchesGeneralPath) {
  const SeqCase& c = GetParam();
  // Runs are sequential: seqbench method ids live in per-program globals.
  const SeqRun fast = run_seq(c, test_config(ExecMode::Hybrid3));
  const SeqRun general = run_seq(c, general_path_config());
  EXPECT_GT(fast.machine->total_stats().stack_calls, 0u);
  EXPECT_EQ(fast.result, general.result);
  EXPECT_EQ(fast.array, general.array);
  expect_same_accounting(*fast.machine, *general.machine);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, FastPathSeqbench,
    ::testing::Values(
        SeqCase{"fib", &seqbench::Ids::fib, {Value(16)}},
        SeqCase{"tak", &seqbench::Ids::tak, {Value(12), Value(6), Value(2)}},
        SeqCase{"nqueens", &seqbench::Ids::nqueens,
                {Value(7), Value::u64(0), Value::u64(0), Value::u64(0)}},
        SeqCase{"qsort", &seqbench::Ids::qsort, {Value(0), Value(512)}, /*on_array=*/true},
        SeqCase{"chain", &seqbench::Ids::chain, {Value(50)}},
        SeqCase{"ack", &seqbench::Ids::ack, {Value(2), Value(6)}},
        SeqCase{"cheby", &seqbench::Ids::cheby, {Value(14), Value(0.3)}}),
    [](const ::testing::TestParamInfo<SeqCase>& info) { return std::string(info.param.name); });

struct SorRun {
  std::unique_ptr<SimMachine> machine;
  std::vector<double> grid;
};

SorRun run_sor(std::size_t block, const MachineConfig& cfg) {
  sor::Params p;
  p.n = 32;
  p.pgrid = 2;
  p.block = block;
  p.iters = 2;
  SorRun r;
  r.machine = std::make_unique<SimMachine>(p.nodes(), cfg);
  const sor::Ids ids = sor::register_sor(r.machine->registry(), p);
  r.machine->registry().finalize();
  sor::World world = sor::build(*r.machine, ids, p);
  EXPECT_TRUE(sor::run(*r.machine, ids, world));
  r.grid = sor::extract(*r.machine, world);
  return r;
}

class FastPathSor : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FastPathSor, MatchesGeneralPath) {
  const SorRun fast = run_sor(GetParam(), test_config(ExecMode::Hybrid3));
  const SorRun general = run_sor(GetParam(), general_path_config());
  EXPECT_GT(fast.machine->total_stats().stack_completions, 0u);
  EXPECT_GT(fast.machine->total_stats().remote_invokes, 0u);
  EXPECT_EQ(fast.grid, general.grid);
  expect_same_accounting(*fast.machine, *general.machine);
}

INSTANTIATE_TEST_SUITE_P(TileExtremes, FastPathSor, ::testing::Values(1u, 16u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "block" + std::to_string(info.param);
                         });

// ---- exact pins, per mode ----
//
// The cases above compare the two paths with each other, in Hybrid3 only.
// These pin every mode's run to constants, so a change that moves a charge
// or a counter on the invoke paths fails here even when it moves both paths
// alike. Injected runs force MB (Hybrid3) and CP (Hybrid1) fallbacks from
// both sequential and parallel callers. A change that is meant to move the
// cost model re-records the table and says why.

/// A run's simulated end state: the latest node clock, the engine's action
/// count and the invocation counters summed over every node.
struct Pin {
  std::uint64_t max_clock, actions, stack_calls, stack_completions, fallbacks, heap_invokes,
      contexts_allocated, continuations_created, continuations_forwarded, proxy_contexts,
      local_invokes, remote_invokes, msgs_sent;
  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.max_clock << ", " << p.actions << ", " << p.stack_calls << ", "
            << p.stack_completions << ", " << p.fallbacks << ", " << p.heap_invokes << ", "
            << p.contexts_allocated << ", " << p.continuations_created << ", "
            << p.continuations_forwarded << ", " << p.proxy_contexts << ", " << p.local_invokes
            << ", " << p.remote_invokes << ", " << p.msgs_sent << "}";
}

Pin pin_of(const SimMachine& m) {
  const NodeStats s = m.total_stats();
  return {m.max_clock(),
          m.actions(),
          s.stack_calls,
          s.stack_completions,
          s.fallbacks,
          s.heap_invokes,
          s.contexts_allocated,
          s.continuations_created,
          s.continuations_forwarded,
          s.proxy_contexts,
          s.local_invokes,
          s.remote_invokes,
          s.msgs_sent};
}

/// One pinned run: a seqbench program (by name) or "sor" (SOR at block 1 on
/// 2x2 nodes), in `mode`; `inject` > 0 blocks each stack attempt with that
/// probability (distributed seqbench compile, so the callers may fall back).
struct PinCase {
  const char* program;
  ExecMode mode;
  double inject;
  Pin want;
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.program; }

constexpr std::uint64_t kInjectSeed = 77;

const SeqCase kPinnedPrograms[] = {
    {"fib", &seqbench::Ids::fib, {Value(16)}},
    {"tak", &seqbench::Ids::tak, {Value(12), Value(6), Value(2)}},
    {"nqueens", &seqbench::Ids::nqueens, {Value(7), Value::u64(0), Value::u64(0), Value::u64(0)}},
    {"qsort", &seqbench::Ids::qsort, {Value(0), Value(512)}, /*on_array=*/true},
    {"chain", &seqbench::Ids::chain, {Value(50)}},
    {"ack", &seqbench::Ids::ack, {Value(2), Value(6)}},
    {"cheby", &seqbench::Ids::cheby, {Value(14), Value(0.3)}},
};

Pin run_pinned(const PinCase& c, bool profile_sites) {
  MachineConfig cfg = test_config(c.mode);
  cfg.profile_sites = profile_sites;
  const auto inject = [&](Machine& m) {
    if (c.inject <= 0.0) return;
    for (NodeId n = 0; n < m.node_count(); ++n) {
      m.node(n).injector().set_probability(c.inject, kInjectSeed + n);
    }
  };
  if (std::string(c.program) == "sor") {
    sor::Params p;
    p.n = 32;
    p.pgrid = 2;
    p.block = 1;
    p.iters = 2;
    SimMachine m(p.nodes(), cfg);
    const sor::Ids ids = sor::register_sor(m.registry(), p);
    m.registry().finalize();
    sor::World world = sor::build(m, ids, p);
    inject(m);
    EXPECT_TRUE(sor::run(m, ids, world));
    EXPECT_EQ(sor::extract(m, world), sor::reference(p));
    EXPECT_EQ(m.live_contexts(), 0u);
    return pin_of(m);
  }
  for (const SeqCase& s : kPinnedPrograms) {
    if (std::string(s.name) != c.program) continue;
    SimMachine m(1, cfg);
    const seqbench::Ids ids = seqbench::register_seqbench(m.registry(), c.inject > 0.0);
    m.registry().finalize();
    const GlobalRef target =
        s.on_array ? seqbench::make_qsort_array(m, 0, 512, 2024) : kNoObject;
    inject(m);
    m.run_main(0, ids.*s.method, target, s.args);
    EXPECT_EQ(m.live_contexts(), 0u);
    return pin_of(m);
  }
  ADD_FAILURE() << "no program " << c.program;
  return {};
}

class InvokePins : public ::testing::TestWithParam<std::tuple<PinCase, bool>> {};

TEST_P(InvokePins, MatchRecordedAccounting) {
  const auto& [c, profile_sites] = GetParam();
  EXPECT_EQ(run_pinned(c, profile_sites), c.want);
}

constexpr ExecMode kH3 = ExecMode::Hybrid3;
constexpr ExecMode kH1 = ExecMode::Hybrid1;
constexpr ExecMode kPar = ExecMode::ParallelOnly;
constexpr ExecMode kSeq = ExecMode::SeqOpt;

const PinCase kPins[] = {
    {"fib", kH3, 0, {58777, 1, 3193, 3193, 0, 0, 1, 0, 0, 0, 3192, 0, 1}},
    {"tak", kH3, 0, {79201, 1, 4321, 4321, 0, 0, 1, 0, 0, 0, 4320, 0, 1}},
    {"nqueens", kH3, 0, {11479, 1, 552, 552, 0, 0, 1, 0, 0, 0, 551, 0, 1}},
    {"qsort", kH3, 0, {18903, 1, 874, 874, 0, 0, 1, 0, 0, 0, 873, 0, 1}},
    {"chain", kH3, 0, {2385, 1, 51, 51, 0, 0, 2, 0, 0, 1, 50, 0, 1}},
    {"ack", kH3, 0, {3565, 1, 119, 119, 0, 0, 1, 0, 0, 0, 118, 0, 1}},
    {"cheby", kH3, 0, {23365, 1, 1219, 1219, 0, 0, 1, 0, 0, 0, 1218, 0, 1}},
    {"sor", kH3, 0, {2427496, 18056, 10820, 9000, 1804, 0, 1820, 4, 0, 12, 3604, 7212, 14428}},
    {"fib", kH1, 0, {65225, 1, 3193, 3193, 0, 0, 2, 0, 0, 1, 3192, 0, 1}},
    {"tak", kH1, 0, {87905, 1, 4321, 4321, 0, 0, 2, 0, 0, 1, 4320, 0, 1}},
    {"nqueens", kH1, 0, {12645, 1, 552, 552, 0, 0, 2, 0, 0, 1, 551, 0, 1}},
    {"qsort", kH1, 0, {20713, 1, 874, 874, 0, 0, 2, 0, 0, 1, 873, 0, 1}},
    {"chain", kH1, 0, {2385, 1, 51, 51, 0, 0, 2, 0, 0, 1, 50, 0, 1}},
    {"ack", kH1, 0, {3865, 1, 119, 119, 0, 0, 2, 0, 0, 1, 118, 0, 1}},
    {"cheby", kH1, 0, {25865, 1, 1219, 1219, 0, 0, 2, 0, 0, 1, 1218, 0, 1}},
    {"sor", kH1, 0, {2551761, 18056, 10820, 9000, 1804, 0, 9024, 1804, 0, 7216, 3604, 7212, 14428}},
    {"fib", kPar, 0, {384440, 4790, 0, 0, 0, 3193, 3194, 0, 0, 0, 3192, 0, 1}},
    {"tak", kPar, 0, {537204, 6482, 0, 0, 0, 4321, 4322, 0, 0, 0, 4320, 0, 1}},
    {"nqueens", kPar, 0, {73690, 911, 0, 0, 0, 552, 553, 0, 0, 0, 551, 0, 1}},
    {"qsort", kPar, 0, {112102, 1457, 0, 0, 0, 874, 875, 0, 0, 0, 873, 0, 1}},
    {"chain", kPar, 0, {5900, 52, 0, 0, 0, 51, 52, 0, 50, 0, 50, 0, 1}},
    {"ack", kPar, 0, {17586, 238, 0, 0, 0, 119, 120, 0, 0, 0, 118, 0, 1}},
    {"cheby", kPar, 0, {150118, 1829, 0, 0, 0, 1219, 1220, 0, 0, 0, 1218, 0, 1}},
    {"sor", kPar, 0, {2576148, 27080, 0, 0, 0, 10820, 10824, 0, 0, 0, 3604, 7212, 14428}},
    {"fib", kSeq, 0, {36433, 1, 3193, 3193, 0, 0, 1, 0, 0, 0, 3192, 0, 1}},
    {"tak", kSeq, 0, {48961, 1, 4321, 4321, 0, 0, 1, 0, 0, 0, 4320, 0, 1}},
    {"nqueens", kSeq, 0, {7622, 1, 552, 552, 0, 0, 1, 0, 0, 0, 551, 0, 1}},
    {"qsort", kSeq, 0, {11046, 1, 874, 874, 0, 0, 1, 0, 0, 0, 873, 0, 1}},
    {"chain", kSeq, 0, {2035, 1, 51, 51, 0, 0, 2, 0, 0, 1, 50, 0, 1}},
    {"ack", kSeq, 0, {2739, 1, 119, 119, 0, 0, 1, 0, 0, 0, 118, 0, 1}},
    {"cheby", kSeq, 0, {14839, 1, 1219, 1219, 0, 0, 1, 0, 0, 0, 1218, 0, 1}},
    {"sor", kSeq, 0, {2406768, 18056, 10820, 9000, 1804, 0, 1820, 4, 0, 12, 3604, 7212, 14428}},
    {"fib", kH3, 0.1, {156864, 1219, 2879, 2264, 615, 314, 930, 0, 0, 0, 3192, 0, 1}},
    {"tak", kH3, 0.1, {198191, 1438, 3902, 3275, 627, 419, 1047, 0, 0, 0, 4320, 0, 1}},
    {"nqueens", kH3, 0.1, {28402, 179, 500, 402, 98, 52, 151, 0, 0, 0, 551, 0, 1}},
    {"qsort", kH3, 0.1, {43061, 298, 786, 652, 134, 88, 223, 0, 0, 0, 873, 0, 1}},
    {"chain", kH3, 0.1, {2973, 5, 47, 4, 0, 4, 10, 0, 8, 5, 50, 0, 1}},
    {"ack", kH3, 0.1, {9321, 69, 106, 63, 43, 13, 57, 0, 0, 0, 118, 0, 1}},
    {"cheby", kH3, 0.1, {57681, 417, 1110, 901, 209, 109, 319, 0, 0, 0, 1218, 0, 1}},
    {"sor", kH3, 0.1, {2432061, 18243, 10464, 8821, 1627, 356, 1999, 4, 0, 12, 3604, 7212, 14428}},
    {"fib", kH1, 0.1, {165647, 1219, 2879, 2264, 615, 314, 931, 614, 0, 1, 3192, 0, 1}},
    {"tak", kH1, 0.1, {208210, 1438, 3902, 3275, 627, 419, 1048, 626, 0, 1, 4320, 0, 1}},
    {"nqueens", kH1, 0.1, {29891, 179, 500, 402, 98, 52, 152, 97, 0, 1, 551, 0, 1}},
    {"qsort", kH1, 0.1, {45487, 298, 786, 652, 134, 88, 224, 133, 0, 1, 873, 0, 1}},
    {"chain", kH1, 0.1, {2973, 5, 47, 4, 0, 4, 10, 0, 8, 5, 50, 0, 1}},
    {"ack", kH1, 0.1, {9882, 69, 106, 63, 43, 13, 58, 42, 0, 1, 118, 0, 1}},
    {"cheby", kH1, 0.1, {60836, 417, 1110, 901, 209, 109, 320, 208, 0, 1, 1218, 0, 1}},
    {"sor", kH1, 0.1, {2578337, 18243, 10464, 8821, 1627, 356, 9203, 1627, 0, 7216, 3604, 7212, 14428}},
};

std::string pin_name(const ::testing::TestParamInfo<std::tuple<PinCase, bool>>& info) {
  const auto& [c, profile_sites] = info.param;
  static const char* const kModes[] = {"Hybrid3", "Hybrid1", "ParallelOnly", "SeqOpt"};
  std::string name = std::string(c.program) + "_" + kModes[static_cast<int>(c.mode)];
  if (c.inject > 0.0) name += "_injected";
  return name + (profile_sites ? "_sites" : "_plain");
}

INSTANTIATE_TEST_SUITE_P(EveryMode, InvokePins,
                         ::testing::Combine(::testing::ValuesIn(kPins), ::testing::Bool()),
                         pin_name);

// ---- cold failure branches ----

/// Runs `f`, which must throw ProtocolError with `needle` in its message.
void expect_protocol_error(const std::function<void()>& f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "no ProtocolError thrown";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(ColdChecks, ValueTagCheckStillThrows) {
  EXPECT_THROW((void)Value::nil().as_i64(), ProtocolError);
  expect_protocol_error([] { (void)Value::nil().as_i64(); }, "wanted i64");
}

MethodId g_liar = kInvalidMethod;

/// Declared non-blocking, yet hands a context back up the stack.
Context* liar_seq(Node& nd, Value*, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  return &nd.alloc_context(g_liar);
}
void liar_par(Node&, Context&) { CONCERT_UNREACHABLE("liar_par"); }

std::unique_ptr<SimMachine> liar_machine(const MachineConfig& cfg) {
  auto m = std::make_unique<SimMachine>(1, cfg);
  MethodDecl d;
  d.name = "liar";
  d.seq = liar_seq;
  d.par = liar_par;
  d.frame_slots = 1;
  g_liar = m->registry().declare(d);
  m->registry().finalize();
  return m;
}

class NbFallbackPanic : public ::testing::TestWithParam<bool> {
 protected:
  MachineConfig config() const {
    return GetParam() ? general_path_config() : test_config(ExecMode::Hybrid3);
  }
};

TEST_P(NbFallbackPanic, FromSequentialCaller) {
  auto m = liar_machine(config());
  ASSERT_EQ(m->registry().schema(g_liar), Schema::NonBlocking);
  Frame f(m->node(0), kInvalidMethod, kNoObject, CallerInfo::none(), nullptr, 0);
  Value out;
  expect_protocol_error([&] { f.call(g_liar, kNoObject, {}, 0, &out); },
                        "non-blocking callee liar returned a fallback context");
}

TEST_P(NbFallbackPanic, FromParallelCaller) {
  auto m = liar_machine(config());
  Node& nd = m->node(0);
  ParFrame f(nd, nd.alloc_context_raw(kInvalidMethod, 1));
  expect_protocol_error([&] { f.spawn(g_liar, kNoObject, {}, 0); },
                        "non-blocking callee liar returned a fallback context");
}

INSTANTIATE_TEST_SUITE_P(BothPaths, NbFallbackPanic, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "general" : "fast");
                         });

}  // namespace
}  // namespace concert
