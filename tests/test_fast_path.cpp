// The inline NB stack-hit path (Frame::call / ParFrame::spawn) against the
// general out-of-line path it short-circuits. MachineConfig::profile_sites
// observes individual calls, so it forces every call through the general
// path; the fast path must charge and count exactly what that path does —
// identical per-node clocks, invocation counters and results for every
// seqbench program and for SOR at both tile extremes. Also pins the cold
// failure branches: CONCERT_CHECK and the "NB callee fell back" panic keep
// their exception type and message on both paths.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
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
