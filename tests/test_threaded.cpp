// The std::thread-per-node engine: real concurrency, quiescence detection,
// protocol errors raised on node threads, messages visible before the slice
// that sent them ends, and agreement with the deterministic engine's
// results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/invoke.hpp"
#include "support/json.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

TEST(ThreadedMachineTest, EmptyMachineQuiesces) {
  ThreadedMachine m(4, test_config());
  m.registry().finalize();
  m.run_until_quiescent();  // must not hang
  SUCCEED();
}

TEST(ThreadedMachineTest, SingleNodeFib) {
  ThreadedMachine m(1, test_config(ExecMode::Hybrid3));
  auto ids = seqbench::register_seqbench(m.registry(), false);
  m.registry().finalize();
  EXPECT_EQ(m.run_main(0, ids.fib, kNoObject, {Value(18)}).as_i64(), seqbench::fib_c(18));
  EXPECT_EQ(m.live_contexts(), 0u);
}

class ThreadedModes : public ::testing::TestWithParam<ExecMode> {};

TEST_P(ThreadedModes, RemoteQsortAcrossNodes) {
  ThreadedMachine m(4, test_config(GetParam()));
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  const GlobalRef arr = seqbench::make_qsort_array(m, 3, 256, 99);
  const Value v = m.run_main(0, ids.qsort, arr, {Value(0), Value(256)});
  EXPECT_GT(v.as_i64(), 0);
  EXPECT_TRUE(std::is_sorted(seqbench::array_values(m, arr).begin(),
                             seqbench::array_values(m, arr).end()));
  EXPECT_EQ(m.live_contexts(), 0u);
  const NodeStats s = m.total_stats();
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
}

INSTANTIATE_TEST_SUITE_P(Modes, ThreadedModes,
                         ::testing::Values(ExecMode::Hybrid3, ExecMode::Hybrid1,
                                           ExecMode::ParallelOnly));

TEST(ThreadedMachineTest, AgreesWithSimEngine) {
  auto run = [](Machine& m, const seqbench::Ids& ids) {
    return m.run_main(0, ids.tak, kNoObject, {Value(9), Value(5), Value(2)}).as_i64();
  };
  SimMachine sim(2, test_config(ExecMode::Hybrid3));
  auto sim_ids = seqbench::register_seqbench(sim.registry(), true);
  sim.registry().finalize();
  const auto a = run(sim, sim_ids);

  ThreadedMachine thr(2, test_config(ExecMode::Hybrid3));
  auto thr_ids = seqbench::register_seqbench(thr.registry(), true);
  thr.registry().finalize();
  const auto b = run(thr, thr_ids);

  EXPECT_EQ(a, b);
  EXPECT_EQ(a, seqbench::tak_c(9, 5, 2));
}

TEST(ThreadedMachineTest, BackToBackPrograms) {
  ThreadedMachine m(2, test_config(ExecMode::Hybrid3));
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(m.run_main(i % 2, ids.fib, kNoObject, {Value(12)}).as_i64(),
              seqbench::fib_c(12));
  }
  EXPECT_EQ(m.live_contexts(), 0u);
}

TEST(ThreadedMachineTest, ChainAcrossRuns) {
  ThreadedMachine m(3, test_config(ExecMode::Hybrid3));
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  EXPECT_EQ(m.run_main(1, ids.chain, kNoObject, {Value(40)}).as_i64(), 42);
}

// ---- protocol errors on node threads ----

MethodId g_liar = kInvalidMethod;

/// Declared non-blocking, yet hands a context back up the stack: the
/// wrapper's "fell back" check fails on the node thread that runs it.
Context* liar_seq(Node& nd, Value*, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  return &nd.alloc_context(g_liar);
}
void liar_par(Node&, Context&) { CONCERT_UNREACHABLE("liar_par"); }

/// Retires one work credit it never created.
Context* overdraw_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                      std::size_t) {
  nd.work_retired();
  *ret = Value(std::int64_t{1});
  return nullptr;
}
void overdraw_par(Node&, Context&) { CONCERT_UNREACHABLE("overdraw_par"); }

MethodId declare_leaf(MethodRegistry& reg, const char* name, SeqFn seq, ParStep par) {
  MethodDecl d;
  d.name = name;
  d.seq = seq;
  d.par = par;
  d.frame_slots = 1;
  return reg.declare(d);
}

TEST(ThreadedFailure, NodeThreadProtocolErrorReachesCaller) {
  const std::string path = "PM_test_threaded_panic.json";
  std::remove(path.c_str());
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.postmortem_path = path;
  ThreadedMachine m(4, cfg);
  g_liar = declare_leaf(m.registry(), "liar", liar_seq, liar_par);
  m.registry().finalize();
  ASSERT_EQ(m.registry().schema(g_liar), Schema::NonBlocking);
  try {
    (void)m.run_main(2, g_liar, kNoObject, {});
    ADD_FAILURE() << "no ProtocolError thrown";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("non-blocking method liar fell back"), std::string::npos)
        << e.what();
  }
  // The error left the run through the panic postmortem.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "postmortem missing: " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(ss.str(), doc, &err)) << err;
  EXPECT_EQ(doc.str_or("reason", ""), "panic");
  std::remove(path.c_str());
}

TEST(ThreadedFailure, ExtraRetireIsReportedAsImbalance) {
  // Depending on when the monitor polls, the extra retire shows as more
  // retires than creates mid-run, or as unequal sums (or a stranded message)
  // after the join; every interleaving must end in the same error, never in
  // a hang or std::terminate. Fresh machines: the imbalance outlives a run.
  for (int round = 0; round < 20; ++round) {
    ThreadedMachine m(4, test_config(ExecMode::Hybrid3));
    const MethodId overdraw = declare_leaf(m.registry(), "overdraw", overdraw_seq, overdraw_par);
    m.registry().finalize();
    try {
      (void)m.run_main(static_cast<NodeId>(round % 4), overdraw, kNoObject, {});
      ADD_FAILURE() << "round " << round << ": no ProtocolError thrown";
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("work-credit imbalance"), std::string::npos)
          << e.what();
    }
  }
}

// flood(): on one long slice, sends more than a channel segment of mark()
// invocations to another node, then waits (up to 10 s) until one of them has
// run there. It returns 1 if one did: the sends were published while the
// slice still ran.
MethodId g_mark = kInvalidMethod;
GlobalRef g_mark_target;
std::atomic<bool> g_marked{false};

Context* mark_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  g_marked.store(true, std::memory_order_release);
  *ret = Value::nil();
  return nullptr;
}
void mark_par(Node&, Context&) { CONCERT_UNREACHABLE("mark_par"); }

Context* flood_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                   std::size_t) {
  for (std::size_t i = 0; i < ChannelFifo<Message>::kSeg + 8; ++i) {
    remote_invoke(nd, g_mark, g_mark_target, nullptr, 0, kNoContinuation);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!g_marked.load(std::memory_order_acquire) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  *ret = Value(std::int64_t{g_marked.load(std::memory_order_acquire) ? 1 : 0});
  return nullptr;
}
void flood_par(Node&, Context&) { CONCERT_UNREACHABLE("flood_par"); }

struct MarkObj {};

TEST(ThreadedMachineTest, LongSliceSendsBecomeVisibleBeforeItEnds) {
  ThreadedMachine m(2, test_config(ExecMode::Hybrid3));
  g_mark = declare_leaf(m.registry(), "mark", mark_seq, mark_par);
  const MethodId flood = declare_leaf(m.registry(), "flood", flood_seq, flood_par);
  m.registry().finalize();
  g_mark_target = m.node(1).objects().create<MarkObj>(0x4d41u).first;
  g_marked.store(false);
  EXPECT_EQ(m.run_main(0, flood, kNoObject, {}).as_i64(), 1);
  EXPECT_EQ(m.live_contexts(), 0u);
  const NodeStats s = m.total_stats();
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
}

}  // namespace
}  // namespace concert
