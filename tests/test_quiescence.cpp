// Quiescence stress for the threaded engine: many short back-to-back 4-node
// programs whose work is mostly cross-node messages (SOR in 1x1 tiles, EM3D
// push with remote edges, distributed qsort, a token ring). Each run ends when the
// monitor's summed work credits balance; declaring that too early strands
// messages or cuts a program short, which shows up here as a result that
// differs from the serial reference, a leaked context, a send/receive
// mismatch, or the engine's own work-credit imbalance check. The SOR and
// EM3D rounds rotate over the delivery paths whose credits retire
// differently: per-message and merged-wave delivery, each with immediate
// sends and with every send staged until its node idles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/sor/sor.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

constexpr std::size_t kNodes = 4;
constexpr int kRounds = 100;  // four programs per round: 400 runs

/// The config for `round`: the default, merge_waves,
/// FlushPolicy::flush_on_idle, then both, two rounds each, so that every
/// config runs both of SOR's iteration counts.
MachineConfig delivery_config(int round) {
  const int k = (round / 2) % 4;
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.merge_waves = (k & 1) != 0;
  if ((k & 2) != 0) cfg.flush_policy = FlushPolicy::flush_on_idle();
  return cfg;
}

void expect_conserved(const Machine& m) {
  EXPECT_EQ(m.live_contexts(), 0u);
  const NodeStats s = m.total_stats();
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
}

/// SOR n=24 in 1x1 tiles: every neighbour read crosses a node boundary.
void sor_round(int round) {
  const sor::Params p{24, 2, 1, 1 + round % 2};
  ThreadedMachine m(p.nodes(), delivery_config(round));
  const auto ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  auto world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world)) << "round " << round;
  const std::vector<double> got = sor::extract(m, world);
  const std::vector<double> want = sor::reference(p);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << "round " << round << " cell " << k;
  }
  expect_conserved(m);
}

/// EM3D push with 90% remote edges: one-way messages into remote inboxes.
void em3d_round(int round) {
  em3d::Params p;
  p.graph_nodes = 96;
  p.degree = 4;
  p.iters = 2;
  p.local_fraction = 0.1;
  p.seed = 500 + static_cast<std::uint64_t>(round);
  ThreadedMachine m(kNodes, delivery_config(round));
  const auto ids = em3d::register_em3d(m.registry(), p, kNodes);
  m.registry().finalize();
  auto world = em3d::build(m, ids, p);
  ASSERT_TRUE(em3d::run(m, ids, world, em3d::Version::Push)) << "round " << round;
  const std::vector<double> got = em3d::extract(m, world);
  const std::vector<double> want = em3d::reference(p, kNodes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << "round " << round << " graph node " << k;
  }
  expect_conserved(m);
}

/// Distributed qsort on one long-lived machine: the array lives on one node
/// and the root runs on another, so every partition step is a remote call.
void qsort_round(Machine& m, const seqbench::Ids& ids, int round) {
  constexpr std::size_t kCount = 128;
  const NodeId home = static_cast<NodeId>(round % kNodes);
  const GlobalRef arr = seqbench::make_qsort_array(m, home, kCount, 1000 + round);
  std::vector<std::int64_t> want = seqbench::array_values(m, arr);
  const std::int64_t want_ret = seqbench::qsort_c(want);
  const NodeId where = static_cast<NodeId>((round + 1) % kNodes);
  const Value v = m.run_main(where, ids.qsort, arr, {Value(0), Value(std::int64_t{kCount})});
  ASSERT_EQ(v.as_i64(), want_ret) << "round " << round;
  ASSERT_EQ(seqbench::array_values(m, arr), want) << "round " << round;
  expect_conserved(m);
}

/// A token passed around the ring of nodes as a reactive message, one hop at
/// a time. The live credit count keeps dropping to one, the state in which an
/// unsound read order most easily sees balanced sums. Each visit counts on
/// the visited node; only that node's thread writes its counter.
MethodId g_token = kInvalidMethod;
std::vector<std::int64_t> g_visits(kNodes);

Context* token_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                   std::size_t) {
  ++g_visits[nd.id()];
  const std::int64_t left = args[0].as_i64();
  if (left > 0) {
    std::vector<Value> payload = nd.acquire_payload(1);
    payload.push_back(Value(left - 1));
    const NodeId next = static_cast<NodeId>((nd.id() + 1) % kNodes);
    nd.send(Message::invoke(nd.id(), next, g_token, kNoObject, std::move(payload),
                            kNoContinuation));
  }
  *ret = Value(left);
  return nullptr;
}
void token_par(Node&, Context&) { CONCERT_UNREACHABLE("token_par"); }

void declare_token(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "token";
  d.seq = token_seq;
  d.par = token_par;
  d.arg_count = 1;
  g_token = reg.declare(d);
}

void token_round(Machine& m, int round) {
  const std::int64_t hops = 150 + round % 8;
  const NodeId start = static_cast<NodeId>(round % kNodes);
  std::fill(g_visits.begin(), g_visits.end(), 0);
  std::vector<std::int64_t> want(kNodes, 0);
  for (std::int64_t k = 0; k <= hops; ++k) ++want[(start + k) % kNodes];
  ASSERT_EQ(m.run_main(start, g_token, kNoObject, {Value(hops)}).as_i64(), hops);
  ASSERT_EQ(g_visits, want) << "round " << round;
  expect_conserved(m);
}

TEST(QuiescenceStress, BackToBackCrossNodePrograms) {
  ThreadedMachine qm(kNodes, test_config(ExecMode::Hybrid3));
  const auto qids = seqbench::register_seqbench(qm.registry(), true);
  declare_token(qm.registry());
  qm.registry().finalize();
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_NO_FATAL_FAILURE(sor_round(round));
    ASSERT_NO_FATAL_FAILURE(em3d_round(round));
    ASSERT_NO_FATAL_FAILURE(qsort_round(qm, qids, round));
    ASSERT_NO_FATAL_FAILURE(token_round(qm, round));
  }
}

}  // namespace
}  // namespace concert
