// concert-race tests: the static racing-pair / commutativity analysis
// (src/verify/race), the vector-clock delivery-order sanitizer (recorder +
// conformance), and the sim engine's seeded delivery-order shuffle.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/sor/sor.hpp"
#include "core/invoke.hpp"
#include "machine/message.hpp"
#include "machine/sim_machine.hpp"
#include "test_util.hpp"
#include "verify/conformance.hpp"
#include "verify/lint.hpp"
#include "verify/race.hpp"

namespace concert {
namespace {

using testing::test_config;
using verify::LintCode;
using verify::RaceAnalysis;
using verify::RacePair;
using verify::VerifyRecorder;
using verify::ViolationKind;

// ===========================================================================
// Static analysis
// ===========================================================================

Context* dummy_seq(Node&, Value*, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  return nullptr;
}
void dummy_par(Node&, Context&) {}

MethodInfo eff(const char* name, std::uint32_t class_id, std::vector<std::string> reads,
               std::vector<std::string> writes, bool blocks = false) {
  MethodInfo m;
  m.name = name;
  m.seq = dummy_seq;
  m.par = dummy_par;
  m.class_id = class_id;
  m.reads = std::move(reads);
  m.writes = std::move(writes);
  m.blocks_locally = blocks;
  return m;
}

TEST(Race, WriteWritePairFlagged) {
  const std::vector<MethodInfo> methods = {eff("a", 1, {}, {"x"}), eff("b", 1, {"y"}, {"x"})};
  const RaceAnalysis r = verify::analyze_races(methods);
  // a writes x and b writes x: a~a, a~b and b~b all conflict on x.
  ASSERT_EQ(r.races.size(), 3u);
  EXPECT_TRUE(r.flagged(0, 0));
  EXPECT_TRUE(r.flagged(0, 1));
  EXPECT_TRUE(r.flagged(1, 0));  // normalized: order must not matter
}

TEST(Race, SelfPairFlagged) {
  // One replicated method whose waves write the same field races with its
  // own replicas.
  const std::vector<MethodInfo> methods = {eff("m", 1, {}, {"v"})};
  const RaceAnalysis r = verify::analyze_races(methods);
  ASSERT_EQ(r.races.size(), 1u);
  EXPECT_EQ(r.races[0].a, 0u);
  EXPECT_EQ(r.races[0].b, 0u);
  EXPECT_EQ(r.races[0].fields, std::vector<std::string>{"v"});
}

TEST(Race, ReadReadAndDisjointEffectsClean) {
  std::vector<MethodInfo> methods = {
      eff("r1", 1, {"x"}, {}), eff("r2", 1, {"x"}, {}),  // read/read: fine
      eff("w1", 2, {}, {"a"}), eff("w2", 2, {}, {"b"}),  // disjoint writes: fine
  };
  // Writers still race with their own replicas (w1~w1, w2~w2) — annotate
  // those away so the cross-pair verdicts are what's under test.
  methods[2].commutes_with = {2};
  methods[3].commutes_with = {3};
  EXPECT_TRUE(verify::analyze_races(methods).races.empty());
}

TEST(Race, EmptyEffectSetsOptOut) {
  // Methods that never declared effects predate the analysis: no diagnostics,
  // even against a declared writer of the same class.
  const std::vector<MethodInfo> methods = {eff("legacy", 1, {}, {}), eff("w", 1, {}, {"x"})};
  const RaceAnalysis r = verify::analyze_races(methods);
  ASSERT_EQ(r.races.size(), 1u);  // only w ~ w
  EXPECT_EQ(r.races[0].a, 1u);
  EXPECT_EQ(r.races[0].b, 1u);
}

TEST(Race, ClassAliasing) {
  // Distinct non-zero classes never alias; class 0 conservatively aliases
  // everything (same rule as the deadlock detector).
  std::vector<MethodInfo> methods = {eff("w1", 1, {}, {"x"}), eff("w2", 2, {}, {"x"})};
  methods[0].commutes_with = {0};  // silence the self-pairs
  methods[1].commutes_with = {1};
  EXPECT_TRUE(verify::analyze_races(methods).races.empty());
  methods[1].class_id = 0;
  EXPECT_TRUE(verify::analyze_races(methods).flagged(0, 1));
}

TEST(Race, CommutesAnnotationSuppresses) {
  std::vector<MethodInfo> methods = {eff("inc", 1, {}, {"n"}), eff("dec", 1, {}, {"n"})};
  methods[0].commutes_with = {0, 1};  // inc~inc, inc~dec (one direction suffices)
  methods[1].commutes_with = {1};
  EXPECT_TRUE(verify::analyze_races(methods).races.empty());
}

TEST(Race, BarrierSeparationOrdersCalleeWaves) {
  std::vector<MethodInfo> methods = {
      eff("driver", 2, {}, {}, /*blocks=*/true),
      eff("fill", 1, {}, {"buf"}),
      eff("drain", 1, {"buf"}, {"out"}),
  };
  methods[0].callees = {1, 2};
  methods[1].commutes_with = {1};  // each wave is benign against itself
  methods[2].commutes_with = {2};
  EXPECT_TRUE(verify::analyze_races(methods).flagged(1, 2));
  methods[0].barrier_separated = {{1, 2}};
  EXPECT_TRUE(verify::analyze_races(methods).races.empty());
}

TEST(Race, AtomicitySplitsTheDiagnostic) {
  // Run-to-completion pair: ordering problem only (NonCommutativeDelivery).
  std::vector<MethodInfo> methods = {eff("a", 1, {}, {"x"}), eff("b", 1, {}, {"x"})};
  RaceAnalysis r = verify::analyze_races(methods);
  for (const RacePair& p : r.races) EXPECT_TRUE(p.both_atomic);

  // One side can suspend mid-body: true interleaving race (RacingPair).
  methods[1].blocks_locally = true;
  r = verify::analyze_races(methods);
  ASSERT_TRUE(r.flagged(0, 1));
  for (const RacePair& p : r.races) {
    if (p.a == 0 && p.b == 1) {
      EXPECT_FALSE(p.both_atomic);
    }
  }

  // ...unless the suspending side holds its object's implicit lock.
  methods[1].locks_self = true;
  r = verify::analyze_races(methods);
  for (const RacePair& p : r.races) EXPECT_TRUE(p.both_atomic);
}

TEST(Race, LintMapsAtomicityToDiagnosticCode) {
  std::vector<MethodInfo> methods = {eff("a", 1, {}, {"x"}, /*blocks=*/true),
                                     eff("b", 1, {}, {"x"})};
  methods[0].commutes_with = {0};
  methods[1].commutes_with = {1};
  verify::LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::RacingPair));
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.to_string().find("[racing-pair]"), std::string::npos) << report.to_string();

  methods[0].blocks_locally = false;
  report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::NonCommutativeDelivery));
  EXPECT_FALSE(report.has(LintCode::RacingPair));
}

TEST(Race, WitnessesNameTheCommonSpawner) {
  // root -> p -> a and root -> q -> b: the dual witness must root both
  // chains at the concurrent send site.
  std::vector<MethodInfo> methods = {
      eff("root", 9, {}, {}, /*blocks=*/true),
      eff("p", 9, {}, {}),
      eff("q", 9, {}, {}),
      eff("a", 1, {}, {"x"}),
      eff("b", 1, {}, {"x"}),
  };
  methods[0].callees = {1, 2};
  methods[1].callees = {3};
  methods[2].callees = {4};
  methods[3].commutes_with = {3};
  methods[4].commutes_with = {4};
  const RaceAnalysis r = verify::analyze_races(methods);
  ASSERT_EQ(r.races.size(), 1u);
  const RacePair& race = r.races[0];
  EXPECT_EQ(race.spawner, 0u);
  EXPECT_EQ(race.witness_a, (std::vector<MethodId>{0, 1, 3}));
  EXPECT_EQ(race.witness_b, (std::vector<MethodId>{0, 2, 4}));
  const std::string s = verify::format_race(methods, race);
  EXPECT_NE(s.find("a ~ b"), std::string::npos) << s;
  EXPECT_NE(s.find("root -> p -> a | root -> q -> b"), std::string::npos) << s;
}

TEST(Race, ShippedAppRegistriesAreRaceClean) {
  // The full lint (which now includes the race pass) is checked app-by-app in
  // test_verify; here assert the race analysis specifically finds nothing on
  // the effect-annotated SOR registry.
  MethodRegistry reg;
  sor::register_sor(reg, {});
  reg.finalize();
  EXPECT_TRUE(verify::analyze_races(reg.methods()).races.empty());
}

// ===========================================================================
// Vector clocks
// ===========================================================================

TEST(VectorClock, ConcurrencyPredicate) {
  using V = std::vector<std::uint32_t>;
  EXPECT_TRUE(VerifyRecorder::vclocks_concurrent(V{1, 0}, V{0, 1}));
  EXPECT_FALSE(VerifyRecorder::vclocks_concurrent(V{1, 1}, V{1, 0}));  // second ≤ first
  EXPECT_FALSE(VerifyRecorder::vclocks_concurrent(V{2, 3}, V{2, 3}));  // equal
  // Shorter stamps are zero-padded, not rejected.
  EXPECT_TRUE(VerifyRecorder::vclocks_concurrent(V{1}, V{0, 1}));
  EXPECT_FALSE(VerifyRecorder::vclocks_concurrent(V{1}, V{1, 1}));
}

TEST(VectorClock, RecorderStampJoinProbe) {
  VerifyRecorder r;
  r.set_enabled(true);
  r.init_vclock(0, 2);
  std::vector<std::uint32_t> stamp_a;
  r.stamp_send(stamp_a);
  EXPECT_EQ(stamp_a, (std::vector<std::uint32_t>{1, 0}));

  // A delivery from a peer that never saw our send is concurrent with it.
  r.record_object_delivery(42, 7, stamp_a);
  r.record_object_delivery(42, 8, {0, 1});
  EXPECT_EQ(r.stats().unordered_deliveries, 1u);
  EXPECT_EQ(r.observed_unordered().count(VerifyRecorder::key(7, 8)), 1u);

  // Joining the peer's stamp orders every later send after it.
  r.join_delivery({0, 1});
  std::vector<std::uint32_t> stamp_b;
  r.stamp_send(stamp_b);
  EXPECT_FALSE(VerifyRecorder::vclocks_concurrent(stamp_b, {0, 1}));
}

// ===========================================================================
// Dynamic sanitizer + shuffle, on a deliberately racy program
// ===========================================================================
//
//   mul_add(k): v = v*10 + k   — non-commutative, conflicting writes
//   bump(k):    v' += k        — conflicting writes, annotated commuting
//   fill/drain              — conflict "ordered" by a FALSE barrier claim
//
// Each node's object is a plain int64; nodes 1..p-1 fire invocations at node
// 0's object with no causal relation between the senders, so their stamps
// are concurrent by construction.

MethodId g_mul_add, g_bump, g_fill, g_drain, g_phase_driver;
constexpr std::uint32_t kCellTypeId = 0xACC7u;

Context* mul_add_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                     std::size_t) {
  auto& v = nd.objects().get<std::int64_t>(self);
  v = v * 10 + args[0].as_i64();
  *ret = Value(v);
  return nullptr;
}
void mul_add_par(Node& nd, Context& ctx) {
  auto& v = nd.objects().get<std::int64_t>(ctx.self);
  v = v * 10 + ctx.args[0].as_i64();
  ParFrame f(nd, ctx);
  f.complete(Value(v));
}

Context* bump_seq(Node& nd, Value* ret, const CallerInfo&, GlobalRef self, const Value* args,
                  std::size_t) {
  auto& v = nd.objects().get<std::int64_t>(self);
  v += args[0].as_i64();
  *ret = Value(v);
  return nullptr;
}
void bump_par(Node& nd, Context& ctx) {
  auto& v = nd.objects().get<std::int64_t>(ctx.self);
  v += ctx.args[0].as_i64();
  ParFrame f(nd, ctx);
  f.complete(Value(v));
}

struct RaceWorld {
  std::unique_ptr<SimMachine> machine;
  GlobalRef obj;

  explicit RaceWorld(bool verify_on, std::uint64_t shuffle_seed = 0, std::size_t nodes = 4) {
    MachineConfig cfg = test_config();
    cfg.verify = verify_on;
    cfg.shuffle_seed = shuffle_seed;
    machine = std::make_unique<SimMachine>(nodes, cfg);
    auto& reg = machine->registry();

    MethodDecl d;
    d.name = "mul_add";
    d.seq = mul_add_seq;
    d.par = mul_add_par;
    d.arg_count = 1;
    d.class_id = 1;
    d.reads = {"value"};
    d.writes = {"value"};
    g_mul_add = reg.declare(d);

    d = MethodDecl{};
    d.name = "bump";
    d.seq = bump_seq;
    d.par = bump_par;
    d.arg_count = 1;
    d.class_id = 1;
    d.writes = {"acc"};
    g_bump = reg.declare(d);
    reg.add_commutes(g_bump, g_bump);  // pure accumulation: proven benign

    // fill/drain conflict on "buf", and phase_driver falsely claims a
    // barrier separates their waves (it never even runs).
    d = MethodDecl{};
    d.name = "fill";
    d.seq = bump_seq;
    d.par = bump_par;
    d.arg_count = 1;
    d.class_id = 1;
    d.writes = {"buf"};
    g_fill = reg.declare(d);

    d = MethodDecl{};
    d.name = "drain";
    d.seq = bump_seq;
    d.par = bump_par;
    d.arg_count = 1;
    d.class_id = 1;
    d.reads = {"buf"};
    g_drain = reg.declare(d);

    d = MethodDecl{};
    d.name = "phase_driver";
    d.seq = dummy_seq;
    d.par = dummy_par;
    d.blocks_locally = true;
    g_phase_driver = reg.declare(d);
    reg.add_callee(g_phase_driver, g_fill);
    reg.add_callee(g_phase_driver, g_drain);
    reg.add_barrier_separation(g_phase_driver, g_fill, g_drain);
    reg.add_commutes(g_fill, g_fill);
    reg.add_commutes(g_drain, g_drain);

    reg.finalize();
    obj = machine->node(0).objects().create<std::int64_t>(kCellTypeId, 0).first;
  }

  void send(NodeId from, MethodId m, std::int64_t k) {
    machine->node(from).send(
        Message::invoke(from, 0, m, obj, {Value(k)}, kNoContinuation));
  }

  std::int64_t value() { return machine->node(0).objects().get<std::int64_t>(obj); }
};

TEST(Sanitizer, ConcurrentNonCommutingDeliveriesCaught) {
  RaceWorld w(/*verify_on=*/true, /*shuffle_seed=*/3);
  for (NodeId n = 1; n <= 3; ++n) w.send(n, g_mul_add, n);
  EXPECT_THROW(w.machine->run_until_quiescent(), ProtocolError);
  const verify::ConformanceReport report = verify::check_conformance(*w.machine);
  const verify::Violation* v = report.find(ViolationKind::RacyDelivery);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, g_mul_add);
  EXPECT_EQ(v->other, g_mul_add);
  EXPECT_NE(v->message.find("mul_add"), std::string::npos) << v->message;
}

TEST(Sanitizer, AnnotatedCommutingDeliveriesClean) {
  RaceWorld w(/*verify_on=*/true);
  for (NodeId n = 1; n <= 3; ++n) w.send(n, g_bump, n);
  w.machine->run_until_quiescent();  // must not throw
  const verify::ConformanceReport report = verify::check_conformance(*w.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
  // The sanitizer did observe unordered deliveries — the commutes_with
  // annotation is what kept them benign, not a blind spot.
  EXPECT_GT(report.totals.unordered_deliveries, 0u);
  EXPECT_GT(report.totals.vclock_sends, 0u);
  EXPECT_EQ(w.value(), 1 + 2 + 3);
}

TEST(Sanitizer, FalseBarrierSeparationCaught) {
  // The static pass believes fill/drain are ordered (phase_driver's claim);
  // observing them unordered must surface as UnorderedNotFlagged.
  RaceWorld w(/*verify_on=*/true);
  w.send(1, g_fill, 1);
  w.send(2, g_drain, 1);
  EXPECT_THROW(w.machine->run_until_quiescent(), ProtocolError);
  const verify::ConformanceReport report = verify::check_conformance(*w.machine);
  const verify::Violation* v = report.find(ViolationKind::UnorderedNotFlagged);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_NE(v->message.find("barrier_separated"), std::string::npos) << v->message;
}

TEST(Sanitizer, QuietWhenVerifyOff) {
  RaceWorld w(/*verify_on=*/false);
  for (NodeId n = 1; n <= 3; ++n) w.send(n, g_mul_add, n);
  w.machine->run_until_quiescent();
  const verify::ConformanceReport report = verify::check_conformance(*w.machine);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.totals.vclock_sends, 0u);  // no stamps, no cost
}

// ---------------------------------------------------------------------------
// Delivery-order shuffle (sim engine)
// ---------------------------------------------------------------------------

std::pair<std::int64_t, std::uint64_t> shuffled_run(std::uint64_t seed) {
  RaceWorld w(/*verify_on=*/false, seed);
  for (NodeId n = 1; n <= 3; ++n) {
    w.send(n, g_mul_add, n);
    w.send(n, g_mul_add, n + 3);
  }
  w.machine->run_until_quiescent();
  return {w.value(), w.machine->actions()};
}

TEST(Shuffle, SameSeedIsDeterministic) {
  EXPECT_EQ(shuffled_run(7), shuffled_run(7));
  EXPECT_EQ(shuffled_run(1234), shuffled_run(1234));
}

TEST(Shuffle, DifferentSeedsExploreDifferentOrders) {
  std::set<std::int64_t> outcomes;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) outcomes.insert(shuffled_run(seed).first);
  // mul_add is order-sensitive by construction: if every seed produced one
  // value, the shuffle never actually permuted deliveries.
  EXPECT_GE(outcomes.size(), 2u) << "shuffle produced a single delivery order";
}

TEST(Shuffle, PerChannelFifoSurvivesShuffling) {
  // One sender, order-sensitive payloads: any seed must preserve the
  // channel's FIFO, so the result is the strict-order one.
  for (std::uint64_t seed : {0ull, 5ull, 99ull}) {
    RaceWorld w(/*verify_on=*/false, seed, /*nodes=*/2);
    for (std::int64_t k = 1; k <= 4; ++k) w.send(1, g_mul_add, k);
    w.machine->run_until_quiescent();
    EXPECT_EQ(w.value(), 1234) << "seed " << seed;
  }
}

using RunResult = std::tuple<std::uint64_t, std::uint64_t, std::vector<double>>;

RunResult sor_run(std::uint64_t seed, bool verify_on, bool merge_waves = false,
                  std::size_t block = 4) {
  sor::Params p;
  p.n = 16;
  p.pgrid = 2;
  p.block = block;
  p.iters = 2;
  MachineConfig cfg = test_config();
  cfg.verify = verify_on;
  cfg.shuffle_seed = seed;
  cfg.merge_waves = merge_waves;
  SimMachine m(p.nodes(), cfg);
  const sor::Ids ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  sor::World w = sor::build(m, ids, p);
  EXPECT_TRUE(sor::run(m, ids, w));
  return {m.max_clock(), m.actions(), sor::extract(m, w)};
}

/// EM3D push on 8 nodes with 90% remote edges: many channels into every
/// node, so the shuffle has several heads to draw from.
RunResult em3d_run(std::uint64_t seed, bool merge_waves = false) {
  em3d::Params p;
  p.graph_nodes = 128;
  p.local_fraction = 0.1;
  p.iters = 2;
  const std::size_t nodes = 8;
  MachineConfig cfg = test_config();
  cfg.verify = false;
  cfg.shuffle_seed = seed;
  cfg.merge_waves = merge_waves;
  SimMachine m(nodes, cfg);
  const em3d::Ids ids = em3d::register_em3d(m.registry(), p, nodes);
  m.registry().finalize();
  em3d::World w = em3d::build(m, ids, p);
  EXPECT_TRUE(em3d::run(m, ids, w, em3d::Version::Push));
  std::vector<double> values = em3d::extract(m, w);
  EXPECT_EQ(values, em3d::reference(p, nodes));
  return {m.max_clock(), m.actions(), std::move(values)};
}

TEST(Shuffle, OffPathIsBitIdentical) {
  // shuffle_seed unset must leave the strict smallest-timestamp schedule
  // untouched — the property the table benches (4/5/6) lean on.
  const auto a = sor_run(0, /*verify_on=*/false);
  const auto b = sor_run(0, /*verify_on=*/false);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));

  // Pinned schedules: the final clock and scheduler action count of strict
  // (seed 0) and shuffled runs, per-message and merged-wave delivery, on
  // SOR in 1x1 tiles and remote-heavy EM3D. Both send from several nodes
  // to one at equal timestamps, so the strict pins also hold the seq
  // tie-break; the shuffled pins hold the candidate list and the draw.
  struct Pin {
    bool em3d;
    std::uint64_t seed;
    bool merge_waves;
    std::uint64_t max_clock;
    std::uint64_t actions;
  };
  const Pin pins[] = {
      {false, 0, false, 540072, 3976}, {false, 7, false, 540072, 3976},
      {false, 42, false, 540072, 3976}, {false, 0, true, 449857, 1951},
      {false, 7, true, 452477, 2077},   {false, 42, true, 452908, 2056},
      {true, 0, false, 353735, 3436},   {true, 7, false, 353290, 3436},
      {true, 42, false, 353714, 3436},  {true, 0, true, 249847, 382},
      {true, 7, true, 263684, 420},     {true, 42, true, 255575, 401},
  };
  for (const Pin& pin : pins) {
    const RunResult got =
        pin.em3d ? em3d_run(pin.seed, pin.merge_waves)
                 : sor_run(pin.seed, /*verify_on=*/false, pin.merge_waves, /*block=*/1);
    const char* app = pin.em3d ? "em3d" : "sor";
    EXPECT_EQ(std::get<0>(got), pin.max_clock)
        << app << " seed " << pin.seed << " merge_waves " << pin.merge_waves;
    EXPECT_EQ(std::get<1>(got), pin.actions)
        << app << " seed " << pin.seed << " merge_waves " << pin.merge_waves;
  }
}

TEST(Shuffle, SorCorrectAndConformantUnderShuffle) {
  // A barrier-synchronized kernel must produce the same grid under any
  // delivery order, and its effect/commutes annotations must keep the
  // sanitizer quiet while doing so.
  const auto strict = sor_run(0, /*verify_on=*/false);
  const auto shuffled = sor_run(42, /*verify_on=*/true);  // throws if not clean
  EXPECT_EQ(std::get<2>(strict), std::get<2>(shuffled));
}

}  // namespace
}  // namespace concert
