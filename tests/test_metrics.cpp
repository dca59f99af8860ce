// Metrics: log2 histogram bucket math and quantiles, bucket-wise merge,
// registry JSON / Prometheus exposition, machine-level export, and how every
// NodeStats counter merges across nodes and exports.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "support/histogram.hpp"
#include "support/metrics.hpp"
#include "machine/machine.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketMath) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  // Each bucket's [lo, hi] range is consistent with bucket_of.
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b);
  }
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Histogram::bucket_hi(64), ~std::uint64_t{0});
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, RecordTracksMoments) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 330u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 110.0);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(10)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(300)), 1u);
}

TEST(Histogram, QuantilesAreOrderedAndClamped) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log2 buckets are accurate to a factor of 2 worst case.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_LE(p99, 1000.0);  // clamped to the observed max
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, SingleValueQuantileIsExact) {
  Histogram h;
  h.record(42);
  h.record(42);
  // min == max pins the interpolation range to the point itself.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  Histogram a, b, both;
  for (std::uint64_t v : {3u, 17u, 900u}) {
    a.record(v);
    both.record(v);
  }
  for (std::uint64_t v : {1u, 5000u}) {
    b.record(v);
    both.record(v);
  }
  a += b;
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), both.bucket(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(a.quantile(0.5), both.quantile(0.5));
  // Merging an empty histogram changes nothing.
  Histogram empty;
  const std::uint64_t before_min = a.min();
  a += empty;
  EXPECT_EQ(a.min(), before_min);
  EXPECT_EQ(a.count(), both.count());
}

// ---------------------------------------------------------------------------
// MetricsRegistry exposition
// ---------------------------------------------------------------------------

MetricsRegistry small_registry() {
  MetricsRegistry reg;
  reg.add_counter("app_events_total", "Events observed", 5);
  reg.add_counter("app_nodes", "", 2);
  Histogram h;
  h.record(1);
  h.record(2);
  h.record(3);
  reg.add_histogram("app_latency_ns", "Latency", h);
  Histogram h2;
  h2.record(7);
  reg.add_histogram("app_latency_ns", "Latency", h2, {{"method", "fib"}});
  return reg;
}

TEST(Metrics, Lookup) {
  const MetricsRegistry reg = small_registry();
  ASSERT_NE(reg.find_counter("app_events_total"), nullptr);
  EXPECT_EQ(reg.find_counter("app_events_total")->value, 5u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  ASSERT_NE(reg.find_histogram("app_latency_ns"), nullptr);
  const auto* labeled = reg.find_histogram("app_latency_ns", {{"method", "fib"}});
  ASSERT_NE(labeled, nullptr);
  EXPECT_EQ(labeled->hist.count(), 1u);
}

TEST(Metrics, PrometheusExposition) {
  const MetricsRegistry reg = small_registry();
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("# HELP app_events_total Events observed\n"), std::string::npos);
  EXPECT_NE(s.find("# TYPE app_events_total counter\n"), std::string::npos);
  EXPECT_NE(s.find("app_events_total 5\n"), std::string::npos);
  EXPECT_NE(s.find("app_nodes 2\n"), std::string::npos);
  // Histogram: 1 lands in [1,1], 2 and 3 in [2,3]; buckets are cumulative.
  EXPECT_NE(s.find("app_latency_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(s.find("app_latency_ns_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(s.find("app_latency_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(s.find("app_latency_ns_sum 6\n"), std::string::npos);
  EXPECT_NE(s.find("app_latency_ns_count 3\n"), std::string::npos);
  // Labeled series share the name; labels merge with le.
  EXPECT_NE(s.find("app_latency_ns_bucket{method=\"fib\",le=\"7\"} 1\n"), std::string::npos);
  EXPECT_NE(s.find("app_latency_ns_count{method=\"fib\"} 1\n"), std::string::npos);
  // The TYPE header appears exactly once for the shared histogram name.
  const auto first = s.find("# TYPE app_latency_ns histogram");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(s.find("# TYPE app_latency_ns histogram", first + 1), std::string::npos);
}

TEST(Metrics, PrometheusBucketsAreCumulativeAndMonotonic) {
  // Conformance: every emitted `le` series must be non-decreasing, end in a
  // +Inf bucket equal to _count, and use numeric le values in order.
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 2u, 40u, 900u, 5000u}) h.record(v);
  MetricsRegistry reg;
  reg.add_counter("fmt_events_total", "events", 6);
  reg.add_histogram("fmt_latency_ns", "latency", h);
  std::ostringstream os;
  reg.write_prometheus(os);
  std::istringstream is(os.str());
  std::string line;
  double last_le = -1.0;
  std::uint64_t last_cum = 0;
  bool saw_inf = false;
  std::uint64_t inf_value = 0;
  while (std::getline(is, line)) {
    const std::string prefix = "fmt_latency_ns_bucket{le=\"";
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t q = line.find('"', prefix.size());
    ASSERT_NE(q, std::string::npos);
    const std::string le = line.substr(prefix.size(), q - prefix.size());
    const std::uint64_t cum = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(cum, last_cum) << "bucket counts must be cumulative";
    last_cum = cum;
    if (le == "+Inf") {
      saw_inf = true;
      inf_value = cum;
    } else {
      ASSERT_FALSE(saw_inf) << "+Inf must be the final bucket";
      const double v = std::stod(le);
      EXPECT_GT(v, last_le) << "le thresholds must be increasing";
      last_le = v;
    }
  }
  ASSERT_TRUE(saw_inf);
  EXPECT_EQ(inf_value, h.count());
  EXPECT_NE(os.str().find("fmt_latency_ns_count 6\n"), std::string::npos);
}

TEST(Metrics, PrometheusEscapesHelpAndLabelValues) {
  MetricsRegistry reg;
  reg.add_counter("esc_total", "line one\nline \\two", 1, {{"path", "a\\b \"q\"\nc"}});
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("# HELP esc_total line one\\nline \\\\two\n"), std::string::npos);
  EXPECT_NE(s.find("esc_total{path=\"a\\\\b \\\"q\\\"\\nc\"} 1\n"), std::string::npos);
  // The exposition stays one-sample-per-line: no raw newline leaked into it.
  std::istringstream is(s);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 3u);  // HELP, TYPE, sample
}

TEST(Metrics, JsonExposition) {
  const MetricsRegistry reg = small_registry();
  std::ostringstream os;
  reg.write_json(os);
  const std::string s = os.str();
  // Structurally balanced (parsed for real by `python -m json.tool` in CI).
  long depth = 0;
  for (char c : s) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(s.find("\"name\": \"app_events_total\", \"labels\": {}, \"value\": 5"),
            std::string::npos);
  EXPECT_NE(s.find("\"count\": 3, \"sum\": 6, \"min\": 1, \"max\": 3, \"mean\": 2"),
            std::string::npos);
  EXPECT_NE(s.find("\"labels\": {\"method\": \"fib\"}"), std::string::npos);
  EXPECT_NE(s.find("\"buckets\": [[1, 1], [3, 2]]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Machine-level export
// ---------------------------------------------------------------------------

TEST(Metrics, ExportFromMachineRun) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.metrics = true;
  SimMachine m(2, cfg);
  auto ids = seqbench::register_seqbench(m.registry(), true);
  m.registry().finalize();
  const GlobalRef arr = seqbench::make_qsort_array(m, 1, 64, 3);
  m.run_main(0, ids.qsort, arr, {Value(0), Value(64)});

  MetricsRegistry reg;
  export_metrics(m, reg);
  const NodeStats t = m.total_stats();

  const auto* sent = reg.find_counter("concert_msgs_sent_total");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->value, t.msgs_sent);
  const auto* stack = reg.find_counter("concert_stack_calls_total");
  ASSERT_NE(stack, nullptr);
  EXPECT_EQ(stack->value, t.stack_calls);

  // The merged invocation-latency histogram saw every stack call and
  // dispatch; per-method series carry a method label.
  const auto* lat = reg.find_histogram("concert_invoke_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->hist.count(), 0u);
  const auto* per_method = reg.find_histogram("concert_method_latency_ns", {{"method", "qsort"}});
  ASSERT_NE(per_method, nullptr);
  EXPECT_GT(per_method->hist.count(), 0u);
  // Context lifetimes are recorded at free.
  const auto* life = reg.find_histogram("concert_ctx_lifetime_ns");
  ASSERT_NE(life, nullptr);
  EXPECT_GT(life->hist.count(), 0u);
}

TEST(Metrics, ExportWithMetricsOffHasCountersButNoHistograms) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  SimMachine m(1, cfg);
  auto ids = seqbench::register_seqbench(m.registry(), false);
  m.registry().finalize();
  m.run_main(0, ids.fib, kNoObject, {Value(8)});
  EXPECT_EQ(m.node(0).metrics(), nullptr);
  MetricsRegistry reg;
  export_metrics(m, reg);
  EXPECT_NE(reg.find_counter("concert_local_invokes_total"), nullptr);
  // The invocation-latency instruments require metrics=true and stay absent;
  // the always-on health sampler (concert-insight) still exports its
  // queue-depth histograms.
  EXPECT_EQ(reg.find_histogram("concert_invoke_latency_ns"), nullptr);
  EXPECT_EQ(reg.find_histogram("concert_method_latency_ns"), nullptr);
  EXPECT_EQ(reg.find_histogram("concert_ctx_lifetime_ns"), nullptr);
  EXPECT_NE(reg.find_histogram("concert_health_ready_depth"), nullptr);
}

TEST(Metrics, EveryNodeStatsCounterMergesAndExports) {
  // Counter k holds k on node 0 and 100 + k on node 1, so a sum (100 + 2k)
  // and a max (100 + k) are told apart, and no two counters share a value.
  SimMachine m(2, test_config(ExecMode::Hybrid3));
  NodeStats& s0 = m.node(0).stats;
  NodeStats& s1 = m.node(1).stats;
  std::uint64_t k = 0;
#define SET_COUNTER(field, merge, metric) \
  ++k;                                    \
  s0.field = k;                           \
  s1.field = 100 + k;
  CONCERT_NODE_STATS(SET_COUNTER)
#undef SET_COUNTER
  const NodeStats total = m.total_stats();
  MetricsRegistry reg;
  export_metrics(m, reg);
  std::set<std::string> names;
  k = 0;
#define CHECK_COUNTER(field, merge, metric)                                             \
  {                                                                                     \
    ++k;                                                                                \
    const std::uint64_t want = std::string_view(#merge) == "max" ? 100 + k : 100 + 2 * k; \
    EXPECT_EQ(total.field, want) << #field;                                             \
    const MetricsRegistry::Counter* c = reg.find_counter(metric);                       \
    if (c == nullptr) {                                                                 \
      ADD_FAILURE() << #field << " not exported as " << metric;                         \
    } else {                                                                            \
      EXPECT_EQ(c->value, want) << metric;                                              \
    }                                                                                   \
    names.insert(metric);                                                               \
  }
  CONCERT_NODE_STATS(CHECK_COUNTER)
#undef CHECK_COUNTER
  EXPECT_EQ(names.size(), k);  // one metric per counter
  // The high-water mark takes the larger node's value.
  EXPECT_EQ(total.inbox_batch_max, s1.inbox_batch_max);
  EXPECT_NE(reg.find_counter("concert_inbox_batch_max"), nullptr);
}

TEST(Metrics, NodeStatsSumsNewCounters) {
  NodeStats a, b;
  a.park_wakeups = 3;
  a.cache_evictions = 1;
  b.park_wakeups = 4;
  b.cache_evictions = 2;
  a += b;
  EXPECT_EQ(a.park_wakeups, 7u);
  EXPECT_EQ(a.cache_evictions, 3u);
}

}  // namespace
}  // namespace concert
