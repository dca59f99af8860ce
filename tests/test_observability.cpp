// Observation-only options and the artifacts they write.
//
// One "simulated clocks unchanged" property covers every option that only
// observes a run (trace, metrics, profile_sites, stall_timeout): each cell runs
// a program on the deterministic engine with the default config and with the
// option on, and requires identical clocks, message and context accounting,
// stack-call counts and results. fib, qsort and SOR between them exercise heap
// dispatch, suspensions, remote messages, bundles of replies and the wrapper
// path.
//
// The artifact tests push a method name full of JSON metacharacters through
// every JSON writer (Chrome trace, critical-path overlay, SITES, METRICS,
// POSTMORTEM) and parse each document back.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/sor/sor.hpp"
#include "core/invoke.hpp"
#include "machine/critpath.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::test_config;

enum class Option { Trace, Metrics, ProfileSites, StallTimeout };
enum class Program { Fib, Qsort, Sor };

const char* option_name(Option o) {
  switch (o) {
    case Option::Trace: return "trace";
    case Option::Metrics: return "metrics";
    case Option::ProfileSites: return "profile_sites";
    case Option::StallTimeout: return "stall_timeout";
  }
  return "?";
}

void PrintTo(Option o, std::ostream* os) { *os << option_name(o); }

const char* program_name(Program p) {
  switch (p) {
    case Program::Fib: return "fib";
    case Program::Qsort: return "qsort";
    case Program::Sor: return "sor";
  }
  return "?";
}

void PrintTo(Program p, std::ostream* os) { *os << program_name(p); }

/// What an observed run must reproduce exactly.
struct Signature {
  std::uint64_t max_clock = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t contexts_allocated = 0;
  std::uint64_t stack_calls = 0;
  std::vector<double> result;
  bool operator==(const Signature&) const = default;
};

void PrintTo(const Signature& s, std::ostream* os) {
  *os << "{max_clock " << s.max_clock << ", msgs_sent " << s.msgs_sent << ", bytes_sent "
      << s.bytes_sent << ", contexts_allocated " << s.contexts_allocated << ", stack_calls "
      << s.stack_calls << ", " << s.result.size() << " result values}";
}

Signature signature(const Machine& m, std::vector<double> result) {
  const NodeStats t = m.total_stats();
  return Signature{m.max_clock(),        t.msgs_sent,   t.bytes_sent,
                   t.contexts_allocated, t.stack_calls, std::move(result)};
}

Signature run(Program program, const MachineConfig& cfg) {
  if (program == Program::Sor) {
    sor::Params p;
    p.n = 16;
    p.pgrid = 2;
    p.block = 8;
    p.iters = 2;
    SimMachine m(p.nodes(), cfg);
    const sor::Ids ids = sor::register_sor(m.registry(), p);
    m.registry().finalize();
    sor::World world = sor::build(m, ids, p);
    EXPECT_TRUE(sor::run(m, ids, world));
    return signature(m, sor::extract(m, world));
  }
  SimMachine m(2, cfg);
  const seqbench::Ids ids = seqbench::register_seqbench(m.registry(), /*distributed=*/true);
  m.registry().finalize();
  Value v;
  if (program == Program::Fib) {
    v = m.run_main(0, ids.fib, kNoObject, {Value(10)});
    EXPECT_EQ(v.as_i64(), 55);
  } else {
    const GlobalRef arr = seqbench::make_qsort_array(m, 1, 64, 11);
    v = m.run_main(0, ids.qsort, arr, {Value(0), Value(64)});
    EXPECT_EQ(v.as_i64(), 64);
  }
  return signature(m, {static_cast<double>(v.as_i64())});
}

class ObservationOnly : public ::testing::TestWithParam<std::tuple<Option, Program>> {};

TEST_P(ObservationOnly, SimulatedClocksUnchanged) {
  const auto [option, program] = GetParam();
  MachineConfig base = test_config(ExecMode::Hybrid3);
  // The watchdog's guarantee covers verified runs too: its cell keeps the
  // conformance sanitizer on for both sides.
  if (option == Option::StallTimeout) base.verify = true;
  MachineConfig observed = base;
  switch (option) {
    case Option::Trace: observed.trace = true; break;
    case Option::Metrics: observed.metrics = true; break;
    case Option::ProfileSites: observed.profile_sites = true; break;
    case Option::StallTimeout: observed.stall_timeout = 60'000; break;
  }
  EXPECT_EQ(run(program, base), run(program, observed));
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ObservationOnly,
    ::testing::Combine(::testing::Values(Option::Trace, Option::Metrics, Option::ProfileSites,
                                         Option::StallTimeout),
                       ::testing::Values(Program::Fib, Program::Qsort, Program::Sor)),
    [](const ::testing::TestParamInfo<ObservationOnly::ParamType>& info) {
      return std::string(option_name(std::get<0>(info.param))) + "_" +
             program_name(std::get<1>(info.param));
    });

// -- JSON escaping ----------------------------------------------------------

const std::string kOddName = "odd \"name\" with \\ and\nnewline \x01 ctl";

JsonValue parse_or_fail(const std::string& text, const char* what) {
  JsonValue doc;
  std::string err;
  EXPECT_TRUE(json_parse(text, doc, &err)) << what << ": " << err;
  return doc;
}

TEST(Json, EscapeRoundTripsEveryControlCharacter) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\/ plain";
  std::string text = "\"";
  text.append(json_escape(all)).append("\"");
  const JsonValue v = parse_or_fail(text, "escaped string");
  EXPECT_EQ(v.str, all);
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("a\tb\n"), "a\\tb\\n");
}

TEST(Json, ParserRejectsRawControlCharacters) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("\"a\nb\"", v, &err));
  EXPECT_FALSE(json_parse("{\"k\": \"\x01\"}", v, &err));
  EXPECT_TRUE(json_parse("\"a\\nb\"", v, &err)) << err;
}

/// `depth` nested arrays around nothing: "[[...]]".
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, ParserRejectsNestingPastItsCap) {
  // 100k levels would overflow the recursive-descent parser's stack.
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(nested_arrays(100'000), v, &err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(json_parse(nested_arrays(kJsonMaxDepth + 1), v, &err));
  EXPECT_FALSE(err.empty());
  std::string objects;
  for (std::size_t i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects.append("1").append(kJsonMaxDepth + 1, '}');
  EXPECT_FALSE(json_parse(objects, v, &err));
}

TEST(Json, ParserAcceptsNestingAtItsCap) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(nested_arrays(kJsonMaxDepth), v, &err)) << err;
  std::size_t depth = 1;
  for (const JsonValue* p = &v; !p->arr.empty(); p = &p->arr[0]) ++depth;
  EXPECT_EQ(depth, kJsonMaxDepth);
}

Context* odd_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  *ret = Value(std::int64_t{1});
  return nullptr;
}

void odd_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(Value(std::int64_t{1}));
}

TEST(Json, OddMethodNameRoundTripsThroughEveryArtifact) {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.trace = true;
  cfg.metrics = true;
  cfg.profile_sites = true;
  SimMachine m(1, cfg);
  MethodDecl d;
  d.name = kOddName;
  d.seq = odd_seq;
  d.par = odd_par;
  const MethodId odd = m.registry().declare(d);
  m.registry().finalize();
  EXPECT_EQ(m.run_main(0, odd, kNoObject, {}).as_i64(), 1);

  // Chrome trace: the wrapper's stack run names the method in its args.
  std::ostringstream chrome;
  write_chrome_trace(m, chrome);
  const JsonValue chrome_doc = parse_or_fail(chrome.str(), "chrome");
  bool in_chrome = false;
  for (const JsonValue& ev : chrome_doc.find("traceEvents")->arr) {
    const JsonValue* args = ev.find("args");
    in_chrome = in_chrome || (args != nullptr && args->str_or("method", "") == kOddName);
  }
  EXPECT_TRUE(in_chrome);

  // Critical-path overlay: the root message's network hop names the method.
  const TraceDump dump = dump_trace(m);
  std::ostringstream overlay;
  write_critpath_chrome(analyze_critical_path(dump), dump, overlay);
  const JsonValue overlay_doc = parse_or_fail(overlay.str(), "overlay");
  bool in_overlay = false;
  for (const JsonValue& ev : overlay_doc.find("traceEvents")->arr) {
    in_overlay = in_overlay || ev.str_or("name", "").find(kOddName) != std::string::npos;
  }
  EXPECT_TRUE(in_overlay);

  // SITES: the wrapper-path edge "(message)" -> odd.
  std::ostringstream sites;
  write_sites_json(m, sites);
  const JsonValue sites_doc = parse_or_fail(sites.str(), "sites");
  bool in_sites = false;
  for (const JsonValue& row : sites_doc.find("sites")->arr) {
    in_sites = in_sites || row.str_or("callee", "") == kOddName;
  }
  EXPECT_TRUE(in_sites);

  // METRICS: the per-method latency histogram is labeled with the name.
  MetricsRegistry reg;
  export_metrics(m, reg);
  std::ostringstream metrics;
  reg.write_json(metrics);
  const JsonValue metrics_doc = parse_or_fail(metrics.str(), "metrics");
  bool in_metrics = false;
  for (const JsonValue& h : metrics_doc.find("histograms")->arr) {
    const JsonValue* labels = h.find("labels");
    in_metrics = in_metrics || (labels != nullptr && labels->str_or("method", "") == kOddName);
  }
  EXPECT_TRUE(in_metrics);

  // POSTMORTEM: the reason string and the flight records.
  std::ostringstream pm;
  m.write_postmortem(pm, kOddName);
  const JsonValue doc = parse_or_fail(pm.str(), "postmortem");
  EXPECT_EQ(doc.str_or("reason", ""), kOddName);
  bool in_flight = false;
  for (const JsonValue& ev : doc.find("node_reports")->arr[0].find("flight")->arr) {
    in_flight = in_flight || ev.str_or("method", "") == kOddName;
  }
  EXPECT_TRUE(in_flight);
}

}  // namespace
}  // namespace concert
