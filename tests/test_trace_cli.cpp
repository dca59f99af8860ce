// concert_trace CLI tests: the numeric flags (--top, --node) take decimal
// digits only and reject anything else with an error naming the flag and the
// value, instead of reading it as 0 or wrapping it. The binary is spawned
// (CONCERT_TRACE_PATH is injected by CMake) on a small CTRACE02 file that a
// traced four-node SOR run writes. The summary also times wrapper stack
// runs, which run_end records close.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/sor/sor.hpp"
#include "machine/trace.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;  ///< stdout + stderr, interleaved.
};

RunResult run_trace(const std::string& args) {
  const std::string cmd = std::string(CONCERT_TRACE_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.out += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// A CTRACE02 file written by a traced four-node SOR run, removed on
/// destruction. Named for this process: ctest runs each test in a process
/// of its own, in parallel.
struct TraceFile {
  const std::string path =
      ::testing::TempDir() + "concert_trace_cli." + std::to_string(::getpid()) + ".ctrc";

  TraceFile() {
    const sor::Params params{8, 2, 2, 1};
    MachineConfig cfg = testing::test_config();
    cfg.trace = true;
    SimMachine m(params.nodes(), cfg);
    const sor::Ids ids = sor::register_sor(m.registry(), params);
    m.registry().finalize();
    sor::World w = sor::build(m, ids, params);
    sor::run(m, ids, w);
    std::ofstream os(path, std::ios::binary);
    write_binary_trace(dump_trace(m), os);
  }
  ~TraceFile() { std::remove(path.c_str()); }
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;
};

/// Runs `args` with the trace file in FILE's place and expects a usage
/// error that names `flag` and `value`.
void expect_rejected(const std::string& args, const std::string& flag, const std::string& value) {
  const RunResult r = run_trace(args);
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
  EXPECT_NE(r.out.find(flag + " wants a whole number"), std::string::npos) << args << "\n" << r.out;
  EXPECT_NE(r.out.find("got '" + value + "'"), std::string::npos) << args << "\n" << r.out;
  EXPECT_NE(r.out.find("usage: concert_trace"), std::string::npos) << args << "\n" << r.out;
}

TEST(TraceCli, TopRejectsMalformedCounts) {
  const TraceFile t;
  const std::string& f = t.path;
  for (const char* bad : {"abc", "-3", "+3", "3x", "99999999999999999999999"}) {
    expect_rejected(f + " --top '" + bad + "'", "--top", bad);
    expect_rejected("critpath " + f + " --top '" + bad + "'", "--top", bad);
  }
  expect_rejected(f + " --top ''", "--top", "");
}

TEST(TraceCli, NodeRejectsMalformedIds) {
  const TraceFile t;
  const std::string& f = t.path;
  expect_rejected(f + " --summary --node -1", "--node", "-1");
  expect_rejected(f + " --node abc", "--node", "abc");
  expect_rejected(f + " --node 4294967295", "--node", "4294967295");
  expect_rejected(f + " --node 65536", "--node", "65536");
}

TEST(TraceCli, WellFormedNumbersStillWork) {
  const TraceFile t;
  const std::string& f = t.path;
  // The trace has four methods: --top 5 shows them all, --top 2 caps the table.
  const RunResult top5 = run_trace(f + " --top 5");
  EXPECT_EQ(top5.exit_code, 0) << top5.out;
  EXPECT_NE(top5.out.find("top 4 methods by self time"), std::string::npos) << top5.out;
  const RunResult top2 = run_trace(f + " --top 2");
  EXPECT_EQ(top2.exit_code, 0) << top2.out;
  EXPECT_NE(top2.out.find("top 2 methods by self time"), std::string::npos) << top2.out;
  const RunResult node = run_trace(f + " --summary --node 1");
  EXPECT_EQ(node.exit_code, 0) << node.out;
  EXPECT_NE(node.out.find("4 nodes"), std::string::npos) << node.out;
  const RunResult critpath = run_trace("critpath " + f + " --top 5");
  EXPECT_EQ(critpath.exit_code, 0) << critpath.out;
}

TEST(TraceCli, SummaryTimesStackRuns) {
  // Remote get_value invocations run on the wrapper path; their run_end
  // records give the method a self time although it has no dispatch.
  const TraceFile t;
  const RunResult r = run_trace(t.path + " --summary");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find(" run_end="), std::string::npos) << r.out;
  const std::size_t row = r.out.find("| sor.get_value");
  ASSERT_NE(row, std::string::npos) << r.out;
  // | method | self (us) | dispatches | stack runs |
  std::istringstream cells(r.out.substr(row, r.out.find('\n', row) - row));
  std::string bar, name, self, dispatches;
  cells >> bar >> name >> bar >> self >> bar >> dispatches;
  EXPECT_GT(std::stod(self), 0.0) << r.out;
  EXPECT_EQ(dispatches, "0") << r.out;
}

}  // namespace
}  // namespace concert
