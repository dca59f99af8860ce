// Table 3 — sequential performance of the hybrid mechanisms.
//
// The function-call-intensive programs, each run as: a plain C++ program
// (the paper's "C program" column), Seq-opt (parallelization checks compiled
// out), the full hybrid with all three interfaces, the hybrid restricted to
// the single CP interface, and heap-only parallel execution. Reported both in
// simulated seconds (40 MHz workstation cost model, the paper's metric) and
// wall-clock microseconds per run on the host. A host cell is the median of
// kSamples samples, each repeating the program until kSampleMs have passed,
// so a program that takes a microsecond is timed over thousands of runs and
// every mode's run after the first finds its machine warm.
//
// Paper claims reproduced: hybrid-3 ≈ C; 3 interfaces up to ~30% faster than
// 1 interface; parallel-only an order of magnitude slower.
#include <algorithm>
#include <functional>

#include "apps/seqbench/seqbench.hpp"
#include "bench_util.hpp"

namespace concert {
namespace {

using bench::env_size;
using bench::WallTimer;

struct ProgramSpec {
  std::string name;
  std::function<std::int64_t()> c_version;
  std::function<Value(SimMachine&, const seqbench::Ids&)> run;
};

struct Cell {
  double sim_seconds = 0;
  double wall_us = 0;
  std::int64_t result = 0;
};

constexpr int kSamples = 5;
constexpr double kSampleMs = 2.0;

/// Host wall time of one `run()`, in microseconds: the median of kSamples
/// samples, each running it back to back for at least kSampleMs.
double host_us(const std::function<void()>& run) {
  std::vector<double> per_run;
  for (int s = 0; s < kSamples; ++s) {
    WallTimer t;
    std::size_t runs = 0;
    double ms = 0;
    do {
      run();
      ++runs;
      ms = t.seconds() * 1e3;
    } while (ms < kSampleMs);
    per_run.push_back(ms * 1e3 / static_cast<double>(runs));
  }
  std::sort(per_run.begin(), per_run.end());
  return per_run[kSamples / 2];
}

/// The simulated time and the result come from the first run on a fresh
/// machine; the host time from the runs that follow on the same machine.
Cell run_mode(const ProgramSpec& prog, ExecMode mode) {
  SimMachine m(1, bench::make_config(mode, CostModel::workstation()));
  auto ids = seqbench::register_seqbench(m.registry(), /*distributed=*/false);
  m.registry().finalize();
  const Value v = prog.run(m, ids);
  Cell c;
  c.sim_seconds = m.elapsed_seconds();
  c.result = v.is_nil() ? -1 : v.as_i64();
  c.wall_us = host_us([&] { prog.run(m, ids); });
  return c;
}

}  // namespace
}  // namespace concert

int main() {
  using namespace concert;
  const auto fib_n = static_cast<std::int64_t>(bench::env_size("T3_FIB", 24));
  const auto tak_x = static_cast<std::int64_t>(bench::env_size("T3_TAK", 16));
  const auto nq_n = static_cast<std::int64_t>(bench::env_size("T3_NQUEENS", 8));
  const auto qs_n = static_cast<std::int64_t>(bench::env_size("T3_QSORT", 20000));
  const auto ch_n = static_cast<std::int64_t>(bench::env_size("T3_CHAIN", 4000));

  std::vector<ProgramSpec> programs;
  programs.push_back(
      {"fib(" + std::to_string(fib_n) + ")", [&] { return seqbench::fib_c(fib_n); },
       [&](SimMachine& m, const seqbench::Ids& ids) {
         return m.run_main(0, ids.fib, kNoObject, {Value(fib_n)});
       }});
  programs.push_back({"tak(" + std::to_string(tak_x) + "," + std::to_string(tak_x / 2) + "," +
                          std::to_string(tak_x / 4) + ")",
                      [&] { return seqbench::tak_c(tak_x, tak_x / 2, tak_x / 4); },
                      [&](SimMachine& m, const seqbench::Ids& ids) {
                        return m.run_main(0, ids.tak, kNoObject,
                                          {Value(tak_x), Value(tak_x / 2), Value(tak_x / 4)});
                      }});
  programs.push_back({"nqueens(" + std::to_string(nq_n) + ")",
                      [&] { return seqbench::nqueens_c(static_cast<int>(nq_n)); },
                      [&](SimMachine& m, const seqbench::Ids& ids) {
                        return m.run_main(
                            0, ids.nqueens, kNoObject,
                            {Value(nq_n), Value::u64(0), Value::u64(0), Value::u64(0)});
                      }});
  programs.push_back({"qsort(" + std::to_string(qs_n) + ")",
                      [&] {
                        auto data = seqbench::make_qsort_array;  // silence unused
                        (void)data;
                        SplitMix64 rng(2024);
                        std::vector<std::int64_t> v(static_cast<std::size_t>(qs_n));
                        for (auto& x : v) x = static_cast<std::int64_t>(rng.uniform(1u << 30));
                        return seqbench::qsort_c(v);
                      },
                      [&](SimMachine& m, const seqbench::Ids& ids) {
                        const GlobalRef arr = seqbench::make_qsort_array(
                            m, 0, static_cast<std::size_t>(qs_n), 2024);
                        return m.run_main(0, ids.qsort, arr, {Value(0), Value(qs_n)});
                      }});
  programs.push_back({"chain(" + std::to_string(ch_n) + ")",
                      [&] { return seqbench::chain_c(ch_n); },
                      [&](SimMachine& m, const seqbench::Ids& ids) {
                        return m.run_main(0, ids.chain, kNoObject, {Value(ch_n)});
                      }});
  const auto ack_n = static_cast<std::int64_t>(bench::env_size("T3_ACK", 7));
  programs.push_back({"ack(2," + std::to_string(ack_n) + ")",
                      [&] { return seqbench::ack_c(2, ack_n); },
                      [&](SimMachine& m, const seqbench::Ids& ids) {
                        return m.run_main(0, ids.ack, kNoObject, {Value(2), Value(ack_n)});
                      }});
  const auto cheby_n = static_cast<std::int64_t>(bench::env_size("T3_CHEBY", 22));
  programs.push_back(
      {"cheby(" + std::to_string(cheby_n) + ")",
       [&] { return static_cast<std::int64_t>(seqbench::cheby_c(cheby_n, 0.99)); },
       [&](SimMachine& m, const seqbench::Ids& ids) {
         const Value v = m.run_main(0, ids.cheby, kNoObject, {Value(cheby_n), Value(0.99)});
         return Value(static_cast<std::int64_t>(v.as_f64()));
       }});

  const std::vector<std::pair<std::string, ExecMode>> modes = {
      {"Seq-opt", ExecMode::SeqOpt},
      {"Hybrid 3-ifc", ExecMode::Hybrid3},
      {"Hybrid 1-ifc", ExecMode::Hybrid1},
      {"Par-only", ExecMode::ParallelOnly},
  };

  TablePrinter sim({"program", "Seq-opt", "Hybrid 3-ifc", "Hybrid 1-ifc", "Par-only",
                    "Par/Hyb3"});
  TablePrinter wall({"program", "C (us)", "Seq-opt", "Hybrid 3-ifc", "Hybrid 1-ifc",
                     "Par-only", "Hyb3/C"});

  for (const auto& prog : programs) {
    // C reference (wall only; it has no simulated instruction stream).
    std::int64_t c_result = prog.c_version();
    const double c_us = host_us([&] { c_result = prog.c_version(); });

    std::vector<Cell> cells;
    for (const auto& [name, mode] : modes) {
      (void)name;
      cells.push_back(run_mode(prog, mode));
      if (cells.back().result != c_result && prog.name.rfind("qsort", 0) != 0) {
        std::cerr << "MISMATCH in " << prog.name << ": " << cells.back().result
                  << " != " << c_result << "\n";
        return 1;
      }
    }
    sim.add_row({prog.name, fmt_double(cells[0].sim_seconds), fmt_double(cells[1].sim_seconds),
                 fmt_double(cells[2].sim_seconds), fmt_double(cells[3].sim_seconds),
                 fmt_speedup(cells[3].sim_seconds / cells[1].sim_seconds)});
    wall.add_row({prog.name, fmt_double(c_us, 2), fmt_double(cells[0].wall_us, 2),
                  fmt_double(cells[1].wall_us, 2), fmt_double(cells[2].wall_us, 2),
                  fmt_double(cells[3].wall_us, 2), fmt_speedup(cells[1].wall_us / c_us)});
  }

  bench::print_caption(
      "Table 3 — sequential execution, simulated seconds on a 40 MHz workstation");
  sim.print(std::cout);
  bench::print_caption("Table 3 (wall clock on this host, us per run, median of " +
                       std::to_string(kSamples) + " samples of at least " +
                       fmt_double(kSampleMs, 0) + " ms)");
  wall.print(std::cout);
  std::cout << "\nPaper claims: hybrid(3 interfaces) ~ C; 3 interfaces up to 30% faster than\n"
               "1 interface; heap-only parallel execution roughly an order of magnitude\n"
               "slower than the hybrid on these call-intensive programs.\n";
  return 0;
}
