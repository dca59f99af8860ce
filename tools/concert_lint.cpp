// concert_lint: static schema-soundness linter for the shipped applications.
//
// Builds each app's method registry exactly as the benchmarks do, runs the
// analysis, and lints the result (src/verify/lint.hpp). Exit status is the
// total number of reported lint errors (0 = every linted registry is sound).
//
//   concert_lint                 lint every app
//   concert_lint sor em3d        lint a subset
//   concert_lint --blame         also explain every non-NB classification
//   concert_lint --deadlock      only the lock-order deadlock diagnostics
//   concert_lint --races         only the concert-race commutativity
//                                diagnostics (racing pairs)
//   concert_lint --progress      only the concert-progress reply-obligation
//                                diagnostics, plus each CP interface's
//                                reply-ledger certificate
//   concert_lint --json          machine-readable report on stdout (CI)
//   concert_lint --list          list known app names
//
// The `deadlock-demo`, `race-demo` and `progress-demo` registries
// deliberately contain implicit-lock cycles / racing pairs / broken reply
// disciplines (they exist so the detectors' witnesses can be demonstrated end
// to end); they are linted only when named explicitly and never join the
// default sweep.
#include <algorithm>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/mdforce/mdforce.hpp"
#include "apps/seqbench/seqbench.hpp"
#include "apps/sor/sor.hpp"
#include "apps/synth/synth.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "verify/lint.hpp"
#include "verify/progress.hpp"

namespace {

using concert::json_escape;
using concert::MethodRegistry;
using concert::verify::Diagnostic;
using concert::verify::LintCode;
using concert::verify::LintReport;
using concert::verify::Severity;

struct App {
  const char* name;
  std::function<void(MethodRegistry&)> build;
  bool in_default_sweep = true;
};

// Stub code versions for the demo registry (its methods are never executed —
// the linter works from declared facts alone).
concert::Context* demo_seq(concert::Node&, concert::Value* ret, const concert::CallerInfo&,
                           concert::GlobalRef, const concert::Value*, std::size_t) {
  if (ret != nullptr) *ret = concert::Value::nil();
  return nullptr;
}
void demo_par(concert::Node&, concert::Context&) {}

concert::MethodId demo_decl(MethodRegistry& reg, const char* name, bool locks_self,
                            std::uint32_t class_id) {
  concert::MethodDecl d;
  d.name = name;
  d.seq = demo_seq;
  d.par = demo_par;
  d.locks_self = locks_self;
  d.class_id = class_id;
  return reg.declare(d);
}

/// A registry seeded with the lock-cycle shapes the detector is built for:
/// direct self-recursion under a held lock, a cycle through a non-locking
/// intermediary, and a cross-class reacquisition through an unclassed method
/// (class 0 conservatively aliases everything).
void register_deadlock_demo(MethodRegistry& reg) {
  const auto self_rec = demo_decl(reg, "self_rec", /*locks_self=*/true, /*class_id=*/1);
  reg.add_callee(self_rec, self_rec);

  const auto bump = demo_decl(reg, "bump", true, 1);
  const auto helper = demo_decl(reg, "helper", false, 0);
  reg.add_callee(bump, helper);
  reg.add_callee(helper, bump);

  const auto lock_a = demo_decl(reg, "lock_a", true, 2);
  const auto mid = demo_decl(reg, "mid", false, 0);
  const auto lock_unclassed = demo_decl(reg, "lock_unclassed", true, 0);
  reg.add_callee(lock_a, mid);
  reg.add_callee(mid, lock_unclassed);

  // Control group: holding a class-3 lock while taking a class-4 lock is not
  // a cycle — the classes cannot alias.
  const auto lock_c = demo_decl(reg, "lock_c", true, 3);
  const auto lock_d = demo_decl(reg, "lock_d", true, 4);
  reg.add_callee(lock_c, lock_d);
}

concert::MethodId race_decl(MethodRegistry& reg, const char* name, std::uint32_t class_id,
                            std::vector<std::string> reads, std::vector<std::string> writes,
                            bool blocks_locally = false) {
  concert::MethodDecl d;
  d.name = name;
  d.seq = demo_seq;
  d.par = demo_par;
  d.class_id = class_id;
  d.reads = std::move(reads);
  d.writes = std::move(writes);
  d.blocks_locally = blocks_locally;
  return reg.declare(d);
}

/// A registry seeded with the racing shapes concert-race is built for: an
/// atomic write-write pair (NonCommutativeDelivery), an interleavable pair
/// through a suspending body (RacingPair), a commutes_with-annotated
/// accumulator, a barrier-separated phase pair, and a cross-class control.
void register_race_demo(MethodRegistry& reg) {
  // account.deposit writes the balance and runs to completion; two deposits
  // of "balance = f(balance)" shape do not commute.
  const auto deposit = race_decl(reg, "deposit", /*class_id=*/1, {}, {"balance"});
  // audit_reset also writes the balance but can suspend mid-body (it fetches
  // the remote ledger first), so deposit can interleave *inside* it.
  const auto audit = race_decl(reg, "audit_reset", 1, {"ledger"}, {"balance"},
                               /*blocks_locally=*/true);
  // tally only accumulates a commutative counter — annotated benign.
  const auto tally = race_decl(reg, "tally", 1, {}, {"count"});
  reg.add_commutes(tally, tally);
  // observer reads a same-named field of a *different* class — no alias.
  (void)race_decl(reg, "observer", 2, {"balance"}, {});

  // Two-phase pipeline whose stage conflict is ordered by a declared barrier.
  const auto stage_fill = race_decl(reg, "stage_fill", 3, {}, {"buf"});
  const auto stage_drain = race_decl(reg, "stage_drain", 3, {"buf"}, {"out"});

  const auto driver = race_decl(reg, "race_driver", 4, {}, {}, /*blocks_locally=*/true);
  for (auto callee : {deposit, audit, tally, stage_fill, stage_drain}) {
    reg.add_callee(driver, callee);
  }
  reg.add_barrier_separation(driver, stage_fill, stage_drain);
}

concert::MethodId progress_decl(MethodRegistry& reg, const char* name, std::uint32_t class_id,
                                bool uses_cont = false, std::uint8_t multi_return = 1,
                                bool bounded = false) {
  concert::MethodDecl d;
  d.name = name;
  d.seq = demo_seq;
  d.par = demo_par;
  d.class_id = class_id;
  d.uses_continuation = uses_cont;
  d.multi_return = multi_return;
  d.bounded_forwarding = bounded;
  return reg.declare(d);
}

/// A registry seeded with the broken reply disciplines concert-progress is
/// built for: a banker with no declared replier (lost-reply), a banker whose
/// replier can never alias it (lost-reply), a fan-out forward that moves one
/// reply obligation to two targets (double-reply), an unbounded forwarding
/// cycle (forward-livelock), and balanced controls (a drained banker, a
/// bounded countdown).
void register_progress_demo(MethodRegistry& reg) {
  // lost-reply: banks its continuation but nothing is declared to drain it.
  (void)progress_decl(reg, "lost_banker", /*class_id=*/1, /*uses_cont=*/true);

  // lost-reply (aliasing): the declared replier runs on a different class, so
  // it can never see the banker's objects.
  const auto alias_banker = progress_decl(reg, "alias_banker", 2, true);
  const auto foreign_drain = progress_decl(reg, "foreign_drain", 3);
  reg.add_replier(alias_banker, foreign_drain);

  // double-reply: wide_req forwards its one reply obligation to two sinks;
  // each will discharge the same continuation, double-filling the slot.
  const auto wide_req = progress_decl(reg, "wide_req", 4);
  const auto sink_a = progress_decl(reg, "sink_a", 4);
  const auto sink_b = progress_decl(reg, "sink_b", 4);
  reg.add_callee(wide_req, sink_a, /*forwards=*/true);
  reg.add_callee(wide_req, sink_b, /*forwards=*/true);

  // forward-livelock: a two-method forwarding cycle with no termination fact.
  const auto ping = progress_decl(reg, "ping", 5);
  const auto pong = progress_decl(reg, "pong", 5);
  reg.add_callee(ping, pong, /*forwards=*/true);
  reg.add_callee(pong, ping, /*forwards=*/true);

  // Control group: a banker drained by a same-class replier and a bounded
  // self-forwarding countdown — both ledgers balance.
  const auto mini_barrier = progress_decl(reg, "mini_barrier", 6, true);
  const auto mini_drain = progress_decl(reg, "mini_drain", 6);
  reg.add_replier(mini_barrier, mini_drain);
  const auto countdown = progress_decl(reg, "countdown", 7, false, 1, /*bounded=*/true);
  reg.add_callee(countdown, countdown, /*forwards=*/true);
}

const std::vector<App>& apps() {
  static const std::vector<App> kApps = {
      {"sor", [](MethodRegistry& reg) { concert::sor::register_sor(reg, {}); }},
      {"mdforce",
       [](MethodRegistry& reg) { concert::md::register_md(reg, {}, /*nodes=*/4); }},
      {"em3d", [](MethodRegistry& reg) { concert::em3d::register_em3d(reg, {}, /*nodes=*/4); }},
      {"synth",
       [](MethodRegistry& reg) {
         concert::SplitMix64 rng(42);
         concert::synth::register_synth(reg, concert::synth::Program::random(rng, 6, 3));
       }},
      {"seqbench",
       [](MethodRegistry& reg) { concert::seqbench::register_seqbench(reg, false); }},
      {"seqbench-dist",
       [](MethodRegistry& reg) { concert::seqbench::register_seqbench(reg, true); }},
      {"deadlock-demo", register_deadlock_demo, /*in_default_sweep=*/false},
      {"race-demo", register_race_demo, /*in_default_sweep=*/false},
      {"progress-demo", register_progress_demo, /*in_default_sweep=*/false},
  };
  return kApps;
}

enum PassMask : unsigned {
  kPassDeadlock = 1u << 0,
  kPassRaces = 1u << 1,
  kPassProgress = 1u << 2,
  kPassAll = ~0u,
};

unsigned pass_of(LintCode c) {
  switch (c) {
    case LintCode::SelfDeadlock:
    case LintCode::LockOrderCycle: return kPassDeadlock;
    case LintCode::RacingPair:
    case LintCode::NonCommutativeDelivery: return kPassRaces;
    case LintCode::LostReply:
    case LintCode::DoubleReply:
    case LintCode::ForwardLivelock: return kPassProgress;
    default:
      return kPassAll & ~(kPassDeadlock | kPassRaces | kPassProgress);
  }
}

struct AppResult {
  std::string name;
  std::size_t methods = 0;
  std::vector<Diagnostic> shown;  ///< Diagnostics surviving the pass filter.
  /// Formatted ReplyLedger certificate per CP interface, paired with its
  /// balanced verdict (--progress only).
  std::vector<std::pair<std::string, bool>> ledgers;
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

AppResult lint_app(const App& app, unsigned passes, bool want_ledgers) {
  MethodRegistry reg;
  app.build(reg);
  reg.finalize();
  const LintReport report = concert::verify::lint_registry(reg);

  AppResult r;
  r.name = app.name;
  r.methods = reg.size();
  for (const Diagnostic& d : report.diagnostics) {
    if ((pass_of(d.code) & passes) == 0) continue;
    r.shown.push_back(d);
    if (d.severity == Severity::Error) {
      ++r.errors;
    } else {
      ++r.warnings;
    }
  }
  if (want_ledgers) {
    const concert::verify::ProgressAnalysis progress =
        concert::verify::analyze_progress(reg.methods());
    for (const concert::verify::ReplyLedger& ledger : progress.ledgers) {
      r.ledgers.emplace_back(concert::verify::format_ledger(reg.methods(), ledger),
                             ledger.balanced);
    }
  }
  return r;
}

void print_text(const App& app, const AppResult& r, bool blame) {
  std::cout << r.name << ": " << r.methods << " methods, " << r.errors << " error(s), "
            << r.warnings << " warning(s)\n";
  for (const Diagnostic& d : r.shown) {
    std::cout << (d.severity == Severity::Error ? "error" : "warning") << ": ["
              << lint_code_name(d.code) << "] " << d.message << "\n";
  }
  for (const auto& [line, balanced] : r.ledgers) {
    (void)balanced;  // the verdict is embedded in the formatted line
    std::cout << "progress: " << line << "\n";
  }
  if (blame) {
    MethodRegistry reg;
    app.build(reg);
    reg.finalize();
    std::cout << concert::verify::blame_report(reg);
  }
}

void print_json(const std::vector<AppResult>& results, int total_errors) {
  std::cout << "{\n  \"apps\": [\n";
  for (std::size_t a = 0; a < results.size(); ++a) {
    const AppResult& r = results[a];
    std::cout << "    {\n      \"name\": \"" << json_escape(r.name) << "\",\n"
              << "      \"methods\": " << r.methods << ",\n"
              << "      \"errors\": " << r.errors << ",\n"
              << "      \"warnings\": " << r.warnings << ",\n"
              << "      \"diagnostics\": [";
    for (std::size_t i = 0; i < r.shown.size(); ++i) {
      const Diagnostic& d = r.shown[i];
      std::cout << (i ? "," : "") << "\n        {\"code\": \"" << lint_code_name(d.code)
                << "\", \"severity\": \""
                << (d.severity == Severity::Error ? "error" : "warning")
                << "\", \"message\": \"" << json_escape(d.message) << "\"}";
    }
    std::cout << (r.shown.empty() ? "]" : "\n      ]");
    if (!r.ledgers.empty()) {
      std::cout << ",\n      \"progress_ledgers\": [";
      for (std::size_t i = 0; i < r.ledgers.size(); ++i) {
        std::cout << (i ? "," : "") << "\n        {\"ledger\": \""
                  << json_escape(r.ledgers[i].first) << "\", \"balanced\": "
                  << (r.ledgers[i].second ? "true" : "false") << "}";
      }
      std::cout << "\n      ]";
    }
    std::cout << "\n    }" << (a + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n  \"total_errors\": " << total_errors << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool blame = false;
  bool json = false;
  unsigned passes = 0;  // 0 = no selective pass requested; becomes kPassAll
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--blame") == 0) {
      blame = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--deadlock") == 0) {
      passes |= kPassDeadlock;
    } else if (std::strcmp(argv[i], "--races") == 0) {
      passes |= kPassRaces;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      passes |= kPassProgress;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const App& app : apps()) std::cout << app.name << "\n";
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::cout << "usage: concert_lint [--blame] [--json] [--deadlock] [--races] "
                   "[--progress] [--list] [app...]\n";
      return 0;
    } else {
      wanted.emplace_back(argv[i]);
    }
  }
  const bool want_ledgers = (passes & kPassProgress) != 0;
  if (passes == 0) passes = kPassAll;

  int errors = 0;
  bool matched_any = false;
  std::vector<AppResult> results;
  for (const App& app : apps()) {
    const bool named = !wanted.empty() &&
                       std::find(wanted.begin(), wanted.end(), app.name) != wanted.end();
    if (wanted.empty() ? !app.in_default_sweep : !named) continue;
    matched_any = true;
    AppResult r = lint_app(app, passes, want_ledgers);
    errors += static_cast<int>(r.errors);
    if (json) {
      results.push_back(std::move(r));
    } else {
      print_text(app, r, blame);
    }
  }
  if (!matched_any) {
    std::cerr << "concert_lint: no app matched; try --list\n";
    return 2;
  }
  if (json) print_json(results, errors);
  return errors > 125 ? 125 : errors;
}
