#include "verify/race.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <set>
#include <sstream>

namespace concert::verify {
namespace {

std::uint64_t pair_key(MethodId a, MethodId b) {
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  return (hi << 32) | lo;
}

/// Same aliasing rule as the lock-order detector (lint.cpp): two methods can
/// target the same object only if their classes may coincide; class 0 is
/// unclassed and conservatively aliases everything.
bool classes_may_alias(const MethodInfo& a, const MethodInfo& b) {
  return a.class_id == 0 || b.class_id == 0 || a.class_id == b.class_id;
}

/// Reachability closure over call ∪ forwarding edges, self-inclusive.
/// reach[m] answers "can an invocation of m transitively spawn x?".
std::vector<std::vector<std::uint8_t>> reach_closure(const std::vector<MethodInfo>& methods) {
  const std::size_t n = methods.size();
  std::vector<std::vector<std::uint8_t>> reach(n, std::vector<std::uint8_t>(n, 0));
  for (std::size_t m = 0; m < n; ++m) {
    std::deque<MethodId> work{static_cast<MethodId>(m)};
    reach[m][m] = 1;
    while (!work.empty()) {
      const MethodId cur = work.front();
      work.pop_front();
      for (const std::vector<MethodId>* edges : {&methods[cur].callees, &methods[cur].forwards_to}) {
        for (MethodId next : *edges) {
          if (next >= n || reach[m][next]) continue;
          reach[m][next] = 1;
          work.push_back(next);
        }
      }
    }
  }
  return reach;
}

/// Least fixpoint of "can this invocation suspend mid-body?": seeded by
/// blocks_locally and propagated over plain call edges (a callee that
/// suspends keeps the caller's activation live across the gap). This is
/// deliberately narrower than FlowFacts::may_block — forward-target CP-ness
/// makes a method *need a continuation* without ever opening a window inside
/// the forwarding body itself.
std::vector<std::uint8_t> can_suspend(const std::vector<MethodInfo>& methods) {
  const std::size_t n = methods.size();
  std::vector<std::uint8_t> suspends(n, 0);
  for (std::size_t m = 0; m < n; ++m) suspends[m] = methods[m].blocks_locally ? 1 : 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t m = 0; m < n; ++m) {
      if (suspends[m]) continue;
      for (MethodId c : methods[m].callees) {
        if (c < n && suspends[c]) {
          suspends[m] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  return suspends;
}

/// Shortest call-graph path from -> to (inclusive) over call ∪ forwarding
/// edges; empty if unreachable.
std::vector<MethodId> shortest_path(const std::vector<MethodInfo>& methods, MethodId from,
                                    MethodId to) {
  const std::size_t n = methods.size();
  if (from >= n || to >= n) return {};
  std::vector<MethodId> parent(n, kInvalidMethod);
  std::vector<std::uint8_t> seen(n, 0);
  std::deque<MethodId> work{from};
  seen[from] = 1;
  while (!work.empty()) {
    const MethodId cur = work.front();
    work.pop_front();
    if (cur == to) {
      std::vector<MethodId> path{to};
      for (MethodId p = parent[to]; p != kInvalidMethod; p = parent[p]) path.push_back(p);
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (const std::vector<MethodId>* edges : {&methods[cur].callees, &methods[cur].forwards_to}) {
      for (MethodId next : *edges) {
        if (next >= n || seen[next]) continue;
        seen[next] = 1;
        parent[next] = cur;
        work.push_back(next);
      }
    }
  }
  // from == to with no self edge: the trivial one-hop witness.
  return from == to ? std::vector<MethodId>{from} : std::vector<MethodId>{};
}

void intersect_into(const std::vector<std::string>& writes, const std::vector<std::string>& other,
                    std::set<std::string>& out) {
  for (const std::string& w : writes) {
    for (const std::string& o : other) {
      if (w == o) out.insert(w);
    }
  }
}

}  // namespace

std::vector<std::string> conflicting_fields(const MethodInfo& a, const MethodInfo& b) {
  std::set<std::string> fields;
  intersect_into(a.writes, b.writes, fields);
  intersect_into(a.writes, b.reads, fields);
  intersect_into(b.writes, a.reads, fields);
  return {fields.begin(), fields.end()};
}

bool commutes_declared(const MethodInfo& a, MethodId b) {
  for (MethodId c : a.commutes_with) {
    if (c == b) return true;
  }
  return false;
}

bool RaceAnalysis::flagged(MethodId a, MethodId b) const {
  return std::binary_search(keys.begin(), keys.end(), pair_key(a, b));
}

RaceAnalysis analyze_races(const std::vector<MethodInfo>& methods) {
  RaceAnalysis out;
  const std::size_t n = methods.size();
  if (n == 0) return out;
  const std::vector<std::vector<std::uint8_t>> reach = reach_closure(methods);
  const std::vector<std::uint8_t> suspends = can_suspend(methods);

  // Happens-before: a barrier_separated(m, c1, c2) declaration orders every
  // method reachable *only* through c1 before every method reachable *only*
  // through c2 (a method reachable through both waves stays concurrent with
  // everything).
  std::vector<std::uint8_t> separated(n * n, 0);
  for (std::size_t m = 0; m < n; ++m) {
    for (const std::pair<MethodId, MethodId>& sep : methods[m].barrier_separated) {
      const MethodId c1 = sep.first;
      const MethodId c2 = sep.second;
      if (c1 >= n || c2 >= n) continue;
      for (std::size_t x = 0; x < n; ++x) {
        if (!reach[c1][x] || reach[c2][x]) continue;
        for (std::size_t y = 0; y < n; ++y) {
          if (!reach[c2][y] || reach[c1][y]) continue;
          separated[x * n + y] = separated[y * n + x] = 1;
        }
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const MethodInfo& a = methods[i];
      const MethodInfo& b = methods[j];
      if (!classes_may_alias(a, b)) continue;
      std::vector<std::string> fields = conflicting_fields(a, b);
      if (fields.empty()) continue;  // Disjoint, read-only, or effects undeclared.
      if (separated[i * n + j]) continue;
      if (commutes_declared(a, static_cast<MethodId>(j)) ||
          commutes_declared(b, static_cast<MethodId>(i))) {
        continue;
      }
      RacePair race;
      race.a = static_cast<MethodId>(i);
      race.b = static_cast<MethodId>(j);
      race.fields = std::move(fields);
      race.both_atomic = (a.locks_self || !suspends[i]) && (b.locks_self || !suspends[j]);
      // Prefer a third-party spawner (the concurrent send site); fall back to
      // one of the pair reaching the other (self-spawned waves).
      for (std::size_t s = 0; s < n && race.spawner == kInvalidMethod; ++s) {
        if (s != i && s != j && reach[s][i] && reach[s][j]) {
          race.spawner = static_cast<MethodId>(s);
        }
      }
      if (race.spawner == kInvalidMethod && reach[i][j]) race.spawner = race.a;
      if (race.spawner == kInvalidMethod && reach[j][i]) race.spawner = race.b;
      if (race.spawner != kInvalidMethod) {
        race.witness_a = shortest_path(methods, race.spawner, race.a);
        race.witness_b = shortest_path(methods, race.spawner, race.b);
      } else {
        race.witness_a = {race.a};
        race.witness_b = {race.b};
      }
      out.keys.push_back(pair_key(race.a, race.b));
      out.races.push_back(std::move(race));
    }
  }
  std::sort(out.keys.begin(), out.keys.end());
  return out;
}

std::string format_race(const std::vector<MethodInfo>& methods, const RacePair& race) {
  std::ostringstream os;
  os << method_name_or_id(methods, race.a) << " ~ " << method_name_or_id(methods, race.b)
     << " [races on ";
  for (std::size_t i = 0; i < race.fields.size(); ++i) {
    if (i) os << ", ";
    os << race.fields[i];
  }
  os << "]: ";
  auto emit = [&](const std::vector<MethodId>& path) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i) os << " -> ";
      os << method_name_or_id(methods, path[i]);
    }
  };
  emit(race.witness_a);
  os << " | ";
  emit(race.witness_b);
  if (race.spawner == kInvalidMethod) {
    os << " (reachable only from replicated entry points — every node's root can send either)";
  }
  os << (race.both_atomic
             ? " (both bodies run atomically, but their delivery order is unordered and the "
               "effects do not commute)"
             : " (one side can suspend mid-body, interleaving the pair's field accesses)");
  return os.str();
}

}  // namespace concert::verify
