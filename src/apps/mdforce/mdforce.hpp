// MD-Force — the irregular parallel kernel (paper Sec. 4.3.2, Table 5).
//
// The nonbonded force phase of a molecular dynamics step: iterate over all
// atom pairs within a cutoff radius and accumulate Lennard-Jones forces on
// both atoms. Data access is irregular (spatial neighborhoods), and the two
// layouts of Table 5 are reproduced: `random` (uniform placement, poor
// locality) and `spatial` (orthogonal recursive bisection, high locality).
//
// As in the paper, communication demand is reduced by (a) locally caching
// the coordinates of remote atoms — a push phase ships every coordinate a
// node will need — and (b) combining force increments destined for remote
// atoms in a local buffer flushed once at the end.
//
// Methods (all on per-node "container" objects):
//   cache_coords(dst, id,x,y,z) NB — install a remote atom's coords.
//   get_coord(owner, id, dim)   NB — fetch one coordinate (cache-miss path).
//   add_force(owner, id,fx,fy,fz) NB — apply a combined force increment.
//   pair_force(me, i, j)        MB — one pair interaction; falls back to the
//                                    heap only on a coordinate-cache miss.
//   md_driver(me, ...)          MB — per-node phase engine.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/barrier.hpp"
#include "core/registry.hpp"
#include "machine/machine.hpp"
#include "objects/distribution.hpp"

namespace concert::md {

struct Params {
  std::size_t atoms = 512;
  double density = 0.8;      ///< atoms per unit volume (sets the box size).
  double cutoff = 1.6;       ///< interaction radius (short relative to the box,
                             ///< so a spatial layout can actually pay off).
  bool spatial = true;       ///< ORB layout (vs uniform random).
  double cache_fraction = 1.0;  ///< fraction of needed remote coords pre-pushed.
  /// Cache-miss fetch strategy: one 3-value fetch (the multiple-return-values
  /// extension of paper Sec. 5) instead of three single-value get_coord round
  /// trips.
  bool batched_fetch = false;
  std::uint64_t seed = 1234;
};

struct Ids {
  MethodId cache_coords = kInvalidMethod;
  MethodId get_coord = kInvalidMethod;
  MethodId fetch_coords = kInvalidMethod;  ///< multi_return=3 variant.
  MethodId add_force = kInvalidMethod;
  MethodId pair_force = kInvalidMethod;
  MethodId driver = kInvalidMethod;
  BarrierMethods barrier;
};

struct Vec3 {
  double x = 0, y = 0, z = 0;
};

struct Atom {
  Vec3 pos;
  Vec3 force;
};

/// Per-node container: owned atoms, the coordinate cache, the force-combine
/// buffer, the pair worklist, and the pre-push plan.
struct NodeContainer {
  std::unordered_map<std::uint32_t, Atom> atoms;      ///< owned atoms by global id.
  std::unordered_map<std::uint32_t, Vec3> cache;      ///< remote coords.
  std::vector<std::pair<std::uint32_t, Vec3>> combine;  ///< (remote id, accumulated f).
  /// Flat atom-id -> combine slot directory (0 = none, else index+1). Sized
  /// once in build(); entries touched by a step are zeroed when the driver
  /// retires the step, so no per-step rehash/realloc churn.
  std::vector<std::uint32_t> combine_slot;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;  ///< owner-computes worklist.
  /// Pre-push plan: (destination container, atom id) for coords this node
  /// must ship before the force phase.
  std::vector<std::pair<GlobalRef, std::uint32_t>> pushes;
  GlobalRef barrier;
  std::vector<GlobalRef> owner_container;  ///< atom id -> owner container (directory).
};

inline constexpr std::uint32_t kContainerType = 0x4D44u;

Ids register_md(MethodRegistry& reg, const Params& params, std::size_t nodes);

struct World {
  Params params;
  std::vector<GlobalRef> containers;  ///< one per node.
  std::vector<NodeId> owner;          ///< atom id -> node.
  GlobalRef barrier;
  std::size_t total_pairs = 0;
  std::size_t cross_pairs = 0;  ///< pairs whose second atom is remote.
  /// Per-run root-context scratch, reserved once in build(). run() is the
  /// measured body of the wallclock suite, so it must not grow vectors; the
  /// contexts themselves come from the nodes' context arenas.
  std::vector<Context*> root_scratch;
};
World build(Machine& machine, const Ids& ids, const Params& params);

/// Runs one force iteration (the paper measures one). Returns false if any
/// node driver failed to complete.
bool run(Machine& machine, const Ids& ids, World& world);

/// Reads all forces back, indexed by atom id.
std::vector<Vec3> extract_forces(Machine& machine, const World& world);

/// Serial reference force computation over the same positions.
std::vector<Vec3> reference(const Params& params);

/// Deterministic positions used by build() and reference().
std::vector<Vec3> make_positions(const Params& params);

}  // namespace concert::md
