// EM3D — the irregular kernel with selectable communication structure
// (paper Sec. 4.3.3, Table 6).
//
// A bipartite graph of E and H nodes; each step updates every E node from its
// H in-neighbors (value -= sum of weight * neighbor), then every H node from
// its E in-neighbors. Three program versions exercise three communication and
// synchronization structures over the *same* graph:
//
//   * pull    — each node reads its in-neighbors directly (possibly remote
//               get_value invocations).
//   * push    — each source writes its value into every consumer's inbox
//               (one invocation per edge), consumers then combine locally.
//   * forward — like push, but one *chain* message per (source, set of
//               remote consumers): the message visits each consuming node in
//               turn, applying its local entries and forwarding the rest —
//               the reply obligation travels with the continuation. Fewer,
//               longer messages and a single reply per chain.
//
// Locality is a build parameter: each consumer edge picks an on-node source
// with probability `local_fraction`, else a uniformly random (mostly remote)
// one — reproducing Table 6's low (~0.015:1) and high (99:1) ratios.
//
// Layout. Graph ids 0 .. n/2-1 are E nodes, the rest H nodes. On a machine
// of P nodes, graph id `id` is owned by machine node id % P, and that node's
// one NodeContainer holds it at local index id / P, so ids map to places by
// arithmetic: no hash table, no per-id directory. A container keeps flat
// arrays by local index: node values; the in-edge block (sources, weights
// and inbox slots, `degree` entries per node); the consumers of each owned
// source in CSR, in forward-chain order; and a P-entry table from machine
// node to container.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/barrier.hpp"
#include "core/registry.hpp"
#include "machine/machine.hpp"
#include "support/panic.hpp"

namespace concert::em3d {

enum class Version : std::uint8_t { Pull = 0, Push = 1, Forward = 2 };

inline const char* version_name(Version v) {
  switch (v) {
    case Version::Pull: return "pull";
    case Version::Push: return "push";
    case Version::Forward: return "forward";
  }
  return "?";
}

struct Params {
  std::size_t graph_nodes = 256;  ///< Total graph nodes (half E, half H).
  std::size_t degree = 8;         ///< In-edges per node.
  int iters = 4;
  double local_fraction = 0.5;    ///< Probability an edge's source is on-node.
  std::uint64_t seed = 77;
};

struct Ids {
  MethodId get_value = kInvalidMethod;
  MethodId compute_pull = kInvalidMethod;
  MethodId recv_value = kInvalidMethod;
  MethodId combine_node = kInvalidMethod;
  MethodId fwd_update = kInvalidMethod;
  MethodId driver = kInvalidMethod;
  BarrierMethods barrier;
};

/// One graph node seen through its container's flat arrays: its value and
/// its slices of the in-edge block. Harnesses and tests read and reset nodes
/// through these views; the method bodies index the arrays directly.
struct GNode {
  double& value;
  std::span<const std::uint32_t> srcs;  ///< in-edge sources (global ids).
  std::span<const double> weights;      ///< in-edge weights.
  std::span<double> inbox;              ///< push/forward delivery slots (per in-edge).
};

struct Consumer {
  std::uint32_t dst;   ///< consuming graph node.
  std::uint16_t slot;  ///< its inbox slot for this edge.
};

/// The graph nodes one container owns, by graph id: machine node `home` of
/// P owns ids home, home + P, home + 2P, ..., graph id `id` at local index
/// id / P. E ids come before H ids, so local indices [0, first_h) are E nodes.
class OwnedNodes {
 public:
  OwnedNodes() = default;
  OwnedNodes(NodeId home, std::uint32_t stride, std::uint32_t count, std::uint32_t first_h)
      : home_(home), stride_(stride), count_(count), first_h_(first_h) {}

  /// Local index of graph id `id`; a ProtocolError when this container does
  /// not own it.
  std::uint32_t local(std::uint32_t id) const {
    const std::uint32_t li = id / stride_;
    CONCERT_CHECK(li * stride_ + home_ == id && li < count_,
                  "graph node " << id << " is not on the em3d container of node " << home_);
    return li;
  }
  std::uint32_t id(std::uint32_t li) const { return li * stride_ + home_; }
  /// Machine node owning graph id `id`.
  NodeId home_of(std::uint32_t id) const { return id % stride_; }
  std::uint32_t size() const { return count_; }
  std::uint32_t first_h() const { return first_h_; }

  GNode& at(std::uint32_t id) { return views[local(id)]; }

  std::vector<GNode> views;  ///< by local index

 private:
  NodeId home_ = 0;
  std::uint32_t stride_ = 1;  ///< P, the machine's node count
  std::uint32_t count_ = 0;
  std::uint32_t first_h_ = 0;
};

/// One machine node's share of the graph, in flat arrays by local index.
/// Every graph node has exactly `degree` in-edges, so local node li's edges
/// (sources, weights and the inbox slots their pushes fill) sit at
/// [li * degree, (li + 1) * degree) of one block.
struct NodeContainer {
  NodeContainer() = default;
  // The views in `nodes` point into this container's arrays.
  NodeContainer(const NodeContainer&) = delete;
  NodeContainer& operator=(const NodeContainer&) = delete;

  OwnedNodes nodes;
  std::uint32_t degree = 0;
  std::vector<double> values;        ///< per local node
  std::vector<std::uint32_t> srcs;   ///< in-edge block: source ids
  std::vector<double> weights;       ///< in-edge block: weights
  std::vector<double> inbox;         ///< in-edge block: pushed values
  /// Consumers of each owned source in CSR: local node li's are
  /// consumers[consumer_begin[li], consumer_begin[li + 1]), sorted by owner
  /// node, then id, then slot (the forward chains follow this order).
  std::vector<std::uint32_t> consumer_begin;
  std::vector<Consumer> consumers;
  std::vector<GlobalRef> containers;  ///< machine node -> its container (P entries)
  GlobalRef barrier;

  /// The container owning graph id `id`.
  GlobalRef container_of(std::uint32_t id) const { return containers[nodes.home_of(id)]; }
  /// Inbox slot `slot` of owned graph id `id`; a ProtocolError for a foreign
  /// id or a slot past its in-edges.
  double& inbox_slot(std::uint32_t id, std::int64_t slot) {
    const std::uint32_t li = nodes.local(id);
    CONCERT_CHECK(slot >= 0 && slot < degree,
                  "inbox slot " << slot << " of graph node " << id << " out of range " << degree);
    return inbox[std::size_t{li} * degree + static_cast<std::size_t>(slot)];
  }
};

inline constexpr std::uint32_t kContainerType = 0xE43Du;

Ids register_em3d(MethodRegistry& reg, const Params& params, std::size_t nodes);

struct World {
  Params params;
  std::vector<GlobalRef> containers;
  std::vector<NodeId> owner;  ///< graph id -> machine node.
  GlobalRef barrier;
  std::size_t local_edges = 0;
  std::size_t remote_edges = 0;
};
World build(Machine& machine, const Ids& ids, const Params& params);

/// Runs params.iters iterations with the chosen version on every node driver.
bool run(Machine& machine, const Ids& ids, World& world, Version version);

/// Reads all node values back by graph id.
std::vector<double> extract(Machine& machine, const World& world);

/// Serial reference over the same (deterministic) graph.
std::vector<double> reference(const Params& params, std::size_t machine_nodes);

}  // namespace concert::em3d
