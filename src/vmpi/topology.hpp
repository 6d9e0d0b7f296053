#pragma once

// Topology model for the virtual MPI substrate.
//
// The paper's Theta runs place many ranks per node: traffic between two
// ranks of one node crosses shared memory, traffic between nodes crosses
// the fabric — and at 16-64 ranks the fabric, not the local join, is the
// critical path.  The flat substrate cannot express that distinction, so
// every communication-avoidance claim about *placement* was unmeasurable.
//
// A Topology groups the ranks of a World into contiguous fixed-size
// "nodes": ranks [0, node_size) form node 0, [node_size, 2*node_size)
// node 1, and so on (the last node may be short).  The grouping is pure
// bookkeeping — no data moves differently — but every byte the substrate
// accounts is classified intra- vs cross-node against it, and the modelled
// cost of a cross-node byte is `cross_cost_ratio` times an intra-node one.
//
// The default (node_size = 1) is the flat fabric: every rank its own node,
// every remote byte cross-node — bit-compatible with the pre-topology
// accounting.

#include <cassert>
#include <cstdint>
#include <string>

namespace paralagg::vmpi {

/// Which schedule the symmetric collectives (allreduce / allgather /
/// allgatherv) run on.  All schedules fold in rank order, so results are
/// bit-identical; they differ in step count and in which links carry the
/// blocks.
enum class CollectiveSchedule : std::uint8_t {
  /// The slot-exchange model: one synchronized phase, modelled as n-1
  /// sequential steps (each rank's block visits every peer).  The
  /// pre-topology behaviour, kept selectable as the baseline.
  kLinear,
  /// Recursive doubling: partner rank^2^k at step k, ceil(log2 n) steps.
  /// Non-power-of-two rank counts fall back to the dissemination (Bruck)
  /// schedule, same step count.  The default.
  kRecursiveDoubling,
};

[[nodiscard]] const char* schedule_name(CollectiveSchedule s);

/// Parse "linear" | "rd" | "recursive-doubling"; throws std::invalid_argument otherwise.
[[nodiscard]] CollectiveSchedule parse_schedule(const std::string& name);

/// Rank-to-node grouping plus the modelled relative cost of crossing the
/// node boundary.  Value type; a copy lives on the World.
struct Topology {
  /// Ranks per node (contiguous blocks).  1 = flat fabric.
  int node_size = 1;
  /// Modelled cost of a cross-node byte relative to an intra-node byte
  /// (feeds core::CostModel::project_topology, never the real exchange).
  double cross_cost_ratio = 4.0;

  [[nodiscard]] int node_of(int rank) const {
    assert(node_size >= 1);
    return rank / node_size;
  }
  [[nodiscard]] bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  [[nodiscard]] int node_count(int nranks) const {
    return (nranks + node_size - 1) / node_size;
  }

  [[nodiscard]] bool flat() const { return node_size == 1; }

  /// Grouping with `nodes` equal nodes over `nranks` ranks (the last node
  /// short when they do not divide).  nodes <= 0 or >= nranks gives flat.
  [[nodiscard]] static Topology grouped(int nranks, int nodes);

  [[nodiscard]] std::string describe(int nranks) const;
};

}  // namespace paralagg::vmpi
