#pragma once

// Topology builders: stamp out multi-HUB meshes of CAB+host nodes on a
// net::Network from a small spec, instead of hand-wiring add_hub/add_cab
// calls. Both shapes compute and install source routes and re-key every
// link's fault-RNG streams under the scenario master seed, so a scenario is
// fully described by (spec, seed).

#include <cstdint>

#include "net/topology.hpp"
#include "scenario/config.hpp"

namespace nectar::scenario {

enum class TopologyKind {
  Star,     ///< N CABs on one HUB (N <= HUB ports; the common installation)
  FatTree,  ///< 2-level: leaf HUBs with CABs, each leaf trunked to every spine
};

inline constexpr Named<TopologyKind> kTopologyKinds[] = {
    {TopologyKind::Star, "star"},
    {TopologyKind::FatTree, "fat_tree"},
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::Star;
  int nodes = 2;
  int hub_ports = 16;  ///< leaf/star HUB radix
  int spines = 2;      ///< FatTree: number of spine HUBs (= trunks per leaf)
  bool with_vme = false;
  /// Flight time of inter-HUB trunk fibers. Under a sharded run the minimum
  /// over cross-shard trunks is the synchronization lookahead, so larger
  /// values mean fewer barriers; must be > 0 whenever shards > 1.
  sim::SimTime trunk_propagation = sim::costs::kLinkPropagation;
  /// Spread routes across equal-cost trunks (net::Network::set_route_spread):
  /// on a fat-tree, different node pairs transit different spines instead of
  /// all tie-breaking to spine 0. Off by default — first-trunk routes are
  /// baked into the committed BENCH_* reports.
  bool route_spread = false;
};

/// How HUBs map to shards. Identical for star.
enum class Partition {
  Modulo,  ///< hub id % shards (interleaves leaves and spines)
  Block,   ///< contiguous leaf ranges per shard; spines spread round-robin
};

inline constexpr Named<Partition> kPartitions[] = {
    {Partition::Modulo, "modulo"},
    {Partition::Block, "block"},
};

/// How HUBs map to simulation shards ([parallel] INI section).
struct ParallelSpec {
  int shards = 1;  ///< worker threads / event queues; 1 = sequential engine
  Partition partition = Partition::Modulo;
};

/// Build `spec` into `net` (which must be empty), install routes, and seed
/// every CAB out-link's fault streams from `master_seed`. `par` picks the
/// shard partition policy (`par.shards` must match the Network's shard
/// count). Returns the node count actually built (== spec.nodes). Throws
/// std::invalid_argument when the spec does not fit (e.g. Star with more
/// nodes than ports).
int build_topology(net::Network& net, const TopologySpec& spec, std::uint64_t master_seed,
                   const ParallelSpec& par = {});

}  // namespace nectar::scenario
