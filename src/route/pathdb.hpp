#pragma once

// PathDb: k-shortest edge-disjoint source routes per CAB pair.
//
// net::Network::install_routes installs ONE path per pair; every fault on
// that path blackholes the pair for the rest of the run. The PathDb asks the
// Network's route search (Network::find_path) for up to k edge-disjoint
// alternatives (the ECMP set the control plane fails over across): each
// search excludes the trunks of the pair's earlier paths. The paths are
// interned as hw::RouteRefs.
//
// Two properties the health prober depends on, both by construction:
//
//  - Determinism: tie-breaks among equal-cost trunks come from the search's
//    rotation, seeded per unordered pair, so the same (topology, seed)
//    always yields the same path sets, and different pairs spread across
//    parallel trunks instead of all picking trunk 0.
//  - Reverse symmetry: path i of (b -> a) is the exact trunk-wise reverse of
//    path i of (a -> b). A probe reply can therefore travel the reverse of
//    the probed path — health is measured per path round trip, and a fault
//    on one path never poisons the probe results of another.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "hw/pool.hpp"
#include "net/topology.hpp"

namespace nectar::route {

class PathDb {
 public:
  /// Computes the path sets for every ordered CAB pair of `net` eagerly
  /// (the topology is static; n^2 * k searches at build time, O(log) lookups
  /// after). `k` caps the ECMP set size; same-HUB pairs always have
  /// exactly one path (the destination port byte).
  PathDb(const net::Network& net, int k, std::uint64_t seed);

  int k() const { return k_; }
  int node_count() const { return nodes_; }

  /// Number of edge-disjoint paths found for src -> dst (>= 1 for any
  /// connected pair; the first is always a shortest path).
  int path_count(int src, int dst) const;

  /// The interned route bytes for path `idx` of src -> dst.
  const hw::RouteRef& path(int src, int dst, int idx) const;

  /// The ECMP member new traffic for src -> dst should prefer: a seeded
  /// hash over the ordered pair, so load spreads across the set while a
  /// given pair's choice is stable across runs.
  int preferred(int src, int dst) const;

 private:
  void build_pair(const net::Network& net, int a, int b);

  int nodes_;
  int k_;
  std::uint64_t seed_;
  std::map<std::pair<int, int>, std::vector<hw::RouteRef>> paths_;
};

}  // namespace nectar::route
