#include "scenario/topology.hpp"

#include <stdexcept>

namespace nectar::scenario {

namespace {

void build_star(net::Network& net, const TopologySpec& s) {
  if (s.nodes > s.hub_ports) {
    throw std::invalid_argument("topology: star needs nodes <= hub_ports (" +
                                std::to_string(s.nodes) + " > " + std::to_string(s.hub_ports) +
                                "); use fat_tree");
  }
  int h = net.add_hub(s.hub_ports);
  for (int i = 0; i < s.nodes; ++i) net.add_cab(h, i, s.with_vme);
}

void build_fat_tree(net::Network& net, const TopologySpec& s, const ParallelSpec& par) {
  if (s.spines < 1) throw std::invalid_argument("topology: fat_tree needs spines >= 1");
  int cabs_per_leaf = s.hub_ports - s.spines;
  if (cabs_per_leaf < 1) {
    throw std::invalid_argument("topology: fat_tree needs hub_ports > spines");
  }
  int leaves = (s.nodes + cabs_per_leaf - 1) / cabs_per_leaf;
  if (leaves < 1) leaves = 1;
  const bool block = par.partition == Partition::Block;
  const int shards = net.shard_count();
  // Leaf HUBs first (ids 0..leaves-1), then one spine HUB per uplink with a
  // port per leaf. "block" keeps contiguous leaves (and their CABs — node i
  // lives on leaf i / cabs_per_leaf) on the same shard; "modulo" leaves the
  // default id % shards interleave.
  for (int l = 0; l < leaves; ++l) {
    int shard = block ? static_cast<int>(static_cast<long>(l) * shards / leaves) : -1;
    net.add_hub(s.hub_ports, shard);
  }
  for (int sp = 0; sp < s.spines; ++sp) {
    int shard = block ? static_cast<int>(static_cast<long>(sp) * shards / s.spines) : -1;
    int spine = net.add_hub(leaves, shard);
    for (int l = 0; l < leaves; ++l) {
      net.link_hubs(l, cabs_per_leaf + sp, spine, l, s.trunk_propagation);
    }
  }
  for (int i = 0; i < s.nodes; ++i) {
    net.add_cab(i / cabs_per_leaf, i % cabs_per_leaf, s.with_vme);
  }
}

}  // namespace

int build_topology(net::Network& net, const TopologySpec& spec, std::uint64_t master_seed,
                   const ParallelSpec& par) {
  if (net.hub_count() != 0 || net.cab_count() != 0) {
    throw std::invalid_argument("build_topology: network is not empty");
  }
  if (spec.nodes < 1) throw std::invalid_argument("topology: need nodes >= 1");
  if (par.shards != net.shard_count()) {
    throw std::invalid_argument("build_topology: spec says " + std::to_string(par.shards) +
                                " shards but the network has " +
                                std::to_string(net.shard_count()));
  }
  switch (spec.kind) {
    case TopologyKind::Star:
      build_star(net, spec);
      break;
    case TopologyKind::FatTree:
      build_fat_tree(net, spec, par);
      break;
  }
  // Must precede install_routes, which computes every route.
  net.set_route_spread(spec.route_spread);
  net.install_routes();
  // One master seed reproduces the whole run: every link derives its fault
  // streams from (master_seed, link name).
  for (int n = 0; n < net.cab_count(); ++n) {
    net.cab(n).out_link().set_fault_seed_base(master_seed);
  }
  return net.cab_count();
}

}  // namespace nectar::scenario
