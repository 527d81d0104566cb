#include "route/pathdb.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/random.hpp"

namespace nectar::route {

PathDb::PathDb(const net::Network& net, int k, std::uint64_t seed)
    : nodes_(net.cab_count()), k_(std::max(1, k)), seed_(seed) {
  for (int a = 0; a < nodes_; ++a) {
    for (int b = a; b < nodes_; ++b) build_pair(net, a, b);
  }
}

void PathDb::build_pair(const net::Network& net, int a, int b) {
  // Same-CAB / same-HUB pairs have exactly one path: the destination's port
  // byte. There is no trunk to be disjoint from.
  if (a == b || net.cab_hub(a) == net.cab_hub(b)) {
    paths_[{a, b}] = {net.route_ref(a, b)};
    if (a != b) paths_[{b, a}] = {net.route_ref(b, a)};
    return;
  }

  // Seeded tie-break: rotate the search's trunk order per unordered pair so
  // equal-cost pairs spread across parallel trunks deterministically.
  const std::uint64_t rotation =
      sim::derive_seed(seed_, "ecmp/" + std::to_string(a) + "/" + std::to_string(b));

  std::vector<hw::RouteRef> fwd, rev;
  std::vector<bool> used(static_cast<std::size_t>(net.trunk_count()), false);
  for (int p = 0; p < k_; ++p) {
    // A shortest path over the trunks earlier paths of this pair left free.
    auto hops = net.find_path(net.cab_hub(a), net.cab_hub(b), rotation, used);
    if (!hops) break;  // no further edge-disjoint path exists

    // Forward route: the near-side output port of each trunk hop, then the
    // destination's CAB port. Reverse route: far-side ports in reverse hop
    // order, then the source's CAB port — the exact wire-level reverse.
    std::vector<std::uint8_t> f, r;
    for (const net::Network::TrunkHop& h : *hops) {
      f.push_back(h.port);
      used[static_cast<std::size_t>(h.trunk)] = true;
    }
    f.push_back(static_cast<std::uint8_t>(net.cab_port(b)));
    for (auto it = hops->rbegin(); it != hops->rend(); ++it) r.push_back(it->far_port);
    r.push_back(static_cast<std::uint8_t>(net.cab_port(a)));
    fwd.emplace_back(std::move(f));
    rev.emplace_back(std::move(r));
  }

  if (fwd.empty()) {
    throw std::logic_error("PathDb: no route between CABs " + std::to_string(a) + " and " +
                           std::to_string(b));
  }
  paths_[{a, b}] = std::move(fwd);
  paths_[{b, a}] = std::move(rev);
}

int PathDb::path_count(int src, int dst) const {
  return static_cast<int>(paths_.at({src, dst}).size());
}

const hw::RouteRef& PathDb::path(int src, int dst, int idx) const {
  return paths_.at({src, dst}).at(static_cast<std::size_t>(idx));
}

int PathDb::preferred(int src, int dst) const {
  int n = path_count(src, dst);
  if (n <= 1) return 0;
  std::string name = "pref/" + std::to_string(src) + "/" + std::to_string(dst);
  return static_cast<int>(sim::derive_seed(seed_, name) % static_cast<std::uint64_t>(n));
}

}  // namespace nectar::route
