// Route pins: every ordered CAB pair's source route, route::PathDb's
// edge-disjoint paths and a few multicast trees, checked against a reference
// search kept here. The reference is the plain trunk-list BFS: at each HUB
// it visits it scans the whole trunk list in wiring order, starting at a
// rotation and wrapping, and tests a trunk's a-side before its b-side. The
// Network and the PathDb must reproduce its bytes exactly, tie-breaks
// included: the committed BENCH_* reports bake these routes in, and the
// goldens only pin the routes their traffic happens to use.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "route/pathdb.hpp"
#include "scenario/topology.hpp"
#include "sim/random.hpp"

namespace nectar::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct Trunk {
  int hub_a, port_a, hub_b, port_b;
};

/// One trunk crossed by a reference path; `forward` when crossed a -> b.
struct Hop {
  int trunk;
  bool forward;
};

/// The reference: the HUB graph as wired, beside the Network under test.
class Reference {
 public:
  Reference(const Network& net, std::vector<Trunk> trunks, bool spread)
      : net_(net), trunks_(std::move(trunks)), spread_(spread) {}

  /// Shortest trunk path from `src` to `dst` over trunks not in `used`.
  std::optional<std::vector<Hop>> search(int src, int dst, std::size_t rot,
                                         const std::vector<bool>& used) const {
    struct Step {
      int hub;
      std::vector<Hop> hops;
    };
    std::deque<Step> queue{{src, {}}};
    std::vector<bool> visited(static_cast<std::size_t>(net_.hub_count()), false);
    visited[static_cast<std::size_t>(src)] = true;
    const std::size_t n = trunks_.size();
    while (!queue.empty()) {
      Step cur = std::move(queue.front());
      queue.pop_front();
      if (cur.hub == dst) return cur.hops;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t ti = (rot + k) % n;
        if (!used.empty() && used[ti]) continue;
        const Trunk& t = trunks_[ti];
        if (t.hub_a == cur.hub && !visited[static_cast<std::size_t>(t.hub_b)]) {
          visited[static_cast<std::size_t>(t.hub_b)] = true;
          Step next{t.hub_b, cur.hops};
          next.hops.push_back({static_cast<int>(ti), true});
          queue.push_back(std::move(next));
        }
        if (t.hub_b == cur.hub && !visited[static_cast<std::size_t>(t.hub_a)]) {
          visited[static_cast<std::size_t>(t.hub_a)] = true;
          Step next{t.hub_a, cur.hops};
          next.hops.push_back({static_cast<int>(ti), false});
          queue.push_back(std::move(next));
        }
      }
    }
    return std::nullopt;
  }

  /// The unicast hub path: rotation 0, or the spread hash of the hub pair.
  const std::vector<Hop>& hub_path(int src_hub, int dst_hub) const {
    auto [it, fresh] = paths_.try_emplace({src_hub, dst_hub});
    if (fresh) {
      std::size_t rot = 0;
      if (spread_ && !trunks_.empty()) {
        std::uint64_t h = static_cast<std::uint64_t>(src_hub) * 0x9E3779B97F4A7C15ull;
        h ^= static_cast<std::uint64_t>(dst_hub) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
        h ^= h >> 33;
        rot = static_cast<std::size_t>(h % trunks_.size());
      }
      it->second = search(src_hub, dst_hub, rot, {}).value();
    }
    return it->second;
  }

  Bytes route(int src, int dst) const {
    Bytes r;
    for (const Hop& h : hub_path(net_.cab_hub(src), net_.cab_hub(dst))) r.push_back(near(h));
    r.push_back(static_cast<std::uint8_t>(net_.cab_port(dst)));
    return r;
  }

  /// PathDb's path set for a < b: forward paths and their wire reverses.
  std::pair<std::vector<Bytes>, std::vector<Bytes>> paths(int a, int b, int k,
                                                          std::uint64_t seed) const {
    if (net_.cab_hub(a) == net_.cab_hub(b)) return {{route(a, b)}, {route(b, a)}};
    const std::size_t nt = trunks_.size();
    const std::string pair = "ecmp/" + std::to_string(a) + "/" + std::to_string(b);
    const std::size_t rot = nt > 0 ? sim::derive_seed(seed, pair) % nt : 0;
    std::vector<bool> used(nt, false);
    std::vector<Bytes> fwd, rev;
    for (int p = 0; p < k; ++p) {
      auto hops = search(net_.cab_hub(a), net_.cab_hub(b), rot, used);
      if (!hops) break;
      Bytes f, r;
      for (const Hop& h : *hops) {
        f.push_back(near(h));
        used[static_cast<std::size_t>(h.trunk)] = true;
      }
      f.push_back(static_cast<std::uint8_t>(net_.cab_port(b)));
      for (auto it = hops->rbegin(); it != hops->rend(); ++it) r.push_back(far(*it));
      r.push_back(static_cast<std::uint8_t>(net_.cab_port(a)));
      fwd.push_back(std::move(f));
      rev.push_back(std::move(r));
    }
    return {fwd, rev};
  }

  /// The multicast tree: unicast hub paths overlaid in member order.
  hw::McastTree mcast(int src, std::vector<int> members) const {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    hw::McastTree tree;
    tree.nodes.emplace_back();
    std::map<int, std::int32_t> hub_node{{net_.cab_hub(src), 0}};
    for (int dst : members) {
      if (dst == src) continue;
      std::int32_t cur = 0;
      for (const Hop& h : hub_path(net_.cab_hub(src), net_.cab_hub(dst))) {
        const Trunk& t = trunks_[static_cast<std::size_t>(h.trunk)];
        auto [it, fresh] = hub_node.try_emplace(h.forward ? t.hub_b : t.hub_a);
        if (fresh) {
          it->second = static_cast<std::int32_t>(tree.nodes.size());
          tree.nodes.emplace_back();
          tree.nodes[static_cast<std::size_t>(cur)].edges.push_back({near(h), it->second});
        }
        cur = it->second;
      }
      tree.nodes[static_cast<std::size_t>(cur)].edges.push_back(
          {static_cast<std::uint8_t>(net_.cab_port(dst)), -1});
    }
    for (hw::McastTree::Node& n : tree.nodes) {
      std::sort(n.edges.begin(), n.edges.end(),
                [](const auto& x, const auto& y) { return x.port < y.port; });
    }
    for (std::size_t i = tree.nodes.size(); i-- > 0;) {
      for (const hw::McastTree::Edge& e : tree.nodes[i].edges) {
        std::uint32_t below =
            1 + (e.child >= 0 ? tree.nodes[static_cast<std::size_t>(e.child)].depth : 0);
        tree.nodes[i].depth = std::max(tree.nodes[i].depth, below);
      }
    }
    return tree;
  }

 private:
  std::uint8_t near(const Hop& h) const {
    const Trunk& t = trunks_[static_cast<std::size_t>(h.trunk)];
    return static_cast<std::uint8_t>(h.forward ? t.port_a : t.port_b);
  }
  std::uint8_t far(const Hop& h) const {
    const Trunk& t = trunks_[static_cast<std::size_t>(h.trunk)];
    return static_cast<std::uint8_t>(h.forward ? t.port_b : t.port_a);
  }

  const Network& net_;
  std::vector<Trunk> trunks_;
  bool spread_;
  mutable std::map<std::pair<int, int>, std::vector<Hop>> paths_;
};

std::string str(const Bytes& b) {
  std::string s;
  for (std::uint8_t v : b) s += (s.empty() ? "" : ",") + std::to_string(v);
  return "{" + s + "}";
}

void expect_routes_pinned(const Network& net, const Reference& ref) {
  for (int s = 0; s < net.cab_count(); ++s) {
    for (int d = 0; d < net.cab_count(); ++d) {
      Bytes want = ref.route(s, d);
      if (net.route(s, d) != want) {
        ADD_FAILURE() << "route(" << s << ", " << d << ") = " << str(net.route(s, d))
                      << ", reference " << str(want);
        return;
      }
    }
  }
}

void expect_paths_pinned(const Network& net, const Reference& ref, int k, std::uint64_t seed) {
  route::PathDb db(net, k, seed);
  auto check = [&db](int src, int dst, const std::vector<Bytes>& want) {
    if (db.path_count(src, dst) != static_cast<int>(want.size())) {
      ADD_FAILURE() << "path_count(" << src << ", " << dst << ") = " << db.path_count(src, dst)
                    << ", reference " << want.size();
      return false;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const Bytes& got = db.path(src, dst, static_cast<int>(i)).bytes();
      if (got != want[i]) {
        ADD_FAILURE() << "path(" << src << ", " << dst << ", " << i << ") = " << str(got)
                      << ", reference " << str(want[i]);
        return false;
      }
    }
    return true;
  };
  for (int a = 0; a < net.cab_count(); ++a) {
    for (int b = a; b < net.cab_count(); ++b) {
      auto [fwd, rev] = ref.paths(a, b, k, seed);
      if (!check(a, b, fwd) || !check(b, a, rev)) {
        ADD_FAILURE() << "k = " << k << ", seed = " << seed;
        return;
      }
    }
  }
}

void expect_tree_pinned(const Network& net, const Reference& ref, int src,
                        const std::vector<int>& members) {
  hw::McastTree want = ref.mcast(src, members);
  const hw::McastTree& got = net.mcast_ref(src, members).tree();
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << "src " << src;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    const auto& g = got.nodes[i];
    const auto& w = want.nodes[i];
    EXPECT_EQ(g.depth, w.depth) << "src " << src << " node " << i;
    ASSERT_EQ(g.edges.size(), w.edges.size()) << "src " << src << " node " << i;
    for (std::size_t e = 0; e < w.edges.size(); ++e) {
      EXPECT_EQ(g.edges[e].port, w.edges[e].port) << "src " << src << " node " << i;
      EXPECT_EQ(g.edges[e].child, w.edges[e].child) << "src " << src << " node " << i;
    }
  }
}

scenario::TopologySpec fat_tree(int nodes, int spines, bool spread) {
  scenario::TopologySpec s;
  s.kind = scenario::TopologyKind::FatTree;
  s.nodes = nodes;
  s.hub_ports = 16;
  s.spines = spines;
  s.route_spread = spread;
  return s;
}

/// scenario::build_topology's fat-tree wiring order: spine-major, one trunk
/// from each leaf's uplink port (cabs_per_leaf + spine) to spine port `leaf`.
std::vector<Trunk> fat_tree_trunks(const scenario::TopologySpec& s) {
  const int per_leaf = s.hub_ports - s.spines;
  const int leaves = (s.nodes + per_leaf - 1) / per_leaf;
  std::vector<Trunk> t;
  for (int sp = 0; sp < s.spines; ++sp) {
    for (int l = 0; l < leaves; ++l) t.push_back({l, per_leaf + sp, leaves + sp, l});
  }
  return t;
}

std::vector<int> range(int from, int to, int step = 1) {
  std::vector<int> v;
  for (int i = from; i < to; i += step) v.push_back(i);
  return v;
}

TEST(RoutePin, StarOfSixteen) {
  Network net;
  scenario::TopologySpec s;
  s.nodes = 16;
  scenario::build_topology(net, s, 1);
  Reference ref(net, {}, false);
  expect_routes_pinned(net, ref);
  expect_tree_pinned(net, ref, 0, range(0, 16));
}

TEST(RoutePin, FatTree64) {
  for (bool spread : {false, true}) {
    SCOPED_TRACE(spread ? "route_spread on" : "route_spread off");
    const scenario::TopologySpec s = fat_tree(64, 2, spread);
    Network net;
    scenario::build_topology(net, s, 1990);
    Reference ref(net, fat_tree_trunks(s), spread);
    expect_routes_pinned(net, ref);
    expect_tree_pinned(net, ref, 0, range(0, 64));
    expect_tree_pinned(net, ref, 37, {0, 5, 17, 33, 63, 5});
    expect_tree_pinned(net, ref, 3, range(10, 21));
  }
}

TEST(RoutePin, FatTree512Spread) {
  const scenario::TopologySpec s = fat_tree(512, 4, true);
  Network net;
  scenario::build_topology(net, s, 1990);
  Reference ref(net, fat_tree_trunks(s), true);
  expect_routes_pinned(net, ref);
  expect_tree_pinned(net, ref, 0, range(0, 512));
  expect_tree_pinned(net, ref, 100, range(1, 512, 7));
}

TEST(RoutePin, PathDbOnFatTree64) {
  const scenario::TopologySpec s = fat_tree(64, 2, false);
  Network net;
  scenario::build_topology(net, s, 1990);
  Reference ref(net, fat_tree_trunks(s), false);
  for (std::uint64_t seed : {42ull, 1990ull}) {
    for (int k = 1; k <= 3; ++k) expect_paths_pinned(net, ref, k, seed);
  }
}

TEST(RoutePin, LineAndMesh) {
  // topology_test.cpp's shapes with a CAB on every HUB. The line is
  // h0 - h1 - h2; the mesh is the triangle whose direct h0-h2 trunk beats
  // the detour, and whose second edge-disjoint path is the detour.
  {
    Network net;
    int h[3] = {net.add_hub(), net.add_hub(), net.add_hub()};
    std::vector<Trunk> t{{h[0], 15, h[1], 15}, {h[1], 14, h[2], 15}};
    for (const Trunk& x : t) net.link_hubs(x.hub_a, x.port_a, x.hub_b, x.port_b);
    for (int hub : h) {
      net.add_cab(hub, 0);
      net.add_cab(hub, 2);
    }
    net.install_routes();
    Reference ref(net, t, false);
    expect_routes_pinned(net, ref);
    expect_tree_pinned(net, ref, 0, range(0, 6));
  }
  {
    Network net;
    int h0 = net.add_hub(), h1 = net.add_hub(), h2 = net.add_hub();
    std::vector<Trunk> t{{h0, 15, h1, 15}, {h1, 14, h2, 14}, {h0, 13, h2, 13}};
    for (const Trunk& x : t) net.link_hubs(x.hub_a, x.port_a, x.hub_b, x.port_b);
    for (int hub : {h0, h1, h2}) {
      net.add_cab(hub, 0);
      net.add_cab(hub, 1);
    }
    net.install_routes();
    Reference ref(net, t, false);
    expect_routes_pinned(net, ref);
    expect_tree_pinned(net, ref, 2, range(0, 6));
    for (std::uint64_t seed : {42ull, 1990ull}) {
      for (int k = 1; k <= 3; ++k) expect_paths_pinned(net, ref, k, seed);
    }
  }
}

}  // namespace
}  // namespace nectar::net
