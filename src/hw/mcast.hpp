#pragma once

// Source-rooted multicast distribution trees over the HUB graph.
//
// Unicast frames carry one output-port byte per HUB hop (hw::RouteRef,
// paper §2.1). A multicast frame instead carries a reference to an interned
// McastTree: at each HUB the crossbar looks up its tree node and replicates
// the frame once per edge — trunk edges carry the (smaller) subtree onward,
// CAB edges deliver a plain unicast frame into the port's fiber. The tree is
// computed once per (source, member-set) by net::Network::mcast_ref and
// shared immutably by every frame of the group, exactly like a unicast
// RouteRef: nothing about the run mutates it, so shards need no locking.

#include <cstdint>
#include <memory>
#include <vector>

namespace nectar::hw {

/// One multicast distribution tree. Node 0 is the tree node of the source
/// CAB's own HUB; a frame leaves the source with mcast_node = 0 and an empty
/// unicast route, and every HUB it reaches fans it out per its node's edges.
struct McastTree {
  struct Edge {
    std::uint8_t port;   ///< HUB output port the replica leaves through
    std::int32_t child;  ///< >= 0: tree node at the downstream HUB; < 0: CAB leaf
  };
  struct Node {
    /// Sorted by port at build time: fan-out order (and therefore output
    /// contention) is a pure function of the tree, not of build history.
    std::vector<Edge> edges;
    /// Maximum port bytes a unicast frame would still carry on any root-to-
    /// leaf path below this node — stands in for remaining_hops() in
    /// Frame::wire_bytes so a multicast frame serializes like the longest
    /// unicast frame it replaces at the same hop.
    std::uint32_t depth = 0;
  };
  std::vector<Node> nodes;

  /// Total CAB deliveries in the subtree rooted at `node` (diagnostics).
  std::size_t leaves(std::int32_t node = 0) const {
    if (node < 0 || static_cast<std::size_t>(node) >= nodes.size()) return 0;
    std::size_t n = 0;
    for (const Edge& e : nodes[static_cast<std::size_t>(node)].edges) {
      n += e.child < 0 ? 1 : leaves(e.child);
    }
    return n;
  }
};

/// Shared immutable handle to an interned McastTree (the multicast analogue
/// of RouteRef): frames hold a reference, never a copy.
class McastRef {
 public:
  McastRef() = default;
  explicit McastRef(McastTree tree)
      : p_(tree.nodes.empty() ? nullptr
                              : std::make_shared<const McastTree>(std::move(tree))) {}

  bool valid() const { return p_ != nullptr; }
  const McastTree& tree() const { return *p_; }
  const McastTree::Node& node(std::int32_t i) const {
    return p_->nodes[static_cast<std::size_t>(i)];
  }

 private:
  std::shared_ptr<const McastTree> p_;
};

}  // namespace nectar::hw
