#pragma once

// Collective group membership and topology helpers. A group is a fixed,
// ordered member list (rank = index) every member installs identically at
// setup time, plus an epoch: after a member failure the group is declared
// failed (loudly, with the culprit named) and can be re-armed under a new
// epoch — messages from the old epoch are dropped on arrival, so a crashed
// epoch can never corrupt its successor.

#include <cstdint>
#include <vector>

#include "coll/wire.hpp"
#include "hw/mcast.hpp"
#include "sim/time.hpp"

namespace nectar::coll {

/// Arity of the arrive/reduce tree: binary.
constexpr int kTreeFanout = 2;

/// Barrier algorithm selector.
enum class Algorithm : std::uint8_t {
  Tree,           ///< binary arrive/release tree rooted at root_rank
  Dissemination,  ///< butterfly: ceil(log2 n) rounds of pairwise notifications
};

struct GroupSpec {
  std::uint16_t id = 0;
  std::uint16_t epoch = 1;
  /// CAB node ids; a member's rank is its index here. Identical on every
  /// member (ranks are part of the protocol, not a local convention).
  std::vector<int> members;
  int root_rank = 0;
  Algorithm algorithm = Algorithm::Tree;
  /// Give up and fail the group (loud, attributable error) after this long
  /// in one collective op.
  sim::SimTime timeout = 50'000'000;  // 50 ms
  /// Retransmit cadence while an op is outstanding (loss recovery).
  sim::SimTime retransmit = 2'000'000;  // 2 ms
  /// Distribution tree for root multicasts (Release / ReduceResult /
  /// BcastData), from net::Network::mcast_ref(root node, members). When
  /// invalid the engine falls back to unicasting the fan-out — correct but
  /// without the HUB replication offload.
  hw::McastRef mcast;

  int size() const { return static_cast<int>(members.size()); }
  int rank_of(int node) const {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] == node) return static_cast<int>(i);
    }
    return -1;
  }

  // --- tree shape (virtual ranks rotate the tree onto root_rank) ----------

  int vrank(int rank) const { return (rank - root_rank + size()) % size(); }
  int actual(int v) const { return (v + root_rank) % size(); }
  /// Parent rank in the arrive/reduce tree, or -1 for the root.
  int parent_of(int rank) const {
    int v = vrank(rank);
    return v == 0 ? -1 : actual((v - 1) / kTreeFanout);
  }
  /// Child ranks in the arrive/reduce tree (at most kTreeFanout).
  std::vector<int> children_of(int rank) const {
    std::vector<int> out;
    int v = vrank(rank);
    for (int c = kTreeFanout * v + 1; c <= kTreeFanout * v + kTreeFanout && c < size(); ++c) {
      out.push_back(actual(c));
    }
    return out;
  }

  // --- dissemination shape -------------------------------------------------

  /// Rounds of the dissemination barrier: ceil(log2(size)).
  int dissem_rounds() const {
    int r = 0;
    for (int span = 1; span < size(); span <<= 1) ++r;
    return r;
  }
  int dissem_to(int rank, int round) const { return (rank + (1 << round)) % size(); }
  int dissem_from(int rank, int round) const {
    return (rank - (1 << round) % size() + size()) % size();
  }
};

}  // namespace nectar::coll
