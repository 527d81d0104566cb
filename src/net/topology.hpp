#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "hw/cab.hpp"
#include "hw/pool.hpp"
#include "obs/profiler.hpp"
#include "hw/hub.hpp"
#include "hw/vme.hpp"
#include "proto/datalink.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace nectar::obs {
class Auditor;
}

namespace nectar::net {

/// Builder/owner for a Nectar network: HUBs connected in an arbitrary mesh,
/// CABs on HUB ports (paper §2, Figure 1). Keeps the HUB graph as one
/// adjacency list, filled as link_hubs wires each trunk, and runs the one
/// route search over it (find_path): the CABs' source routes (§2.1),
/// route::PathDb's edge-disjoint alternatives and the multicast trees all
/// come from it. Each route is stored once, in the sending CAB's datalink:
/// install_routes computes one RouteRef per (source HUB, destination) and
/// every CAB on that HUB shares it.
///
/// Sharding: the network owns a sim::ParallelEngine with `shards` engines.
/// Every HUB is assigned to a shard (round-robin by default, or explicitly
/// via add_hub); a CAB — its board, VME bus, runtime, fibers — lives on its
/// HUB's shard, so all intra-pod traffic stays on one engine. Trunks
/// between HUBs on different shards become explicit shard-boundary sends
/// (hw::Hub::attach_output_remote), and the minimum propagation over those
/// trunks is the coordinator's lookahead. A cross-shard trunk with zero
/// propagation would make the lookahead zero, so link_hubs rejects it.
/// With shards == 1 (the default) everything degenerates to the sequential
/// simulator: one engine, no threads, byte-identical results.
class Network {
 public:
  Network() : Network(1) {}
  /// `shards` >= 1 parallel shards. HUBs default to shard (id % shards).
  explicit Network(int shards);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Shard 0's engine. With one shard this is *the* engine; with more it is
  /// still the conventional home for network-global bookkeeping created
  /// before the run (fault arming, causal tracer), but per-node event flow
  /// must use engine_of_node()/hub_engine().
  sim::Engine& engine() { return par_->shard(0); }
  sim::ParallelEngine& parallel() { return *par_; }
  int shard_count() const { return par_->shard_count(); }
  /// Minimum cross-shard trunk propagation (ns); 0 when no trunk crosses
  /// shards (single shard or single HUB).
  sim::SimTime lookahead() const { return par_->lookahead(); }

  int hub_shard(int hub_id) const { return hub_shard_.at(static_cast<std::size_t>(hub_id)); }
  sim::Engine& hub_engine(int hub_id) { return par_->shard(hub_shard(hub_id)); }
  int node_shard(int node) const { return hub_shard(cab_hub(node)); }
  sim::Engine& engine_of_node(int node) { return par_->shard(node_shard(node)); }

  /// Network-wide observability: every node's stats report into one registry,
  /// and every node's scheduler/bus/wire events share one tracer (disabled
  /// until Tracer::set_enabled(true)).
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }

  /// Network-wide cycle-attribution profiler. Every CAB CPU, VME bus, and
  /// DMA controller is attached at construction; disabled (zero simulated
  /// cost, one branch per charge) until Profiler::set_enabled(true).
  obs::Profiler& profiler() { return profiler_; }

  /// Opt-in: report the simulation substrate's host-side pool statistics
  /// (event slab under "sim.engine", per-thread frame/header byte pools
  /// under "hw.framepool"/"proto.hdrpool", all node -1) into metrics().
  /// Not registered by default — the byte-pool counters span Networks, and
  /// committed bench reports must snapshot byte-identically across runs.
  /// Also registers every HUB's crossbar probes (per-output-port busy /
  /// blocked time, blackout drops; see hw::Hub::register_metrics) so
  /// scenario reports can attribute loss and queueing to the switch fabric.
  /// With shards > 1 the engine probes come from the ParallelEngine
  /// (per-shard event counts, window/mailbox statistics) and the byte
  /// pools are skipped — they are thread_local, and the coordinator thread's
  /// pools see no frame traffic.
  /// Idempotent.
  void register_substrate_metrics();

  /// Wire the substrate's conservation laws into `auditor` (tick-checked
  /// from the coordinator thread between run_until steps):
  ///   - per-link:  frames_sent == frames_delivered + frames_dropped + in-flight
  ///   - per-HUB:   input and output side of the crossbar (see hw::Hub docs)
  ///   - per-CAB:   rx chain — HUB feed port delivered == FIFO accepted ==
  ///                DMA recv_frames + FIFO queued
  ///   - per-shard: event-pool lease balance (slots == free + pending) and
  ///                clock monotonicity across ticks.
  /// The auditor must not outlive this Network.
  void register_audit(obs::Auditor& auditor);

  /// Add a HUB (16x16 by default) on shard `shard` (-1: id % shard_count()).
  /// Returns its id.
  int add_hub(int ports = 16, int shard = -1);
  hw::Hub& hub(int id) { return *hubs_.at(static_cast<std::size_t>(id)); }
  int hub_count() const { return static_cast<int>(hubs_.size()); }

  /// Add a CAB on `hub_id` port `port` (one fiber pair, §2.2). A VME bus is
  /// created when `with_vme` (for host-attached CABs). Returns the node id.
  /// The CAB and everything on it live on the HUB's shard.
  int add_cab(int hub_id, int port, bool with_vme = false);
  int cab_count() const { return static_cast<int>(cabs_.size()); }

  hw::CabBoard& cab(int node) { return *cabs_.at(static_cast<std::size_t>(node))->board; }
  core::CabRuntime& runtime(int node) { return *cabs_.at(static_cast<std::size_t>(node))->rt; }
  proto::Datalink& datalink(int node) { return *cabs_.at(static_cast<std::size_t>(node))->dl; }
  hw::VmeBus* vme(int node) { return cabs_.at(static_cast<std::size_t>(node))->vme.get(); }
  /// Every CAB's event log merged in (t, node) order, each CAB's entries in
  /// insertion order: deterministic at any fixed shard count.
  std::vector<core::LogEntry> events() const;
  /// Entries past the per-CAB log cap, summed over CABs.
  std::uint64_t events_dropped() const;
  /// Where a CAB hangs off the switch fabric (fault targeting needs the
  /// HUB port that feeds the CAB's inbound fiber).
  int cab_hub(int node) const { return cabs_.at(static_cast<std::size_t>(node))->hub; }
  int cab_port(int node) const { return cabs_.at(static_cast<std::size_t>(node))->port; }

  /// Connect two HUBs with a trunk fiber pair (multi-HUB systems, §2.1).
  /// `propagation` models the trunk fiber's flight time; when the two HUBs
  /// live on different shards it must be positive — it becomes (part of)
  /// the synchronization lookahead — or std::invalid_argument is thrown.
  void link_hubs(int hub_a, int port_a, int hub_b, int port_b,
                 sim::SimTime propagation = sim::costs::kLinkPropagation);

  /// Trunks wired so far, numbered 0.. in link_hubs order.
  int trunk_count() const { return trunk_count_; }

  /// One trunk crossed by a HUB path: `port` leaves the near HUB onto it
  /// (the forward route byte), and `far_port` leaves `far_hub` back onto it
  /// (the reverse route's byte).
  struct TrunkHop {
    int trunk;
    std::uint8_t port;
    int far_hub;
    std::uint8_t far_port;
  };

  /// The route search: a BFS over the HUB graph from `src_hub` to `dst_hub`
  /// that skips every trunk `t` with `excluded[t]` set. At each HUB it
  /// tries that HUB's trunks in number order, starting at the first one
  /// numbered `rotation % trunk_count()` or above and wrapping, so the
  /// rotation picks which of several equal-length paths wins. Returns the
  /// hops in order (none when src_hub == dst_hub), or nullopt when no path
  /// exists.
  std::optional<std::vector<TrunkHop>> find_path(int src_hub, int dst_hub,
                                                 std::uint64_t rotation,
                                                 const std::vector<bool>& excluded = {}) const;

  /// Opt-in: spread routes across equal-cost trunks. With rotation 0 the
  /// search tries trunks in wiring order, so on a fat-tree every cross-leaf
  /// pair tie-breaks to the same first spine — which concentrates all
  /// cross-leaf switching on one HUB (and, sharded, on one shard). With
  /// spreading on, the rotation is a deterministic hash of the (src hub,
  /// dst hub) pair, so different pairs win different equal-length paths
  /// while any single pair's route stays a pure function of the pair —
  /// independent of shard count, seed, or call order. Off by default: the
  /// committed BENCH_* reports bake in first-trunk routes. Set before
  /// install_routes.
  void set_route_spread(bool on) { route_spread_ = on; }
  bool route_spread() const { return route_spread_; }

  /// Compute and install source routes between every pair of CABs (and each
  /// CAB to itself, through its own HUB). Call after the topology is built.
  /// One route per (source HUB, destination), shared by every CAB on that
  /// HUB; the datalinks' tables are then the only copy. After this the
  /// tables are immutable-after-build — the run only reads them, except for
  /// failover's Datalink::set_route, and a scenario refuses [routing] with
  /// shards > 1 — so shards need no locking.
  void install_routes();

  /// The installed route (one output-port byte per HUB hop) from `src` to
  /// `dst`, read from `src`'s datalink.
  const std::vector<std::uint8_t>& route(int src, int dst) const;
  const hw::RouteRef& route_ref(int src, int dst) const;

  /// Multicast distribution tree from `src` to every CAB in `members`
  /// (src itself is skipped — a node never multicasts to itself). Built by
  /// overlaying the unicast hub paths, so each trunk the union uses carries
  /// exactly one replica; interned per (src, member set) and immutable
  /// after build, so frames of a collective group share one tree with no
  /// locking. Call before the run starts (group setup time).
  const hw::McastRef& mcast_ref(int src, const std::vector<int>& members) const;

  /// Run the simulation until the event queue drains or `t` is reached.
  void run_until(sim::SimTime t) { par_->run_until(t); }
  void run() { par_->run(); }

 private:
  struct CabNode {
    std::unique_ptr<hw::VmeBus> vme;  // may be null; must outlive the board
    std::unique_ptr<hw::CabBoard> board;
    std::unique_ptr<core::CabRuntime> rt;
    std::unique_ptr<proto::Datalink> dl;
    int hub = -1;
    int port = -1;
  };
  /// The unicast hub path: find_path at rotation 0, or at the spread hash.
  std::vector<TrunkHop> route_path(int src_hub, int dst_hub) const;

  std::unique_ptr<sim::ParallelEngine> par_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::Profiler profiler_;
  std::vector<std::unique_ptr<hw::Hub>> hubs_;
  std::vector<int> hub_shard_;
  std::vector<std::unique_ptr<CabNode>> cabs_;
  // Per HUB, the trunks it terminates, in trunk order.
  std::vector<std::vector<TrunkHop>> adjacency_;
  int trunk_count_ = 0;
  // Interned multicast trees, keyed by (source, sorted member set) — the
  // canonical form, so permuted member lists share one tree.
  mutable std::map<std::pair<int, std::vector<int>>, hw::McastRef> mcast_cache_;
  bool route_spread_ = false;
  bool substrate_metrics_registered_ = false;

  // Last member: holds probes reading the nodes above (VME, links), so it
  // must release before they are destroyed.
  obs::Registration metrics_reg_{metrics_};
};

}  // namespace nectar::net
