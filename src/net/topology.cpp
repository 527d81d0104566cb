#include "net/topology.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "hw/pool.hpp"
#include "obs/audit.hpp"
#include "proto/headerbuf.hpp"

namespace nectar::net {

namespace {

/// "a=1 b=2 c=3" detail lines for Auditor violations.
std::string balance_detail(std::initializer_list<std::pair<const char*, std::uint64_t>> terms) {
  std::string out;
  for (const auto& [name, v] : terms) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

Network::Network(int shards)
    : par_(std::make_unique<sim::ParallelEngine>(shards)), tracer_(par_->shard(0)) {}

void Network::register_audit(obs::Auditor& auditor) {
  // Per-node fiber conservation: every frame that started serializing is
  // accounted for at every tick. Corrupted frames deliver (the far CRC
  // rejects them later), so they sit on the delivered side.
  for (int i = 0; i < cab_count(); ++i) {
    const hw::FiberLink* l = &cabs_[static_cast<std::size_t>(i)]->board->out_link();
    auditor.add("link.frames_conserved", "node" + std::to_string(i) + "." + l->name(), [l] {
      std::uint64_t rhs = l->frames_delivered() + l->frames_dropped() + l->frames_in_flight();
      if (l->frames_sent() == rhs) return std::string();
      return balance_detail({{"sent", l->frames_sent()},
                             {"delivered", l->frames_delivered()},
                             {"dropped", l->frames_dropped()},
                             {"in_flight", l->frames_in_flight()}});
    });
  }
  // Per-HUB crossbar conservation, both sides of the switching stage.
  for (const auto& hp : hubs_) {
    const hw::Hub* h = hp.get();
    auditor.add("hub.input_conserved", h->name(), [h] {
      std::uint64_t queued = 0;
      for (int p = 0; p < h->num_ports(); ++p) queued += h->output_queue_depth(p);
      std::uint64_t lhs = h->frames_in() + h->mcast_out() - h->mcast_in();
      std::uint64_t rhs =
          h->route_errors() + h->blackout_drops_preswitch() + h->frames_switched() + queued;
      if (lhs == rhs) return std::string();
      return balance_detail({{"frames_in", h->frames_in()},
                             {"mcast_in", h->mcast_in()},
                             {"mcast_out", h->mcast_out()},
                             {"route_errors", h->route_errors()},
                             {"blackout_pre", h->blackout_drops_preswitch()},
                             {"switched", h->frames_switched()},
                             {"queued", queued}});
    });
    auditor.add("hub.output_conserved", h->name(), [h] {
      std::uint64_t in_flight = 0;
      for (int p = 0; p < h->num_ports(); ++p) in_flight += h->output_in_flight(p);
      std::uint64_t rhs =
          h->frames_delivered() + in_flight + h->blackout_drops_postswitch();
      if (h->frames_switched() == rhs) return std::string();
      return balance_detail({{"switched", h->frames_switched()},
                             {"delivered", h->frames_delivered()},
                             {"in_flight", in_flight},
                             {"blackout_post", h->blackout_drops_postswitch()}});
    });
  }
  // Per-CAB receive chain: the HUB feed port, the input FIFO and the DMA
  // controller keep independent counters of the same frame stream.
  for (int i = 0; i < cab_count(); ++i) {
    const CabNode* cn = cabs_[static_cast<std::size_t>(i)].get();
    const hw::Hub* h = hubs_[static_cast<std::size_t>(cn->hub)].get();
    const int port = cn->port;
    hw::CabBoard* board = cn->board.get();
    auditor.add("cab.rx_chain_conserved", "node" + std::to_string(i), [h, port, board] {
      std::uint64_t feed = h->output_delivered(port);
      std::uint64_t accepted = board->in_fifo().frames_accepted();
      std::uint64_t drained =
          board->dma().recv_frames() + board->in_fifo().frames_queued();
      if (feed == accepted && accepted == drained) return std::string();
      return balance_detail({{"hub_delivered", feed},
                             {"fifo_accepted", accepted},
                             {"dma_recv", board->dma().recv_frames()},
                             {"fifo_queued", board->in_fifo().frames_queued()}});
    });
  }
  // Per-shard simulator health: event-pool lease balance (every slot is free
  // or holds a pending event; pending targets hold none) and a monotone
  // clock across ticks (stateful check — each lambda owns its watermark).
  for (int s = 0; s < shard_count(); ++s) {
    const sim::Engine* e = &par_->shard(s);
    const std::string shard = "shard" + std::to_string(s);
    auditor.add("engine.event_pool_balance", shard, [e] {
      if (e->pool_slots() + e->pending_targets() == e->pool_free() + e->pending_events())
        return std::string();
      return balance_detail({{"slots", e->pool_slots()},
                             {"free", e->pool_free()},
                             {"pending", e->pending_events()},
                             {"targets", e->pending_targets()}});
    });
    auditor.add("engine.clock_monotonic", shard,
                [e, last = std::make_shared<sim::SimTime>(0)]() mutable {
                  sim::SimTime now = e->now();
                  if (now < *last) {
                    return "now=" + std::to_string(now) +
                           " previous_tick=" + std::to_string(*last);
                  }
                  *last = now;
                  return std::string();
                });
  }
}

void Network::register_substrate_metrics() {
  if (substrate_metrics_registered_) return;
  substrate_metrics_registered_ = true;
  // Event-queue/pool stats report under node -1. Opt-in rather than always
  // on: committed bench reports snapshot the registry, and the substrate's
  // host-side pool counters are not part of the simulated results those
  // reports track. The per-thread byte pools (hw::BufferPool,
  // proto::HeaderBufPool) additionally span Networks, so auto-registering
  // them would break the guarantee that identical runs snapshot
  // byte-identically.
  if (shard_count() == 1) {
    engine().register_metrics(metrics_reg_);
    hw::BufferPool::payloads().register_metrics(metrics_reg_, "hw.framepool");
    proto::HeaderBufPool::instance().register_metrics(metrics_reg_, "proto.hdrpool");
  } else {
    // Per-shard engines report through the coordinator; the byte pools are
    // thread_local to the worker threads and unreachable (and empty) here.
    par_->register_metrics(metrics_reg_);
  }
  for (const auto& h : hubs_) h->register_metrics(metrics_reg_);
}

int Network::add_hub(int ports, int shard) {
  int id = static_cast<int>(hubs_.size());
  int s = shard < 0 ? id % shard_count() : shard;
  if (s >= shard_count())
    throw std::out_of_range("Network::add_hub: shard " + std::to_string(s) + " out of range");
  hub_shard_.push_back(s);
  adjacency_.emplace_back();
  hubs_.push_back(
      std::make_unique<hw::Hub>(par_->shard(s), "hub" + std::to_string(id), ports));
  return id;
}

std::vector<core::LogEntry> Network::events() const {
  std::vector<core::LogEntry> out;
  for (const auto& cn : cabs_) {
    const auto& log = cn->rt->log_entries();
    out.insert(out.end(), log.begin(), log.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const core::LogEntry& a, const core::LogEntry& b) {
    return a.t != b.t ? a.t < b.t : a.node < b.node;
  });
  return out;
}

std::uint64_t Network::events_dropped() const {
  std::uint64_t n = 0;
  for (const auto& cn : cabs_) n += cn->rt->log_dropped();
  return n;
}

int Network::add_cab(int hub_id, int port, bool with_vme) {
  if (hub_id < 0 || hub_id >= hub_count()) throw std::out_of_range("Network::add_cab: bad hub");
  int node = static_cast<int>(cabs_.size());
  // The CAB inherits its HUB's shard: board, VME bus, runtime fibers and
  // the access link all schedule on this engine, so everything but trunk
  // crossings stays shard-local.
  sim::Engine& eng = hub_engine(hub_id);
  auto cn = std::make_unique<CabNode>();
  std::string node_proc = "node" + std::to_string(node);
  if (with_vme) {
    cn->vme = std::make_unique<hw::VmeBus>(eng, "vme" + std::to_string(node));
    cn->vme->attach_tracer(&tracer_, tracer_.track(node_proc, "vme"));
    cn->vme->attach_profiler(&profiler_);
    cn->vme->register_metrics(metrics_reg_, node);
  }
  cn->board =
      std::make_unique<hw::CabBoard>(eng, "cab" + std::to_string(node), node, cn->vme.get());
  cn->board->dma().attach_profiler(&profiler_, node_proc + ".dma");
  cn->rt = std::make_unique<core::CabRuntime>(*cn->board, &metrics_, &tracer_);
  cn->rt->cpu().attach_profiler(&profiler_);
  cn->dl = std::make_unique<proto::Datalink>(*cn->rt);
  cn->hub = hub_id;
  cn->port = port;

  // The node's outbound fiber is its "wire" swimlane.
  cn->board->out_link().attach_tracer(&tracer_, tracer_.track(node_proc, "wire"));
  cn->board->out_link().register_metrics(metrics_reg_, node);

  hw::Hub& h = hub(hub_id);
  cn->board->out_link().attach(h.input(port));
  h.attach_output(port, &cn->board->in_fifo());

  cabs_.push_back(std::move(cn));
  return node;
}

void Network::link_hubs(int hub_a, int port_a, int hub_b, int port_b, sim::SimTime propagation) {
  hw::Hub& a = hub(hub_a);
  hw::Hub& b = hub(hub_b);
  int sa = hub_shard(hub_a);
  int sb = hub_shard(hub_b);
  if (sa == sb) {
    // On a sharded network even same-shard trunks defer their downstream
    // offer to first-byte arrival, so every trunk in the system follows one
    // arrival discipline no matter which ones happen to cross shards —
    // otherwise a HUB fed by a mix of local (offer-at-departure) and remote
    // (offer-at-arrival) trunks would resolve contention differently at
    // different shard counts. A single-shard network keeps the legacy
    // departure-time offers, bit-identical to the sequential simulator.
    bool defer = shard_count() > 1;
    a.attach_output(port_a, b.input(port_b), propagation, defer);
    b.attach_output(port_b, a.input(port_a), propagation, defer);
  } else {
    // Shard boundary: frames posted through the coordinator mailbox. The
    // trunk's flight time is the only simulated delay separating the two
    // shards, so it must be positive — a zero here would mean zero
    // lookahead and the conservative windows could never advance. Fail at
    // wiring time, loudly, instead of deadlocking (or corrupting causality)
    // at run time.
    if (propagation <= 0)
      throw std::invalid_argument(
          "Network::link_hubs: trunk hub" + std::to_string(hub_a) + "<->hub" +
          std::to_string(hub_b) +
          " crosses shards with propagation <= 0; cross-shard trunks need positive "
          "propagation (it bounds the synchronization lookahead)");
    // cross_key encodes (hub, port): a stable identity for deterministic
    // mailbox draining, unique per trunk direction.
    auto key = [](int h, int p) {
      return (static_cast<std::uint64_t>(h) << 16) | static_cast<std::uint64_t>(p);
    };
    a.attach_output_remote(port_a, b.input(port_b), propagation, hub_engine(hub_b),
                           key(hub_a, port_a));
    b.attach_output_remote(port_b, a.input(port_a), propagation, hub_engine(hub_a),
                           key(hub_b, port_b));
    sim::SimTime l = par_->lookahead();
    if (l == 0 || propagation < l) par_->set_lookahead(propagation);
  }
  const int t = trunk_count_++;
  const auto pa = static_cast<std::uint8_t>(port_a);
  const auto pb = static_cast<std::uint8_t>(port_b);
  adjacency_[static_cast<std::size_t>(hub_a)].push_back({t, pa, hub_b, pb});
  adjacency_[static_cast<std::size_t>(hub_b)].push_back({t, pb, hub_a, pa});
}

std::optional<std::vector<Network::TrunkHop>> Network::find_path(
    int src_hub, int dst_hub, std::uint64_t rotation, const std::vector<bool>& excluded) const {
  const auto trunks = static_cast<std::uint64_t>(trunk_count_);
  const std::size_t first = trunks > 0 ? static_cast<std::size_t>(rotation % trunks) : 0;
  // from[h]: the HUB that first reached h (-1: not reached); via[h]: the hop.
  std::vector<int> from(adjacency_.size(), -1);
  std::vector<const TrunkHop*> via(adjacency_.size(), nullptr);
  from[static_cast<std::size_t>(src_hub)] = src_hub;
  std::vector<int> frontier{src_hub};
  for (std::size_t head = 0;
       head < frontier.size() && from[static_cast<std::size_t>(dst_hub)] < 0; ++head) {
    const int cur = frontier[head];
    auto visit = [&](const TrunkHop& h) {
      const auto far = static_cast<std::size_t>(h.far_hub);
      const auto t = static_cast<std::size_t>(h.trunk);
      if (from[far] >= 0 || (t < excluded.size() && excluded[t])) return;
      from[far] = cur;
      via[far] = &h;
      frontier.push_back(h.far_hub);
    };
    const std::vector<TrunkHop>& adj = adjacency_[static_cast<std::size_t>(cur)];
    auto split = std::find_if(adj.begin(), adj.end(), [first](const TrunkHop& h) {
      return static_cast<std::size_t>(h.trunk) >= first;
    });
    std::for_each(split, adj.end(), visit);
    std::for_each(adj.begin(), split, visit);
  }
  if (from[static_cast<std::size_t>(dst_hub)] < 0) return std::nullopt;
  std::vector<TrunkHop> path;
  for (int h = dst_hub; h != src_hub; h = from[static_cast<std::size_t>(h)]) {
    path.push_back(*via[static_cast<std::size_t>(h)]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Network::TrunkHop> Network::route_path(int src_hub, int dst_hub) const {
  // With route spreading on, the rotation is a hash of the hub pair: still
  // a pure function of (src_hub, dst_hub) — nothing about shard count, seed,
  // or query order feeds it — so reports stay invariant across shard counts
  // and byte-deterministic per run.
  std::uint64_t rotation = 0;
  if (route_spread_) {
    rotation = static_cast<std::uint64_t>(src_hub) * 0x9E3779B97F4A7C15ull;
    rotation ^= static_cast<std::uint64_t>(dst_hub) + 0x9E3779B97F4A7C15ull + (rotation << 6) +
                (rotation >> 2);
    rotation ^= rotation >> 33;
  }
  std::optional<std::vector<TrunkHop>> path = find_path(src_hub, dst_hub, rotation);
  if (!path) {
    throw std::logic_error("Network: no route between hub " + std::to_string(src_hub) + " and " +
                           std::to_string(dst_hub));
  }
  return std::move(*path);
}

const hw::RouteRef& Network::route_ref(int src, int dst) const {
  return cabs_.at(static_cast<std::size_t>(src))->dl->route_ref(dst);
}

const std::vector<std::uint8_t>& Network::route(int src, int dst) const {
  return route_ref(src, dst).bytes();
}

const hw::McastRef& Network::mcast_ref(int src, const std::vector<int>& members) const {
  std::vector<int> key_members = members;
  std::sort(key_members.begin(), key_members.end());
  key_members.erase(std::unique(key_members.begin(), key_members.end()), key_members.end());
  auto [it, inserted] = mcast_cache_.try_emplace({src, key_members});
  if (!inserted) return it->second;

  const CabNode& s = *cabs_.at(static_cast<std::size_t>(src));
  hw::McastTree tree;
  tree.nodes.emplace_back();  // node 0: the source CAB's own HUB
  std::map<int, std::int32_t> hub_node{{s.hub, 0}};

  // Overlay each member's unicast hub path onto the tree. Paths to members
  // behind the same hubs share their prefix, so every trunk in the union
  // carries one replica; the per-member CAB port becomes a leaf edge.
  for (int dst : key_members) {
    if (dst == src) continue;  // a node never multicasts to itself
    const CabNode& d = *cabs_.at(static_cast<std::size_t>(dst));
    std::int32_t cur = 0;
    for (const TrunkHop& h : route_path(s.hub, d.hub)) {
      auto [hit, fresh] = hub_node.try_emplace(h.far_hub);
      if (fresh) {
        hit->second = static_cast<std::int32_t>(tree.nodes.size());
        tree.nodes.emplace_back();
        tree.nodes[static_cast<std::size_t>(cur)].edges.push_back({h.port, hit->second});
      }
      cur = hit->second;
    }
    tree.nodes[static_cast<std::size_t>(cur)].edges.push_back(
        {static_cast<std::uint8_t>(d.port), -1});
  }

  for (hw::McastTree::Node& n : tree.nodes) {
    std::sort(n.edges.begin(), n.edges.end(),
              [](const hw::McastTree::Edge& a, const hw::McastTree::Edge& b) {
                return a.port < b.port;
              });
  }
  // Children are always appended after their parent, so a reverse sweep sees
  // every subtree depth before the node that needs it.
  for (std::size_t i = tree.nodes.size(); i-- > 0;) {
    std::uint32_t depth = 0;
    for (const hw::McastTree::Edge& e : tree.nodes[i].edges) {
      std::uint32_t below =
          1 + (e.child >= 0 ? tree.nodes[static_cast<std::size_t>(e.child)].depth : 0);
      depth = std::max(depth, below);
    }
    tree.nodes[i].depth = depth;
  }

  it->second = hw::McastRef(std::move(tree));
  return it->second;
}

void Network::install_routes() {
  std::vector<std::vector<int>> on_hub(hubs_.size());
  for (int n = 0; n < cab_count(); ++n) on_hub[static_cast<std::size_t>(cab_hub(n))].push_back(n);
  for (int src_hub = 0; src_hub < hub_count(); ++src_hub) {
    const std::vector<int>& sources = on_hub[static_cast<std::size_t>(src_hub)];
    if (sources.empty()) continue;
    // One route per destination, shared by every CAB on this HUB.
    std::vector<hw::RouteRef> table(cabs_.size());
    for (int dst_hub = 0; dst_hub < hub_count(); ++dst_hub) {
      const std::vector<int>& dsts = on_hub[static_cast<std::size_t>(dst_hub)];
      if (dsts.empty()) continue;
      std::vector<std::uint8_t> trunk_bytes;
      for (const TrunkHop& h : route_path(src_hub, dst_hub)) trunk_bytes.push_back(h.port);
      for (int d : dsts) {
        std::vector<std::uint8_t> bytes = trunk_bytes;
        bytes.push_back(static_cast<std::uint8_t>(cab_port(d)));
        table[static_cast<std::size_t>(d)] = hw::RouteRef(std::move(bytes));
      }
    }
    for (int s : sources) cabs_[static_cast<std::size_t>(s)]->dl->set_routes(table);
  }
}

}  // namespace nectar::net
