#include "route/manager.hpp"

#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/profiler.hpp"

namespace nectar::route {

RouteManager::RouteManager(net::Network& net, RoutingConfig cfg)
    : net_(net), cfg_(cfg), metrics_reg_(net.metrics()) {
  protos_.resize(static_cast<std::size_t>(net.cab_count()), nullptr);
}

RouteManager::~RouteManager() = default;

void RouteManager::attach(int node, nproto::DatagramProtocol& dg) {
  protos_.at(static_cast<std::size_t>(node)) = &dg;
}

void RouteManager::start() {
  int n = net_.cab_count();
  for (int s = 0; s < n; ++s) {
    if (protos_[static_cast<std::size_t>(s)] == nullptr) {
      throw std::logic_error("RouteManager: node " + std::to_string(s) +
                             " has no attached datagram protocol");
    }
  }
  paths_ = std::make_unique<PathDb>(net_, cfg_.paths, cfg_.seed);

  // Replace each pair's single BFS route with its ECMP-preferred path.
  // Self routes (through the node's own HUB) are left alone.
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) install(s, d, paths_->preferred(s, d));
    }
  }

  // Create every monitor before starting any: each creates its mailbox in
  // its constructor, so the address table is complete before a thread runs.
  monitors_.reserve(static_cast<std::size_t>(n));
  monitor_addrs_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    monitors_.push_back(std::make_unique<HealthMonitor>(
        net_.runtime(s), *protos_[static_cast<std::size_t>(s)], *paths_, cfg_, *this));
    monitor_addrs_.push_back(monitors_.back()->address());
  }
  for (auto& m : monitors_) m->start(monitor_addrs_);

  metrics_reg_.probe(-1, "route", "failovers",
                     [this] { return static_cast<std::int64_t>(failovers_); });
  metrics_reg_.probe(-1, "route", "reverts",
                     [this] { return static_cast<std::int64_t>(reverts_); });
  metrics_reg_.probe(-1, "route", "no_path",
                     [this] { return static_cast<std::int64_t>(no_path_); });
  metrics_reg_.probe(-1, "route", "routes_installed",
                     [this] { return static_cast<std::int64_t>(routes_installed_); });
  metrics_reg_.probe(-1, "route", "probes_sent",
                     [this] { return static_cast<std::int64_t>(probes_sent()); });
  metrics_reg_.probe(-1, "route", "probe_timeouts",
                     [this] { return static_cast<std::int64_t>(probe_timeouts()); });
  metrics_reg_.probe(-1, "route", "probe_replies",
                     [this] { return static_cast<std::int64_t>(probe_replies()); });
}

void RouteManager::install(int src, int dst, int path) {
  net_.datalink(src).set_route(dst, paths_->path(src, dst, path));
  installed_[{src, dst}] = path;
  ++routes_installed_;
}

int RouteManager::pick_alive(int src, int dst) const {
  const HealthMonitor& mon = *monitors_.at(static_cast<std::size_t>(src));
  int pref = paths_->preferred(src, dst);
  if (mon.state(dst, pref) != PathState::Dead) return pref;
  for (int p = 0; p < paths_->path_count(src, dst); ++p) {
    if (p != pref && mon.state(dst, p) != PathState::Dead) return p;
  }
  return -1;
}

int RouteManager::installed_path(int src, int dst) const {
  auto it = installed_.find({src, dst});
  return it == installed_.end() ? -1 : it->second;
}

PathState RouteManager::path_state(int node, int dst, int path) const {
  return monitors_.at(static_cast<std::size_t>(node))->state(dst, path);
}

void RouteManager::on_path_dead(int node, int dst, int path, sim::SimTime first_miss_sent_at) {
  obs::CostScope scope("route/switch");
  auto it = installed_.find({node, dst});
  if (it == installed_.end() || it->second != path) return;  // path carried no traffic
  int alt = pick_alive(node, dst);
  if (alt < 0) {
    // Every path is dead. Keep the stale route installed (sends still work
    // if the fault heals under us) and record the outage.
    ++no_path_;
    log("route.no_path", node, dst, path);
    return;
  }
  install(node, dst, alt);
  ++failovers_;
  log("route.failover", node, dst, alt);
  // Runs on node's prober thread at detection time, so this spans the whole
  // window the application saw: first missed probe send -> route switched.
  reroute_.observe(net_.engine().now() - first_miss_sent_at);
  if (auto* ct = obs::CausalTracer::active()) {
    // Loss stages of node->dst traces overlapping this window are attributed
    // to rerouting rather than generic retransmit wait.
    ct->note_reroute(node, dst, first_miss_sent_at, net_.engine().now());
  }
}

void RouteManager::on_path_recovered(int node, int dst, int path) {
  obs::CostScope scope("route/switch");
  auto it = installed_.find({node, dst});
  if (it == installed_.end() || it->second == path) return;
  if (monitors_.at(static_cast<std::size_t>(node))->state(dst, it->second) == PathState::Dead) {
    // Total outage healing: any alive path beats the dead one we kept.
    install(node, dst, path);
    ++failovers_;
    log("route.failover", node, dst, path);
    return;
  }
  if (path == paths_->preferred(node, dst)) {
    install(node, dst, path);
    ++reverts_;
    log("route.revert", node, dst, path);
  }
}

void RouteManager::log(const char* kind, int node, int dst, int path) {
  net_.runtime(node).log(kind, "dst=" + std::to_string(dst) + " path=" + std::to_string(path));
}

std::uint64_t RouteManager::probes_sent() const {
  std::uint64_t n = 0;
  for (const auto& m : monitors_) n += m->probes_sent();
  return n;
}

std::uint64_t RouteManager::probe_timeouts() const {
  std::uint64_t n = 0;
  for (const auto& m : monitors_) n += m->probe_timeouts();
  return n;
}

std::uint64_t RouteManager::probe_replies() const {
  std::uint64_t n = 0;
  for (const auto& m : monitors_) n += m->probe_replies();
  return n;
}

void RouteManager::report_into(obs::RunReport& rep) const {
  rep.add("route.failovers", static_cast<double>(failovers_), "count");
  rep.add("route.reverts", static_cast<double>(reverts_), "count");
  rep.add("route.no_path", static_cast<double>(no_path_), "count");
  rep.add("route.routes_installed", static_cast<double>(routes_installed_), "count");
  rep.add("route.probes_sent", static_cast<double>(probes_sent()), "count");
  rep.add("route.probe_timeouts", static_cast<double>(probe_timeouts()), "count");
  rep.add("route.probe_replies", static_cast<double>(probe_replies()), "count");
  rep.add("route.reroute.count", static_cast<double>(reroute_.count()), "count");
  rep.add("route.reroute.p50", reroute_.p50() / sim::kMicrosecond, "us");
  rep.add("route.reroute.p99", reroute_.p99() / sim::kMicrosecond, "us");
  rep.add("route.reroute.max", sim::to_usec(reroute_.max()), "us");
}

}  // namespace nectar::route
