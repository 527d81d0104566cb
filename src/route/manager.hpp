#pragma once

// RouteManager: the control-plane head that turns path health into routing
// decisions. It owns the PathDb and one HealthMonitor per CAB, installs the
// ECMP-preferred route of every pair into the data plane (proto::Datalink
// route tables) at start(), and on a Dead report fails the pair over to the
// first surviving path — in-flight TCP/RMP traffic simply starts taking the
// new source route on its next (re)transmission, no connection state is
// touched. On recovery it reverts to the preferred path.
// Each decision goes to the deciding node's event log as "route.failover",
// "route.revert" or "route.no_path" (every path dead; the stale route was
// kept), with detail "dst=<d> path=<p>".
//
// Everything runs on the simulated CABs: detections arrive on the reporting
// node's prober thread at simulated time, so the reroute latency histogram
// (first missed probe send -> route switched) measures the real
// detection + switch window the configuration implies:
//   worst case ~ probe_interval * (dead_after - 1) + probe_timeout + epsilon.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "nproto/datagram.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "route/health.hpp"
#include "route/pathdb.hpp"

namespace nectar::route {

class RouteManager : public HealthListener {
 public:
  RouteManager(net::Network& net, RoutingConfig cfg);
  ~RouteManager() override;

  RouteManager(const RouteManager&) = delete;
  RouteManager& operator=(const RouteManager&) = delete;

  const RoutingConfig& config() const { return cfg_; }

  /// Register node `node`'s datagram protocol (the probe transport). Call
  /// for every node before start().
  void attach(int node, nproto::DatagramProtocol& dg);

  /// Build the PathDb, replace every datalink's BFS route with the pair's
  /// ECMP-preferred path, fork the health monitors, and register the
  /// control plane's metrics probes. Call once, before the clock runs.
  void start();

  const PathDb& paths() const { return *paths_; }
  /// The path index currently installed for src -> dst.
  int installed_path(int src, int dst) const;
  PathState path_state(int node, int dst, int path) const;

  // --- stats ---------------------------------------------------------------

  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t reverts() const { return reverts_; }
  std::uint64_t no_path_events() const { return no_path_; }
  std::uint64_t probes_sent() const;
  std::uint64_t probe_timeouts() const;
  std::uint64_t probe_replies() const;
  const obs::LatencyHistogram& reroute_latency() const { return reroute_; }

  /// Append "route.*" result rows (churn counters + reroute latency
  /// percentiles) to a scenario/bench report.
  void report_into(obs::RunReport& rep) const;

  // --- HealthListener ------------------------------------------------------

  void on_path_dead(int node, int dst, int path, sim::SimTime first_miss_sent_at) override;
  void on_path_recovered(int node, int dst, int path) override;

 private:
  void install(int src, int dst, int path);
  /// First alive path for src -> dst, preferred-first; -1 if all dead.
  int pick_alive(int src, int dst) const;
  void log(const char* kind, int node, int dst, int path);

  net::Network& net_;
  RoutingConfig cfg_;
  std::vector<nproto::DatagramProtocol*> protos_;
  std::unique_ptr<PathDb> paths_;
  std::vector<std::unique_ptr<HealthMonitor>> monitors_;
  std::vector<core::MailboxAddr> monitor_addrs_;
  std::map<std::pair<int, int>, int> installed_;

  std::uint64_t failovers_ = 0;
  std::uint64_t reverts_ = 0;
  std::uint64_t no_path_ = 0;
  std::uint64_t routes_installed_ = 0;
  obs::LatencyHistogram reroute_;

  obs::Registration metrics_reg_;
};

}  // namespace nectar::route
