#pragma once

// Session workload driver ([sessions] INI section): every node runs a
// SessionManager with `trunks` trunk connections to node (i + stride) % N
// and multiplexes `channels` logical client channels over them — the
// "thousands of endpoints per CAB" shape the session layer exists for
// (docs/SESSIONS.md). One open-loop generator thread per node round-robins
// small messages across its channels, each carrying the workload's Stamp
// with the global channel id as its source; optional churn threads
// close/reopen random channels (exercising id reuse + generation tags) and
// an optional scripted stall freezes the inbound credit of the first wire
// ids on trunk 0 — the no-head-of-line-blocking experiment: victims starve,
// their trunk siblings' tail latency must not move.
//
// Accounting: per-channel compact stats (sent/shed/delivered/latency sum)
// for every channel, full log-bucketed histograms only for the first
// `probe_channels` channel indexes (merged across nodes into
// session.probe<i>.* rows) — 10k-channel nodes stay affordable while the
// channels under test keep exact percentiles. Jain fairness is computed
// over per-channel delivered counts of "clean" channels (opened once, never
// failed, not in the stall set).

#include <cstdint>
#include <memory>
#include <vector>

#include "net/system.hpp"
#include "obs/latency.hpp"
#include "obs/report.hpp"
#include "session/manager.hpp"

namespace nectar::scenario {

/// [sessions]: the session::SessionConfig every node's SessionManager takes
/// (its keys bind straight into it), plus the SessionDriver's traffic shape.
struct SessionsSpec : session::SessionConfig {
  bool enabled = false;
  std::int64_t trunks = 4;          ///< trunk connections per node pair
  std::int64_t channels = 1000;     ///< logical channels per node
  std::int64_t stride = 1;          ///< node i's channels land on (i + stride) % N
  double rate = 1000.0;             ///< data messages/sec per node (round-robin)
  std::int64_t size = 64;           ///< payload bytes (>= 16 for the stamp)
  sim::SimTime warmup = sim::msec(50);  ///< opens (at t=0) to data gap
  double churn_rate = 0.0;          ///< close+reopen ops/sec per node
  sim::SimTime churn_start = 0;
  sim::SimTime churn_duration = 0;  ///< 0 = until the run ends
  sim::SimTime stall_at = 0;        ///< 0 = no scripted stall
  sim::SimTime stall_duration = sim::msec(20);
  std::int64_t stall_channels = 0;  ///< inbound wire ids [0, n) of trunk 0 freeze
  std::int64_t probe_channels = 0;  ///< channel indexes [0, n) get full histograms
};

class SessionDriver {
 public:
  SessionDriver(net::Network& net, std::vector<net::NodeStack*> stacks, const SessionsSpec& spec,
                std::uint64_t master_seed);

  SessionDriver(const SessionDriver&) = delete;
  SessionDriver& operator=(const SessionDriver&) = delete;

  const SessionsSpec& spec() const { return spec_; }
  session::SessionManager& manager(int node) {
    return *nodes_[static_cast<std::size_t>(node)]->mgr;
  }

  std::uint64_t data_sent() const;
  std::uint64_t data_delivered() const;
  std::uint64_t data_shed() const;
  std::uint64_t churn_cycles() const;
  double fairness() const;

  /// session.* rows: lifecycle counters summed over nodes, open/data latency
  /// histograms merged, per-probe-channel percentiles, trunk efficiency.
  void report_into(obs::RunReport& rep);

 private:
  /// Written from two sides, shard-safely: the owning sender writes
  /// sent/shed/opens/fails, the receiving node writes delivered/lat_* —
  /// distinct fields, distinct writer shards, read only after the run.
  struct ChannelStat {
    std::uint64_t sent = 0;
    std::uint64_t shed = 0;
    std::uint32_t opens = 0;
    std::uint32_t fails = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lat_sum = 0;
    std::uint64_t lat_max = 0;
  };

  struct Channel {
    session::SessionManager::ChannelHandle handle = session::SessionManager::kNoHandle;
    sim::SimTime open_sent = 0;
  };

  struct NodeState {
    std::unique_ptr<session::SessionManager> mgr;
    std::vector<int> out_trunks;  ///< local trunk index per outbound trunk k
    std::vector<int> in_trunks;   ///< local trunk index per inbound trunk k
    std::vector<Channel> chans;   ///< this node's logical channels
    std::vector<std::uint32_t> chan_of_handle;  ///< handle -> channel index
    obs::LatencyHistogram open_lat;   ///< sender side: open -> OPEN_ACK
    obs::LatencyHistogram data_lat;   ///< receiver side: all inbound deliveries
    std::uint64_t opens_initiated = 0;
    std::uint64_t churn_cycles = 0;
  };

  core::CabRuntime& runtime(int node) { return net_.runtime(node); }
  NodeState& ns(int node) { return *nodes_[static_cast<std::size_t>(node)]; }
  int dst_of(int node) const { return (node + static_cast<int>(spec_.stride)) % node_count_; }
  std::uint32_t global_channel(int node, std::uint32_t c) const {
    return static_cast<std::uint32_t>(node) * static_cast<std::uint32_t>(spec_.channels) + c;
  }
  bool stalled_channel(std::int64_t c) const;

  void build_rmp_trunks();
  void install_callbacks(int node);
  void open_all(int node);
  void open_one(int node, std::uint32_t c);
  void generator_loop(int node);
  void churn_loop(int node);
  void stall_loop(int node);

  net::Network& net_;
  std::vector<net::NodeStack*> stacks_;
  SessionsSpec spec_;
  std::uint64_t master_seed_;
  int node_count_ = 0;

  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<ChannelStat> stats_;  ///< global channel id = node * channels + c
  /// Probe histograms, receiver-written: index = node * probe_channels + c.
  std::vector<obs::LatencyHistogram> probes_;
};

}  // namespace nectar::scenario
