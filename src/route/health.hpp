#pragma once

// HealthMonitor: a CAB-resident prober that measures per-path liveness.
//
// One monitor runs on each CAB (two system-priority threads on the paper's
// runtime). The prober thread sends a small datagram over every (peer, path)
// in the PathDb at a fixed interval — over the *explicit* path route, not
// the installed table entry — and the responder thread echoes probes back
// over the exact reverse path (PathDb's reverse-symmetry property). Health
// is therefore a per-path round-trip fact: a fault anywhere on path i of
// (me, peer) is seen by path i's probes and no other's.
//
// State machine per (peer, path), driven by consecutive misses/successes
// (hysteresis so one dropped probe does not flap routes):
//
//     Up --misses >= dead_after--> Dead            (a success resets misses)
//     Dead --successes >= recover_after--> Up      (probed at 4x the interval)
//
// Dead and recovered transitions are reported to a HealthListener (the
// RouteManager), carrying the send time of the first missed probe so the
// reroute latency histogram measures the full detection + switch window.

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/mailbox.hpp"
#include "core/runtime.hpp"
#include "nproto/datagram.hpp"
#include "route/pathdb.hpp"
#include "sim/time.hpp"

namespace nectar::route {

/// Knobs for the whole control plane ([routing] in scenario INI files).
struct RoutingConfig {
  bool enabled = false;             ///< default off: data plane is untouched
  int paths = 2;                    ///< ECMP set size (PathDb k)
  sim::SimTime probe_interval = sim::msec(5);
  sim::SimTime probe_timeout = sim::msec(2);
  int dead_after = 3;               ///< consecutive misses to declare Dead
  int recover_after = 2;            ///< consecutive successes to leave Dead
  std::uint64_t seed = 1;           ///< PathDb tie-break / ECMP spread seed
};

enum class PathState : std::uint8_t { Up, Dead };

/// Receives path state transitions (on the prober thread of the reporting
/// node, at the simulated time of detection).
class HealthListener {
 public:
  virtual ~HealthListener() = default;
  virtual void on_path_dead(int node, int dst, int path, sim::SimTime first_miss_sent_at) = 0;
  virtual void on_path_recovered(int node, int dst, int path) = 0;
};

class HealthMonitor {
 public:
  /// Creates the monitor mailbox on `rt` (so every node's monitor address
  /// is known before any thread runs). Threads fork in start().
  HealthMonitor(core::CabRuntime& rt, nproto::DatagramProtocol& dg, const PathDb& paths,
                const RoutingConfig& cfg, HealthListener& listener);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  int node() const { return rt_.node_id(); }
  core::MailboxAddr address() const { return mailbox_.address(); }

  /// Give the monitor the address of every peer's monitor mailbox (indexed
  /// by node id; the vector must outlive the monitor) and fork the prober
  /// and responder threads.
  void start(const std::vector<core::MailboxAddr>& peers);

  PathState state(int dst, int path) const;

  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t probe_timeouts() const { return probe_timeouts_; }
  std::uint64_t probe_replies() const { return probe_replies_; }

 private:
  struct Target {
    int dst;
    int path;
    PathState state = PathState::Up;
    int misses = 0;
    int successes = 0;             // consecutive, while Dead
    sim::SimTime next_send = 0;
    bool outstanding = false;
    std::uint32_t seq = 0;
    sim::SimTime deadline = 0;
    sim::SimTime sent_at = 0;
    sim::SimTime first_miss_sent_at = 0;  // start of the current miss run
  };

  void prober_loop();
  void responder_loop();
  void send_probe(Target& t);
  void handle_miss(Target& t);
  void handle_success(Target& t);

  core::CabRuntime& rt_;
  nproto::DatagramProtocol& dg_;
  const PathDb& paths_;
  const RoutingConfig& cfg_;
  HealthListener& listener_;
  core::Mailbox& mailbox_;
  const std::vector<core::MailboxAddr>* peers_ = nullptr;

  std::vector<Target> targets_;
  std::map<std::uint32_t, std::size_t> outstanding_;  // seq -> targets_ index
  std::uint32_t next_seq_ = 1;

  std::uint64_t probes_sent_ = 0;
  std::uint64_t probe_timeouts_ = 0;
  std::uint64_t probe_replies_ = 0;
};

}  // namespace nectar::route
