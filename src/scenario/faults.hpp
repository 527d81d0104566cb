#pragma once

// Fault scheduler: arms time-targeted fault events — link loss/corruption
// windows, hard link-down windows, scripted drop bursts, HUB output-port
// blackouts, VME bus stalls, CAB crash-and-reboot — against named network
// elements. All randomness (window jitter, the links' drop/corrupt streams)
// derives from one master seed, so a fault schedule is exactly reproducible
// and two master seeds give decorrelated fault timings.
//
// Element naming grammar (see docs/SCENARIOS.md):
//   node<i>.link   the CAB's outbound fiber      (link_* kinds)
//   node<i>.vme    the node's VME backplane      (vme_stall)
//   node<i>.cab    the whole board               (cab_crash)
//   hub<h>.port<p> one crossbar output port      (hub_blackout)
//
// An index is decimal digits only and below its element count; [capture]
// element uses the same grammar (node<i>.link only).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/topology.hpp"
#include "scenario/config.hpp"
#include "sim/random.hpp"

namespace nectar::scenario {

enum class FaultKind {
  LinkDrop,      ///< random frame loss at `rate` for `duration`
  LinkCorrupt,   ///< random frame corruption at `rate` for `duration`
  LinkDown,      ///< hard down: every frame lost for `duration`
  LinkDropBurst, ///< scripted: exactly the next `count` frames are dropped
  HubBlackout,   ///< crossbar output port discards everything for `duration`
  VmeStall,      ///< the backplane is held by a rogue board for `duration`
  CabCrash,      ///< board off the network (out-link down + feed port dark),
                 ///< rebooted after `duration`
};

inline constexpr Named<FaultKind> kFaultKinds[] = {
    {FaultKind::LinkDrop, "link_drop"},
    {FaultKind::LinkCorrupt, "link_corrupt"},
    {FaultKind::LinkDown, "link_down"},
    {FaultKind::LinkDropBurst, "link_drop_burst"},
    {FaultKind::HubBlackout, "hub_blackout"},
    {FaultKind::VmeStall, "vme_stall"},
    {FaultKind::CabCrash, "cab_crash"},
};

/// The index in `name` when it is `prefix` followed by decimal digits whose
/// value is below `count`; -1 for anything else (a sign, a blank, another
/// character, an index past the count however many digits it has).
int element_index(std::string_view name, std::string_view prefix, int count);

struct FaultSpec {
  FaultKind kind = FaultKind::LinkDrop;
  std::string target;            ///< element name (grammar above)
  sim::SimTime at = 0;           ///< nominal injection time
  sim::SimTime duration = 0;     ///< window length (0: until end of run)
  sim::SimTime jitter = 0;       ///< uniform [0, jitter) added to `at`, from the master seed
  double rate = 1.0;             ///< LinkDrop / LinkCorrupt probability
  std::uint64_t count = 1;       ///< LinkDropBurst frames

  std::string describe() const;  ///< "link_drop(node3.link, rate=0.5)" for reports/logs
};

/// One injected fault's lifecycle, for loss attribution in reports.
struct FaultRecord {
  FaultSpec spec;
  sim::SimTime applied_at = 0;   ///< at + derived jitter
  sim::SimTime cleared_at = -1;  ///< -1 while the window is open
  std::uint64_t drops_before = 0;
  std::uint64_t attributed_drops = 0;  ///< target element's drop delta over the window
};

class FaultScheduler {
 public:
  FaultScheduler(net::Network& net, std::uint64_t master_seed);

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  /// Validate `spec` (target must resolve) and arm its events on the
  /// engine. Returns the fault's index into records().
  std::size_t schedule(const FaultSpec& spec);

  /// Close still-open windows' attribution at end of run (does not clear
  /// the fault). Call once after the simulation stops.
  void finalize();

  const std::vector<FaultRecord>& records() const { return records_; }
  std::size_t faults_injected() const { return records_.size(); }
  std::uint64_t total_attributed_drops() const;

  /// Network-wide frames lost so far: link drops (random + faulted) and
  /// corrupted frames (the receiving datalink's CRC check discards them),
  /// plus HUB blackout discards and route errors.
  std::uint64_t network_drops() const;

 private:
  struct Target {
    hw::FiberLink* link = nullptr;   // node<i>.link and cab crash out-link
    hw::VmeBus* vme = nullptr;
    hw::Hub* hub = nullptr;
    int port = -1;                   // hub blackout / crash feed port
    /// The shard engine that owns the element. Apply/clear events are armed
    /// here so a fault mutates its target from the thread that simulates it.
    sim::Engine* engine = nullptr;
  };

  Target resolve(const FaultSpec& spec) const;
  /// Frames lost so far at fault `idx`'s target element (link drops and
  /// corrupted frames, and/or the target port's HUB blackout discards) —
  /// the basis for attribution deltas.
  std::uint64_t target_drops(std::size_t idx) const;
  void apply(std::size_t idx);
  void clear(std::size_t idx);

  net::Network& net_;
  std::uint64_t master_seed_;
  std::vector<FaultRecord> records_;
  std::vector<Target> targets_;
};

}  // namespace nectar::scenario
