#pragma once

// Collective workload driver ([collectives] INI section): every node of the
// scenario joins one group and loops the selected operation — barrier,
// broadcast, or reduce — either on the CAB-resident engine (src/coll, the
// tentpole) or on the host-level baseline (each message taxed with a driver
// interrupt, a process wakeup, and VME programmed I/O). The two modes run
// the same group shape over the same topology, which is exactly the
// comparison bench_collectives sweeps.
//
// Results are verified in-loop: broadcast receivers check the payload
// pattern against what the root wrote, reduce callers check the combined
// value against the closed-form expectation; mismatches count as
// coll.data_errors in the report instead of aborting the run. Everything
// reported is a function of simulated execution only — no wall clock.

#include <cstdint>
#include <memory>
#include <vector>

#include "coll/engine.hpp"
#include "coll/host.hpp"
#include "host/driver.hpp"
#include "host/process.hpp"
#include "nectarine/cab_api.hpp"
#include "nectarine/nectarine.hpp"
#include "net/system.hpp"
#include "obs/report.hpp"
#include "scenario/config.hpp"

namespace nectar::scenario {

struct CollectivesSpec {
  enum class Mode { Cab, Host };
  enum class Op { Barrier, Bcast, Reduce };

  bool enabled = false;
  Mode mode = Mode::Cab;  ///< Cab: the engine; Host: the baseline (needs with_vme)
  Op op = Op::Barrier;
  coll::Algorithm algorithm = coll::Algorithm::Tree;  ///< barrier only
  coll::ReduceOp reduce = coll::ReduceOp::Sum;
  std::int64_t iterations = 0;  ///< ops per node; 0 = loop until the run ends
  sim::SimTime interval = 0;    ///< pause between consecutive ops
  sim::SimTime timeout = sim::msec(50);
  sim::SimTime retransmit = sim::msec(2);
};

inline constexpr Named<CollectivesSpec::Mode> kCollModes[] = {
    {CollectivesSpec::Mode::Cab, "cab"},
    {CollectivesSpec::Mode::Host, "host"},
};

inline constexpr Named<CollectivesSpec::Op> kCollOps[] = {
    {CollectivesSpec::Op::Barrier, "barrier"},
    {CollectivesSpec::Op::Bcast, "bcast"},
    {CollectivesSpec::Op::Reduce, "reduce"},
};

inline constexpr Named<coll::Algorithm> kCollAlgorithms[] = {
    {coll::Algorithm::Tree, "tree"},
    {coll::Algorithm::Dissemination, "dissemination"},
};

inline constexpr Named<coll::ReduceOp> kReduceOps[] = {
    {coll::ReduceOp::Sum, "sum"},
    {coll::ReduceOp::Min, "min"},
    {coll::ReduceOp::Max, "max"},
};

/// Builds the per-node collective stacks and forks one worker per node.
/// Construct after the topology and protocol stacks exist, before run().
class CollectiveDriver {
 public:
  /// The single group every scenario collective runs in.
  static constexpr std::uint16_t kGroupId = 1;

  CollectiveDriver(net::Network& net, std::vector<net::NodeStack*> stacks,
                   const CollectivesSpec& spec);

  CollectiveDriver(const CollectiveDriver&) = delete;
  CollectiveDriver& operator=(const CollectiveDriver&) = delete;

  const CollectivesSpec& spec() const { return spec_; }

  /// The CAB engine on `node` (cab mode), or nullptr in host mode.
  coll::CollectiveEngine* engine(int node);
  /// The host baseline on `node` (host mode), or nullptr in cab mode.
  coll::HostCollective* host(int node);

  /// Completed operations on the slowest member — the number of collectives
  /// the whole group finished.
  std::uint64_t rounds_completed() const;
  std::uint64_t data_errors() const;

  /// coll.* rows: counters summed over members, the selected op's latency
  /// histograms merged across members, and the HUB replication gauges.
  void report_into(obs::RunReport& rep);

 private:
  using Op = CollectivesSpec::Op;

  struct CabNode {
    std::unique_ptr<coll::CollectiveEngine> engine;
    std::unique_ptr<nectarine::CabNectarine> nin;
  };
  struct HostNode {
    std::unique_ptr<host::Host> host;
    std::unique_ptr<host::CabDriver> driver;
    std::unique_ptr<nectarine::HostNectarine> nin;
    std::unique_ptr<coll::HostCollective> hc;  // last: references nin
  };

  coll::GroupSpec make_group_spec() const;
  void worker_loop(int node);
  /// One collective op through the node's Nectarine surface; false = the
  /// group failed (cab mode timeout) and the worker should stop.
  bool run_one(int node, std::int64_t iter, std::vector<std::uint8_t>& buf);

  static std::uint8_t pattern_byte(std::int64_t iter, std::size_t offset);
  std::uint64_t contribution_of(int rank, std::int64_t iter) const;
  std::uint64_t expected_reduce(std::int64_t iter) const;

  net::Network& net_;
  std::vector<net::NodeStack*> stacks_;
  CollectivesSpec spec_;

  std::vector<CabNode> cab_;
  std::vector<HostNode> host_;

  // Worker-written, one slot per node (shard-safe: a node only writes its
  // own slot; readers run after the simulation stops).
  std::vector<std::uint64_t> iters_done_;
  std::vector<std::uint64_t> data_errors_;
};

}  // namespace nectar::scenario
