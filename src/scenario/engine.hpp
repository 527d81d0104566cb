#pragma once

// Scenario engine: one object that assembles a whole experiment — topology,
// per-node protocol stacks, workloads, fault schedule — from a declarative
// spec (usually parsed from an INI file; see docs/SCENARIOS.md), runs it for
// a fixed simulated duration, and renders an SLO-style RunReport: tail
// latency percentiles, per-workload goodput and fairness, retransmit and
// drop counters with fault attribution.
//
// Everything random in the run — workload arrivals, think times, message
// sizes, fault jitter, link loss streams — derives from the single scenario
// seed, so two runs of the same (spec, seed) produce byte-identical
// reports, and changing the seed decorrelates every stream at once.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/causal.hpp"
#include "obs/pcap.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "route/manager.hpp"
#include "scenario/collectives.hpp"
#include "scenario/config.hpp"
#include "scenario/faults.hpp"
#include "scenario/sessions.hpp"
#include "scenario/topology.hpp"
#include "scenario/workload.hpp"

namespace nectar::scenario {

/// One pcap tap: `element` names a capture point in the topology
/// ("node<i>.link" — node i's outbound fiber). `format` picks the link
/// type: "raw_ip" strips the Nectar datalink header and keeps IP packets
/// only (Wireshark dissects the TCP/IP suite); "datalink" records whole
/// Nectar frames (LINKTYPE_USER0).
struct CaptureSpec {
  std::string element;
  std::string file;
  obs::PcapWriter::Format format = obs::PcapWriter::Format::RawIp;
};

inline constexpr Named<obs::PcapWriter::Format> kCaptureFormats[] = {
    {obs::PcapWriter::Format::RawIp, "raw_ip"},
    {obs::PcapWriter::Format::DatalinkFrame, "datalink"},
};

/// Flight-recorder switches: `folded` enables the cycle-attribution
/// profiler and names its folded-stack output; `timeline` names the file
/// run() writes the merged event log to (net::Network::events(), a
/// "nectar-events" document).
struct ProfileSpec {
  std::string folded;
  std::string timeline;
  bool enabled() const { return !folded.empty() || !timeline.empty(); }
};

/// Causal tracing ([tracing] section): the obs::CausalTracer::Options the
/// tracer takes (`sample`, `max_traces` bind straight into it), plus the
/// artifact's switches. Default-off: with enabled=false no CausalTracer
/// exists, every instrumentation site is one failed pointer test, no stamp
/// bytes ride the wire, and reports carry no tailtrace.* rows — so
/// pre-existing scenarios stay byte-identical.
struct TracingSpec : obs::CausalTracer::Options {
  bool enabled = false;
  std::int64_t top_k = 10;         ///< slowest deliveries kept per flow in the artifact
  std::string artifact;            ///< tail-trace JSON file ("" = report rows only)
};

/// Continuous telemetry ([telemetry] section): the obs::Sampler::Options the
/// sampler takes (`interval`, `max_samples`, `include` bind straight into
/// it), plus the artifacts and the auditor switch. Default-off: with
/// enabled=false no Sampler or Auditor exists, run() drives the clock in one
/// run_until, and pre-existing scenarios stay byte-identical. Enabled, the
/// run is stepped `interval` at a time: every metric is sampled into a
/// delta-encoded time series, conservation invariants are checked at each
/// tick, and fault windows and event-log entries are overlaid as marks.
/// With shards == 1 stepping is invisible to the event stream; with
/// shards > 1 it caps the synchronization window at `interval`, so
/// telemetry-on parallel runs are deterministic but comparable only with
/// other telemetry-on runs.
struct TelemetrySpec : obs::Sampler::Options {
  bool enabled = false;
  std::string artifact;                   ///< time-series JSON ("" = rows only)
  bool audit = true;                      ///< run the conservation auditor
  std::string audit_artifact;             ///< audit JSON ("" = rows only)
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::uint64_t seed = 1;
  sim::SimTime duration = sim::msec(100);
  TopologySpec topology;
  bool software_checksum = true;
  /// Conservative-parallel execution ([parallel] section). shards=1 (the
  /// default) runs the sequential engine and reproduces legacy reports
  /// byte-for-byte. shards>1 is incompatible with [tracing] and [routing]
  /// (process-global mutable state); the constructor rejects the combination.
  ParallelSpec parallel;
  /// Control plane ([routing] section). Default-off: with enabled=false no
  /// RouteManager is built, no monitor threads run, and reports carry no
  /// route.* rows, so pre-existing scenarios stay byte-identical.
  route::RoutingConfig routing;
  /// Collective workload ([collectives] section). Default-off: with
  /// enabled=false no group is formed, no coll mailboxes or probes exist,
  /// and reports carry no coll.* rows — pre-existing scenarios stay
  /// byte-identical.
  CollectivesSpec collectives;
  /// Virtual-channel session workload ([sessions] section). Default-off:
  /// with enabled=false no SessionManager exists, no trunks are wired, and
  /// reports carry no session.* rows — pre-existing scenarios stay
  /// byte-identical.
  SessionsSpec sessions;
  TelemetrySpec telemetry;
  std::vector<WorkloadSpec> workloads;
  std::vector<FaultSpec> faults;
  std::vector<CaptureSpec> captures;
  ProfileSpec profile;
  TracingSpec tracing;

  /// Build a spec from a parsed config: any number of [workload], [fault]
  /// and [capture] sections (applied in file order), at most one of every
  /// other section. Throws std::runtime_error / std::invalid_argument on
  /// malformed input, an unknown or repeated section, or a number its
  /// member cannot hold.
  static ScenarioSpec from_config(const Config& cfg);

  /// Every section and key from_config accepts, by section name
  /// (docs/SCENARIOS.md's reference block is tested against it).
  static std::map<std::string, std::vector<std::string>> vocabulary();
};

class Scenario {
 public:
  /// Builds the network, stacks, workloads and fault schedule, and opens the
  /// capture files (one that cannot be opened throws std::runtime_error).
  /// Ready to run() immediately after construction.
  explicit Scenario(ScenarioSpec spec);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Run the simulation clock to spec().duration, close fault attribution
  /// windows and write the artifacts; one that cannot be written throws
  /// std::runtime_error naming its key and path. Call once. With [telemetry]
  /// enabled the clock is stepped one sample interval at a time, and a
  /// conservation-invariant violation throws std::runtime_error (after the
  /// structured audit report has been written).
  void run();

  /// The SLO report ("scenario" bench format): per-workload percentiles,
  /// goodput, fairness, shed/error counts; network-wide drop, retransmit
  /// and fault-attribution totals.
  obs::RunReport report();

  const ScenarioSpec& spec() const { return spec_; }
  net::Network& net() { return net_; }
  int nodes() const { return net_.cab_count(); }
  net::NodeStack& stack(int node) { return *stacks_.at(static_cast<std::size_t>(node)); }
  FaultScheduler& faults() { return *faults_; }
  /// The control plane, or nullptr when [routing] enabled=false.
  route::RouteManager* routing() { return routing_.get(); }
  /// The causal tracer, or nullptr when [tracing] enabled=false.
  obs::CausalTracer* causal_tracer() { return tracer_.get(); }
  /// The collective driver, or nullptr when [collectives] enabled=false.
  CollectiveDriver* collectives() { return collectives_.get(); }
  /// The session driver, or nullptr when [sessions] enabled=false.
  SessionDriver* sessions() { return sessions_.get(); }
  /// The telemetry sampler, or nullptr when [telemetry] enabled=false.
  obs::Sampler* sampler() { return sampler_.get(); }
  /// The conservation auditor, or nullptr when [telemetry] audit is off.
  obs::Auditor* auditor() { return auditor_.get(); }
  const std::vector<std::unique_ptr<Workload>>& workloads() const { return workloads_; }
  /// The pcap writers opened for spec().captures, in spec order (tests
  /// inspect packet counts; files flush on Scenario destruction).
  const std::vector<std::unique_ptr<obs::PcapWriter>>& captures() const { return pcaps_; }

 private:
  ScenarioSpec spec_;
  net::Network net_;
  std::vector<std::unique_ptr<net::NodeStack>> stacks_;
  std::unique_ptr<route::RouteManager> routing_;
  std::unique_ptr<obs::CausalTracer> tracer_;
  std::unique_ptr<FaultScheduler> faults_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::unique_ptr<CollectiveDriver> collectives_;
  std::unique_ptr<SessionDriver> sessions_;
  std::vector<std::unique_ptr<obs::PcapWriter>> pcaps_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<obs::Auditor> auditor_;
  // Last member: holds the telemetry probes (workload counters), which read
  // the workloads above — it must release before they are destroyed.
  obs::Registration telemetry_reg_;
};

}  // namespace nectar::scenario
