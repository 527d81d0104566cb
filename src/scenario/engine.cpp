#include "scenario/engine.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/random.hpp"

namespace nectar::scenario {

namespace {

/// Integer `key` of `s` (absent: `fallback`); a value that does not fit T
/// throws rather than wrapping.
template <class T>
T get_fitting(const Section& s, const char* key, T fallback) {
  const std::int64_t v = s.get_int(key, static_cast<std::int64_t>(fallback));
  if (!std::in_range<T>(v)) {
    s.bad_value(key, "an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
                         std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(v);
}

/// A duration member: sim::SimTime is std::int64_t, so a duration row needs
/// its own type to parse "5ms" rather than a bare integer.
template <class Of>
struct Time {
  sim::SimTime Of::*member;
};

/// A row's member belongs to its section's spec or to the library config the
/// spec extends (SessionsSpec is a session::SessionConfig plus the
/// SessionDriver's traffic shape), so the key binds straight into the struct
/// that reads it.
template <class Of, class Spec>
concept MemberOf = std::derived_from<Spec, Of>;

/// The values a numeric row accepts, [lo, hi]; a row without one accepts
/// whatever its member holds. A double holds every bound the tables use
/// exactly, so one type serves integer, floating and duration rows.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// `v` as an error message shows it ("1", "0.25").
template <class T>
std::string text_of(T v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// One INI key: how its text sets the spec member and, for a bounded key,
/// the check the member must pass once its section is bound.
template <class Spec>
struct Key {
  using Setter = std::function<void(const Section&, const char* key, Spec&)>;
  using Check = std::function<void(const char* section, const char* key, const Spec&)>;

  /// A string, bool, floating-point or integer member.
  template <class T, MemberOf<Spec> Of>
  Key(const char* n, T Of::*m)
      : name(n), set([m](const Section& s, const char* k, Spec& spec) {
          T& v = spec.*m;
          if constexpr (std::is_same_v<T, std::string>) {
            v = s.get(k, v);
          } else if constexpr (std::is_same_v<T, bool>) {
            v = s.get_bool(k, v);
          } else if constexpr (std::is_floating_point_v<T>) {
            v = s.get_double(k, v);
          } else {
            static_assert(std::is_integral_v<T>, "an enum member needs a name table");
            v = get_fitting(s, k, v);
          }
        }) {}
  template <class T, MemberOf<Spec> Of>
  Key(const char* n, T Of::*m, Range r) : Key(n, m) {
    check = bounded(m, r, std::is_integral_v<T> ? "an integer" : "a number", "");
  }
  /// A string member that may not be left empty.
  Key(const char* n, std::string Spec::*m, bool required) : Key(n, m) {
    if (!required) return;
    check = [m](const char* section, const char* k, const Spec& spec) {
      if ((spec.*m).empty()) throw std::runtime_error(value_error(section, k, "a value", ""));
    };
  }
  template <MemberOf<Spec> Of>
  Key(const char* n, Time<Of> t)
      : name(n), set([m = t.member](const Section& s, const char* k, Spec& spec) {
          spec.*m = s.get_time(k, spec.*m);
        }) {}
  template <MemberOf<Spec> Of>
  Key(const char* n, Time<Of> t, Range r) : Key(n, t) {
    check = bounded(t.member, r, "a duration", "ns");
  }
  /// An enum member, spelled as in `names`. A required key has no default:
  /// leaving it out fails like a misspelled name.
  template <class E, std::size_t N>
  Key(const char* n, E Spec::*m, const Named<E> (&names)[N], bool required = false)
      : name(n), set([m, &names, required](const Section& s, const char* k, Spec& spec) {
          if (!required && !s.has(k)) return;
          std::string want;
          for (const Named<E>& named : names) {
            if (s.get(k) == named.name) {
              spec.*m = named.value;
              return;
            }
            want += (want.empty() ? "" : " | ") + std::string(named.name);
          }
          throw std::invalid_argument(value_error(s.name, k, want, s.get(k)));
        }) {}
  Key(const char* n, Setter f) : name(n), set(std::move(f)) {}

  const char* name;
  Setter set;
  Check check;  ///< empty: any value the member holds passes

 private:
  template <class T, class Of>
  static Check bounded(T Of::*m, Range r, const char* noun, const char* unit) {
    return [m, r, noun, unit](const char* section, const char* k, const Spec& spec) {
      const T v = spec.*m;
      if (r.lo <= v && v <= r.hi) return;  // false for nan too
      const std::string lo = text_of(r.lo) + unit, hi = text_of(r.hi) + unit;
      const std::string want = std::isinf(r.hi)   ? noun + (" >= " + lo)
                               : std::isinf(r.lo) ? noun + (" <= " + hi)
                                                  : noun + (" in [" + lo + ", " + hi + "]");
      throw std::runtime_error(value_error(section, k, want, text_of(v) + unit));
    };
  }
};

/// A bound on `key` that involves another key of the same section.
template <class Spec>
struct Rule {
  const char* key;
  std::int64_t Spec::*member;  ///< `key`'s member, shown in the error
  std::string want;
  bool (*holds)(const Spec&);
};

/// A section's whole vocabulary, one row per key, plus its cross-key rules.
template <class Spec>
struct Table {
  const char* section;
  std::vector<Key<Spec>> keys;
  std::vector<Rule<Spec>> rules = {};
};

/// Throw value_error's text for the first value of `spec` that its row's
/// bound or one of the table's rules rejects.
template <class Spec>
void check(const Table<Spec>& table, const Spec& spec) {
  for (const Key<Spec>& k : table.keys) {
    if (k.check) k.check(table.section, k.name, spec);
  }
  for (const Rule<Spec>& r : table.rules) {
    if (!r.holds(spec)) {
      throw std::runtime_error(
          value_error(table.section, r.key, r.want, std::to_string(spec.*r.member)));
    }
  }
}

/// Set every member whose key `s` has (absent keys keep the spec's default),
/// reject any key the table does not name, then check the result.
template <class Spec>
void bind(const Section& s, const Table<Spec>& table, Spec& spec) {
  for (const auto& [key, value] : s.values) {
    auto named = [&key](const Key<Spec>& k) { return key == k.name; };
    if (std::none_of(table.keys.begin(), table.keys.end(), named)) {
      throw std::runtime_error("config: unknown key '" + key + "' in section [" + s.name + "]");
    }
  }
  for (const Key<Spec>& k : table.keys) k.set(s, k.name, spec);
  check(table, spec);
}

const Table<ScenarioSpec> kScenarioKeys{"scenario", {
    {"name", &ScenarioSpec::name},
    {"seed", &ScenarioSpec::seed},
    {"duration", Time{&ScenarioSpec::duration}},
    {"software_checksum", &ScenarioSpec::software_checksum},
}};

const Table<TopologySpec> kTopologyKeys{"topology", {
    {"kind", &TopologySpec::kind, kTopologyKinds},
    {"nodes", &TopologySpec::nodes},
    {"hub_ports", &TopologySpec::hub_ports},
    {"spines", &TopologySpec::spines},
    {"with_vme", &TopologySpec::with_vme},
    {"trunk_propagation", Time{&TopologySpec::trunk_propagation}, {.lo = 1}},
    {"route_spread", &TopologySpec::route_spread},
}};

const Table<ParallelSpec> kParallelKeys{"parallel", {
    {"shards", &ParallelSpec::shards, {.lo = 1}},
    {"partition", &ParallelSpec::partition, kPartitions},
}};

const Table<WorkloadSpec> kWorkloadKeys{"workload", {
    {"name", &WorkloadSpec::name},
    {"proto", &WorkloadSpec::proto, kProtos},
    {"mode", &WorkloadSpec::mode, kModes},
    {"users", &WorkloadSpec::users},
    {"rate", &WorkloadSpec::rate},
    {"think", Time{&WorkloadSpec::think}},
    // `size` sets both bounds; size_min / size_max, bound after it, refine.
    {"size",
     [](const Section& s, const char* k, WorkloadSpec& w) {
       w.size_min = w.size_max = get_fitting(s, k, w.size_min);
     }},
    {"size_min", &WorkloadSpec::size_min},
    {"size_max", &WorkloadSpec::size_max},
    {"stride", &WorkloadSpec::stride},
}};

const Table<route::RoutingConfig> kRoutingKeys{"routing", {
    {"enabled", &route::RoutingConfig::enabled},
    {"paths", &route::RoutingConfig::paths},
    {"probe_interval", Time{&route::RoutingConfig::probe_interval}},
    {"probe_timeout", Time{&route::RoutingConfig::probe_timeout}},
    {"dead_after", &route::RoutingConfig::dead_after},
    {"recover_after", &route::RoutingConfig::recover_after},
}};

const Table<CollectivesSpec> kCollectivesKeys{"collectives", {
    {"enabled", &CollectivesSpec::enabled},
    {"mode", &CollectivesSpec::mode, kCollModes},
    {"op", &CollectivesSpec::op, kCollOps},
    {"algorithm", &CollectivesSpec::algorithm, kCollAlgorithms},
    {"reduce", &CollectivesSpec::reduce, kReduceOps},
    {"iterations", &CollectivesSpec::iterations, {.lo = 0}},
    {"interval", Time{&CollectivesSpec::interval}},
    {"timeout", Time{&CollectivesSpec::timeout}, {.lo = 1}},
    {"retransmit", Time{&CollectivesSpec::retransmit}, {.lo = 1}},
}};

const Table<SessionsSpec> kSessionsKeys{"sessions", {
    {"enabled", &SessionsSpec::enabled},
    {"trunks", &SessionsSpec::trunks, {.lo = 1}},
    {"channels", &SessionsSpec::channels, {.lo = 1}},
    {"stride", &SessionsSpec::stride, {.lo = 1}},
    {"rate", &SessionsSpec::rate, {.lo = 0.0}},
    // At least the 16-byte measurement stamp; at most a 16-bit frame length.
    {"size", &SessionsSpec::size, {.lo = 16, .hi = 60000}},
    {"warmup", Time{&SessionsSpec::warmup}},
    {"initial_credit", &SessionsSpec::initial_credit, {.lo = 1}},
    {"send_window", &SessionsSpec::send_window, {.lo = 1}},
    {"max_batch", &SessionsSpec::max_batch},
    {"max_channels", &SessionsSpec::max_channels, {.lo = 1}},
    {"aggregation", Time{&SessionsSpec::aggregation}, {.lo = 0}},
    {"fail_timeout", Time{&SessionsSpec::fail_timeout}, {.lo = 1}},
    {"churn_rate", &SessionsSpec::churn_rate, {.lo = 0.0}},
    {"churn_start", Time{&SessionsSpec::churn_start}},
    {"churn_duration", Time{&SessionsSpec::churn_duration}},
    {"stall_at", Time{&SessionsSpec::stall_at}},
    {"stall_duration", Time{&SessionsSpec::stall_duration}},
    {"stall_channels", &SessionsSpec::stall_channels, {.lo = 0}},
    {"probe_channels", &SessionsSpec::probe_channels, {.lo = 0}},
}, {
    {"size", &SessionsSpec::size,
     "an integer <= max_batch - " + std::to_string(session::FrameHeader::kSize) +
         " (a frame header must fit)",
     [](const SessionsSpec& s) {
       return s.size + static_cast<std::int64_t>(session::FrameHeader::kSize) <= s.max_batch;
     }},
    {"probe_channels", &SessionsSpec::probe_channels, "an integer <= channels",
     [](const SessionsSpec& s) { return s.probe_channels <= s.channels; }},
}};

const Table<CaptureSpec> kCaptureKeys{"capture", {
    {"element", &CaptureSpec::element, /*required=*/true},
    {"file", &CaptureSpec::file, /*required=*/true},
    {"format", &CaptureSpec::format, kCaptureFormats},
}};

const Table<ProfileSpec> kProfileKeys{"profile", {
    {"folded", &ProfileSpec::folded},
    {"timeline", &ProfileSpec::timeline},
}};

const Table<TelemetrySpec> kTelemetryKeys{"telemetry", {
    {"enabled", &TelemetrySpec::enabled},
    {"interval", Time{&TelemetrySpec::interval}, {.lo = 1}},
    {"artifact", &TelemetrySpec::artifact},
    {"audit", &TelemetrySpec::audit},
    {"audit_artifact", &TelemetrySpec::audit_artifact},
    {"max_samples", &TelemetrySpec::max_samples, {.lo = 1}},
    // A comma-separated pattern list; blanks around each pattern are dropped.
    {"include",
     [](const Section& s, const char* k, TelemetrySpec& t) {
       std::istringstream list(s.get(k));
       for (std::string pat; std::getline(list, pat, ',');) {
         pat.erase(0, pat.find_first_not_of(" \t"));
         pat.erase(pat.find_last_not_of(" \t") + 1);
         if (!pat.empty()) t.include.push_back(std::move(pat));
       }
     }},
}};

const Table<TracingSpec> kTracingKeys{"tracing", {
    {"enabled", &TracingSpec::enabled},
    {"sample", &TracingSpec::sample, {.lo = 0.0, .hi = 1.0}},
    {"top_k", &TracingSpec::top_k, {.lo = 0}},
    {"max_traces", &TracingSpec::max_traces},
    {"artifact", &TracingSpec::artifact},
}};

const Table<FaultSpec> kFaultKeys{"fault", {
    {"kind", &FaultSpec::kind, kFaultKinds, /*required=*/true},
    {"target", &FaultSpec::target},
    {"at", Time{&FaultSpec::at}},
    {"duration", Time{&FaultSpec::duration}},
    {"jitter", Time{&FaultSpec::jitter}},
    {"rate", &FaultSpec::rate},
    {"count", &FaultSpec::count},
}};

/// One INI section: its key names, how a copy of it binds into a
/// ScenarioSpec, and how a built ScenarioSpec's values for it are checked.
struct SectionBinding {
  const char* name;
  bool repeats;  ///< each copy binds a new spec
  std::vector<std::string> keys;
  std::function<void(const Section&, ScenarioSpec&)> bind;
  std::function<void(const ScenarioSpec&)> check;
};

template <class Spec>
std::vector<std::string> key_names(const Table<Spec>& table) {
  std::vector<std::string> names;
  for (const Key<Spec>& k : table.keys) names.emplace_back(k.name);
  return names;
}

/// A section that appears at most once; `pick` returns its spec from a
/// ScenarioSpec, const or not.
template <class Spec, class Pick>
SectionBinding once(const Table<Spec>& table, Pick pick) {
  return {table.section, false, key_names(table),
          [&table, pick](const Section& s, ScenarioSpec& spec) { bind(s, table, pick(spec)); },
          [&table, pick](const ScenarioSpec& spec) { check(table, pick(spec)); }};
}

/// A repeating section: each copy binds a new element of `list`, which
/// `init` first gives the defaults that depend on its index.
template <class Spec>
SectionBinding repeated(const Table<Spec>& table, std::vector<Spec> ScenarioSpec::*list,
                        std::type_identity_t<void (*)(Spec&, std::size_t)> init = nullptr) {
  return {table.section, true, key_names(table),
          [&table, list, init](const Section& s, ScenarioSpec& spec) {
            Spec& x = (spec.*list).emplace_back();
            if (init != nullptr) init(x, (spec.*list).size() - 1);
            bind(s, table, x);
          },
          [&table, list](const ScenarioSpec& spec) {
            for (const Spec& x : spec.*list) check(table, x);
          }};
}

/// Every section from_config accepts: the list binding, the unknown- and
/// repeated-section checks, the Scenario constructor's checks and
/// vocabulary() all read.
const SectionBinding kSections[] = {
    once(kScenarioKeys, [](auto& s) -> auto& { return s; }),
    once(kTopologyKeys, [](auto& s) -> auto& { return s.topology; }),
    once(kParallelKeys, [](auto& s) -> auto& { return s.parallel; }),
    once(kRoutingKeys, [](auto& s) -> auto& { return s.routing; }),
    once(kCollectivesKeys, [](auto& s) -> auto& { return s.collectives; }),
    once(kSessionsKeys, [](auto& s) -> auto& { return s.sessions; }),
    once(kProfileKeys, [](auto& s) -> auto& { return s.profile; }),
    once(kTelemetryKeys, [](auto& s) -> auto& { return s.telemetry; }),
    once(kTracingKeys, [](auto& s) -> auto& { return s.tracing; }),
    repeated(kWorkloadKeys, &ScenarioSpec::workloads,
             [](WorkloadSpec& w, std::size_t i) {
               // Workload i defaults to name wl<i> and claims a private
               // 16-port band, so TCP client ports (port+1) never collide
               // across workloads.
               w.name = "wl" + std::to_string(i);
               w.port = static_cast<std::uint16_t>(7000 + 16 * i);
             }),
    repeated(kCaptureKeys, &ScenarioSpec::captures),
    repeated(kFaultKeys, &ScenarioSpec::faults),
};

/// `spec`, once every value in it has passed its key's row: a spec built in
/// code meets the same bounds an INI file does.
ScenarioSpec checked(ScenarioSpec spec) {
  for (const SectionBinding& b : kSections) b.check(spec);
  return spec;
}

/// Write `text` to `path`, the value of INI key `key`, or throw naming both.
void write_artifact(const char* key, const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    throw std::runtime_error(std::string("scenario: cannot write ") + key + " '" + path + "'");
  }
}

/// The merged event log as a "nectar-events" document.
obs::json::Value events_document(const net::Network& net) {
  obs::json::Value events = obs::json::Value::array();
  for (const core::LogEntry& e : net.events()) {
    obs::json::Value v = obs::json::Value::object();
    v.set("t_ns", e.t);
    v.set("node", e.node);
    v.set("kind", e.kind);
    v.set("detail", e.detail);
    events.push(std::move(v));
  }
  obs::json::Value doc = obs::json::Value::object();
  doc.set("schema", "nectar-events");
  doc.set("version", std::int64_t{1});
  doc.set("dropped", net.events_dropped());
  doc.set("events", std::move(events));
  return doc;
}

}  // namespace

ScenarioSpec ScenarioSpec::from_config(const Config& cfg) {
  ScenarioSpec spec;
  std::set<std::string> seen;
  for (const Section& s : cfg.sections()) {
    // Keys above the first header land in the parser's unnamed section.
    if (s.name.empty()) {
      throw std::runtime_error("config: key '" + s.values.begin()->first +
                               "' is outside any [section]");
    }
    // A misspelled header would otherwise drop its whole section silently,
    // and a second [scenario] would be ignored after the first.
    auto b = std::find_if(std::begin(kSections), std::end(kSections),
                          [&s](const SectionBinding& x) { return s.name == x.name; });
    if (b == std::end(kSections)) {
      throw std::runtime_error("config: unknown section [" + s.name + "]");
    }
    if (!b->repeats && !seen.insert(s.name).second) {
      throw std::runtime_error("config: section [" + s.name +
                               "] appears twice (it does not repeat)");
    }
    b->bind(s, spec);
  }
  return spec;
}

std::map<std::string, std::vector<std::string>> ScenarioSpec::vocabulary() {
  std::map<std::string, std::vector<std::string>> out;
  for (const SectionBinding& b : kSections) out[b.name] = b.keys;
  return out;
}

Scenario::Scenario(ScenarioSpec spec)
    : spec_(checked(std::move(spec))), net_(spec_.parallel.shards) {
  if (spec_.parallel.shards > 1) {
    // Both features hang network-global mutable state off every node's hot
    // path (the causal tracer's trace table, the control plane's route
    // updates), which shard workers would race on. Fail at build time.
    if (spec_.tracing.enabled) {
      throw std::invalid_argument("scenario: [tracing] is incompatible with [parallel] shards > 1");
    }
    if (spec_.routing.enabled) {
      throw std::invalid_argument("scenario: [routing] is incompatible with [parallel] shards > 1");
    }
  }
  int n = build_topology(net_, spec_.topology, spec_.seed, spec_.parallel);
  proto::TcpConfig tc;
  tc.software_checksum = spec_.software_checksum;
  tc.congestion_control = true;  // scenarios run the full stack
  for (int i = 0; i < n; ++i) stacks_.push_back(std::make_unique<net::NodeStack>(net_, i, tc));
  if (spec_.routing.enabled) {
    // Every per-element RNG in the control plane (ECMP tie-breaks, probe
    // phases) derives from the scenario master seed, like faults/workloads.
    spec_.routing.seed = sim::derive_seed(spec_.seed, "routing");
    routing_ = std::make_unique<route::RouteManager>(net_, spec_.routing);
    for (int i = 0; i < n; ++i) routing_->attach(i, stack(i).datagram);
    routing_->start();
  }
  if (spec_.tracing.enabled) {
    // Sampling derives from the scenario master seed like every other random
    // stream; activation makes the process-global instrumentation sites live
    // for the duration of this Scenario (the destructor deactivates).
    tracer_ = std::make_unique<obs::CausalTracer>(
        net_.engine(), sim::derive_seed(spec_.seed, "tracing"), spec_.tracing);
    tracer_->activate();
  }
  faults_ = std::make_unique<FaultScheduler>(net_, spec_.seed);
  for (const FaultSpec& f : spec_.faults) faults_->schedule(f);
  std::vector<net::NodeStack*> raw;
  raw.reserve(stacks_.size());
  for (auto& s : stacks_) raw.push_back(s.get());
  for (const WorkloadSpec& w : spec_.workloads) {
    workloads_.push_back(std::make_unique<Workload>(net_, raw, w, spec_.seed));
    workloads_.back()->install();
  }
  if (spec_.collectives.enabled) {
    collectives_ = std::make_unique<CollectiveDriver>(net_, raw, spec_.collectives);
  }
  if (spec_.sessions.enabled) {
    sessions_ = std::make_unique<SessionDriver>(net_, raw, spec_.sessions, spec_.seed);
  }
  for (const CaptureSpec& c : spec_.captures) {
    const std::string_view e = c.element;
    const int node =
        e.ends_with(".link") ? element_index(e.substr(0, e.size() - 5), "node", n) : -1;
    if (node < 0) {
      throw std::invalid_argument("capture: unknown element '" + c.element +
                                  "' (want node<i>.link with i < " + std::to_string(n) + ")");
    }
    auto w = std::make_unique<obs::PcapWriter>(c.file, c.format);
    if (!w->ok()) {
      throw std::runtime_error("scenario: cannot write [capture] file '" + c.file + "'");
    }
    net_.cab(node).out_link().attach_pcap(w.get());
    pcaps_.push_back(std::move(w));
  }
  if (!spec_.profile.folded.empty()) net_.profiler().set_enabled(true);
  if (spec_.telemetry.enabled) {
    // Substrate probes (HUB crossbar, engine pools) plus per-workload flow
    // counters feed the sampler.
    net_.register_substrate_metrics();
    telemetry_reg_ = obs::Registration(net_.metrics());
    for (auto& w : workloads_) w->register_metrics(telemetry_reg_);
    sampler_ = std::make_unique<obs::Sampler>(net_.metrics(), spec_.telemetry);
    if (spec_.telemetry.audit) {
      auditor_ = std::make_unique<obs::Auditor>(&net_.metrics());
      net_.register_audit(*auditor_);
    }
  }
}

void Scenario::run() {
  if (sampler_ != nullptr || auditor_ != nullptr) {
    // Step the clock one sample interval at a time. Between steps no shard
    // worker runs, so sampling the registry and evaluating audit checks is
    // race-free; at shards == 1 the event stream is identical to a single
    // run_until(duration).
    if (sampler_) sampler_->sample(0);
    if (auditor_) auditor_->check(0);
    sim::SimTime t = 0;
    while (t < spec_.duration) {
      t = std::min(t + spec_.telemetry.interval, spec_.duration);
      net_.run_until(t);
      if (sampler_) sampler_->sample(t);
      if (auditor_) auditor_->check(t);
    }
  } else {
    net_.run_until(spec_.duration);
  }
  faults_->finalize();
  if (sampler_) {
    // Overlay the injected faults as windows, now that their attribution
    // windows are closed, and every logged event as an instant.
    for (const FaultRecord& r : faults_->records()) {
      sampler_->mark(r.applied_at, "fault", r.spec.describe(),
                     r.cleared_at >= 0 ? r.cleared_at : spec_.duration);
    }
    for (const core::LogEntry& e : net_.events()) {
      sampler_->mark(e.t, e.kind, "node" + std::to_string(e.node) + " " + e.detail);
    }
  }
  // Flush the captures now (destructors would too): a scenario that has run
  // leaves complete files behind even if the process aborts between run()
  // and teardown.
  for (auto& p : pcaps_) p->flush();
  if (!spec_.profile.timeline.empty()) {
    write_artifact("[profile] timeline", spec_.profile.timeline,
                   events_document(net_).dump(2) + '\n');
  }
  if (!spec_.profile.folded.empty()) {
    write_artifact("[profile] folded", spec_.profile.folded, net_.profiler().folded());
  }
  if (tracer_ && !spec_.tracing.artifact.empty()) {
    obs::CriticalPathAnalyzer cpa(*tracer_);
    write_artifact("[tracing] artifact", spec_.tracing.artifact,
                   cpa.artifact(static_cast<std::size_t>(spec_.tracing.top_k)).dump(2) + '\n');
  }
  if (sampler_ && !spec_.telemetry.artifact.empty()) {
    write_artifact("[telemetry] artifact", spec_.telemetry.artifact,
                   sampler_->artifact(spec_.name).dump(2) + '\n');
  }
  if (auditor_) {
    auditor_->finalize(spec_.duration);
    // Write the structured report before failing loudly, so a violated run
    // still leaves the evidence behind.
    if (!spec_.telemetry.audit_artifact.empty()) {
      write_artifact("[telemetry] audit_artifact", spec_.telemetry.audit_artifact,
                     auditor_->report_json().dump(2) + '\n');
    }
    auditor_->throw_if_failed();
  }
}

obs::RunReport Scenario::report() {
  obs::RunReport rep("scenario");
  rep.param("name", spec_.name);
  rep.param("seed", static_cast<std::int64_t>(spec_.seed));
  rep.param("topology", name_of(kTopologyKinds, spec_.topology.kind));
  rep.param("nodes", net_.cab_count());
  rep.param("duration_us", spec_.duration / sim::kMicrosecond);
  rep.param("workloads", static_cast<std::int64_t>(workloads_.size()));
  rep.param("faults", static_cast<std::int64_t>(spec_.faults.size()));
  if (net_.shard_count() > 1) {
    // Only when sharded: a shards=1 run must render byte-identically to the
    // reports committed before the parallel engine existed.
    rep.param("shards", static_cast<std::int64_t>(net_.shard_count()));
    rep.param("partition", name_of(kPartitions, spec_.parallel.partition));
  }

  std::uint64_t tcp_retx = 0, tcp_fast = 0;
  obs::LatencyHistogram global;  // per-flow histograms merged across workloads
  for (const auto& w : workloads_) {
    const std::string p = w->spec().name + ".";
    rep.add(p + "sent", static_cast<double>(w->sent()), "count");
    rep.add(p + "delivered", static_cast<double>(w->delivered()), "count");
    rep.add(p + "shed", static_cast<double>(w->shed()), "count");
    rep.add(p + "errors", static_cast<double>(w->errors()), "count");
    rep.add(p + "goodput", w->goodput_mbps(spec_.duration), "Mbit/s");
    rep.add(p + "fairness", w->fairness(), "ratio");
    obs::LatencyHistogram h = w->latency();
    global.merge(h);
    rep.add(p + "latency.count", static_cast<double>(h.count()), "count");
    rep.add(p + "mean", h.mean() / sim::kMicrosecond, "us");
    rep.add(p + "p50", h.p50() / sim::kMicrosecond, "us");
    rep.add(p + "p90", h.p90() / sim::kMicrosecond, "us");
    rep.add(p + "p99", h.p99() / sim::kMicrosecond, "us");
    rep.add(p + "p999", h.p999() / sim::kMicrosecond, "us");
    tcp_retx += w->tcp_retransmissions();
    tcp_fast += w->tcp_fast_retransmits();
  }
  rep.add("global.latency.count", static_cast<double>(global.count()), "count");
  rep.add("global.mean", global.mean() / sim::kMicrosecond, "us");
  rep.add("global.p50", global.p50() / sim::kMicrosecond, "us");
  rep.add("global.p90", global.p90() / sim::kMicrosecond, "us");
  rep.add("global.p99", global.p99() / sim::kMicrosecond, "us");
  rep.add("global.p999", global.p999() / sim::kMicrosecond, "us");

  std::uint64_t rmp_retx = 0, rr_retries = 0;
  for (const auto& s : stacks_) {
    rmp_retx += s->rmp.retransmissions();
    rr_retries += s->reqresp.retries();
  }
  rep.add("drops.total", static_cast<double>(faults_->network_drops()), "count");
  rep.add("drops.fault_attributed", static_cast<double>(faults_->total_attributed_drops()),
          "count");
  rep.add("retransmits.tcp", static_cast<double>(tcp_retx), "count");
  rep.add("retransmits.tcp_fast", static_cast<double>(tcp_fast), "count");
  rep.add("retransmits.rmp", static_cast<double>(rmp_retx), "count");
  rep.add("retries.reqresp", static_cast<double>(rr_retries), "count");
  rep.add("faults.injected", static_cast<double>(faults_->faults_injected()), "count");
  if (net_.shard_count() > 1) {
    // Shard-level load/synchronization gauges. Every value here is a
    // function of simulated execution only (event counts, window counts) —
    // wall-clock shard timings stay out so same-seed same-shard-count runs
    // render byte-identically. Load imbalance shows up directly as skew in
    // the per-shard event counts.
    sim::ParallelEngine& par = net_.parallel();
    const double secs =
        static_cast<double>(spec_.duration) / static_cast<double>(sim::kSecond);
    std::uint64_t total = par.total_events();
    std::uint64_t critical = par.critical_path_events();
    rep.add("parallel.shards", static_cast<double>(net_.shard_count()), "count");
    rep.add("parallel.lookahead", sim::to_usec(net_.lookahead()), "us");
    rep.add("parallel.windows", static_cast<double>(par.windows()), "count");
    rep.add("parallel.cross_events", static_cast<double>(par.cross_events()), "count");
    rep.add("parallel.mailbox_highwater", static_cast<double>(par.mailbox_highwater()),
            "events");
    rep.add("parallel.critical_path_events", static_cast<double>(critical), "count");
    rep.add("parallel.ideal_speedup",
            critical > 0 ? static_cast<double>(total) / static_cast<double>(critical) : 1.0,
            "ratio");
    for (int i = 0; i < net_.shard_count(); ++i) {
      const std::string p = "parallel.shard" + std::to_string(i) + ".";
      std::uint64_t ev = par.shard_events(i);
      rep.add(p + "events", static_cast<double>(ev), "count");
      rep.add(p + "events_per_sim_sec", secs > 0 ? static_cast<double>(ev) / secs : 0.0, "1/s");
    }
  }
  if (routing_) routing_->report_into(rep);
  if (collectives_) collectives_->report_into(rep);
  if (sessions_) sessions_->report_into(rep);
  if (sampler_) {
    rep.add("telemetry.samples", static_cast<double>(sampler_->samples()), "count");
    rep.add("telemetry.series", static_cast<double>(sampler_->series_count()), "count");
    rep.add("telemetry.marks", static_cast<double>(sampler_->marks().size()), "count");
  }
  if (auditor_) {
    rep.add("audit.invariants", static_cast<double>(auditor_->invariants()), "count");
    rep.add("audit.checks", static_cast<double>(auditor_->checks_run()), "count");
    rep.add("audit.violations", static_cast<double>(auditor_->violations().size()), "count");
  }
  for (std::size_t i = 0; i < faults_->records().size(); ++i) {
    const FaultRecord& r = faults_->records()[i];
    const std::string p = "fault" + std::to_string(i) + ".";
    rep.add(p + "applied", sim::to_usec(r.applied_at), "us");
    rep.add(p + "drops", static_cast<double>(r.attributed_drops), "count");
  }
  if (tracer_) {
    // Aggregate tail attribution (throws if the cut-point invariant broke —
    // a tracer bug, never data-dependent).
    obs::CriticalPathAnalyzer cpa(*tracer_);
    cpa.report_into(rep);
    // HUB per-port queue gauges ride along with tracing: where the frames
    // that made the tail were sitting.
    for (int h = 0; h < net_.hub_count(); ++h) {
      hw::Hub& hub = net_.hub(h);
      for (int p = 0; p < hub.num_ports(); ++p) {
        if (!hub.port_attached(p)) continue;
        const std::string pre = "hub." + hub.name() + ".port" + std::to_string(p) + ".";
        rep.add(pre + "queue_depth", static_cast<double>(hub.output_queue_depth(p)), "frames");
        rep.add(pre + "queue_highwater", static_cast<double>(hub.output_queue_highwater(p)),
                "frames");
        rep.add(pre + "blocked", sim::to_usec(hub.output_blocked_time(p)), "us");
      }
    }
  }
  if (net_.profiler().enabled()) {
    obs::json::Value prof = net_.profiler().summary();
    // Profiling charges no simulated time (a disabled-check branch per charge
    // on the host side only), so the overhead the run paid is identically
    // zero — recorded explicitly so report consumers need not know the
    // design invariant.
    prof.set("sim_overhead_ns", static_cast<std::int64_t>(0));
    rep.extra("profile", std::move(prof));
  }
  return rep;
}

}  // namespace nectar::scenario
