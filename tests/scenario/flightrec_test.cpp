// Flight-recorder wiring through the scenario engine: [capture] and
// [profile] INI sections, artifact production from a config alone, loud
// failure on an unwritable artifact path, profile determinism, and the
// per-flow -> global latency aggregation the report performs via
// LatencyHistogram::merge.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

std::uint32_t le32(const std::string& b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | static_cast<unsigned char>(b[off + i]);
  return v;
}

TEST(FlightRecorderTest, ParsesCaptureAndProfileSections) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = rec

[topology]
nodes = 3

[capture]
element = node0.link
file = a.pcap

[capture]
element = node2.link
file = b.pcap
format = datalink

[profile]
folded = prof.folded
timeline = tl.json
)"));
  ASSERT_EQ(spec.captures.size(), 2u);
  EXPECT_EQ(spec.captures[0].element, "node0.link");
  EXPECT_EQ(spec.captures[0].file, "a.pcap");
  EXPECT_EQ(spec.captures[0].format, obs::PcapWriter::Format::RawIp);  // the default
  EXPECT_EQ(spec.captures[1].format, obs::PcapWriter::Format::DatalinkFrame);
  EXPECT_TRUE(spec.profile.enabled());
  EXPECT_EQ(spec.profile.folded, "prof.folded");
  EXPECT_EQ(spec.profile.timeline, "tl.json");
}

TEST(FlightRecorderTest, RejectsMalformedCaptureAndProfile) {
  // Unknown keys: closed vocabulary, same as every other section.
  EXPECT_THROW(ScenarioSpec::from_config(
                   Config::parse_string("[capture]\nelement = node0.link\npath = x.pcap\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[profile]\nfold = x\n")),
               std::runtime_error);
  // Required keys and the format vocabulary are checked at parse time.
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[capture]\nfile = x.pcap\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[capture]\nelement = node0.link\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string(
                   "[capture]\nelement = node0.link\nfile = x.pcap\nformat = pcapng\n")),
               std::invalid_argument);
  // Element names resolve against the topology when the scenario is built.
  ScenarioSpec bad = ScenarioSpec::from_config(Config::parse_string(R"(
[topology]
nodes = 2

[capture]
element = node7.link
file = x.pcap
)"));
  EXPECT_THROW(Scenario sc(std::move(bad)), std::invalid_argument);
  ScenarioSpec junk = ScenarioSpec::from_config(Config::parse_string(R"(
[topology]
nodes = 2

[capture]
element = hub0.port3
file = x.pcap
)"));
  EXPECT_THROW(Scenario sc(std::move(junk)), std::invalid_argument);
}

/// A small mixed scenario with every recorder on: TCP (for connection
/// transitions), RMP (for retransmit events under a lossy link), a pcap tap.
ScenarioSpec recorded_spec(const std::string& pcap, const std::string& folded,
                           const std::string& timeline, std::uint64_t seed) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
name = flightrec
duration = 200ms

[topology]
kind = star
nodes = 4

[workload]
name = bulk
proto = tcp
mode = closed
users = 1
size = 2048

[workload]
name = rmp
proto = rmp
mode = closed
users = 1
think = 2ms
size = 256
stride = 2

[fault]
kind = link_drop
target = node1.link
at = 60ms
duration = 60ms
rate = 0.4
)"));
  spec.seed = seed;
  spec.captures.push_back({"node0.link", pcap});
  spec.profile.folded = folded;
  spec.profile.timeline = timeline;
  return spec;
}

TEST(FlightRecorderTest, ScenarioProducesAllThreeArtifacts) {
  TempFile pcap("flightrec.pcap");
  TempFile folded("flightrec.folded");
  TempFile timeline("flightrec_tl.json");
  Scenario sc(recorded_spec(pcap.path, folded.path, timeline.path, 5));
  sc.net().tracer().set_enabled(true);
  sc.run();

  // pcap: the raw-IP global header, then records that tile the file
  // exactly, each a whole IPv4 packet, in timestamp order.
  std::string cap = slurp(pcap.path);
  ASSERT_GT(cap.size(), 24u);
  EXPECT_EQ(le32(cap, 0), 0xA1B23C4Du);  // nanosecond magic
  EXPECT_EQ(le32(cap, 4), 0x00040002u);  // version 2.4
  EXPECT_EQ(le32(cap, 16), 65535u);      // snaplen
  EXPECT_EQ(le32(cap, 20), 101u);        // LINKTYPE_RAW
  std::size_t off = 24;
  std::uint64_t records = 0;
  std::uint64_t last_ns = 0;
  while (off + 16 <= cap.size()) {
    const std::uint64_t ts = le32(cap, off) * std::uint64_t{1'000'000'000} + le32(cap, off + 4);
    const std::uint32_t incl = le32(cap, off + 8);
    EXPECT_EQ(incl, le32(cap, off + 12)) << "record " << records << " is truncated";
    ASSERT_GE(incl, 20u) << "record " << records << " is shorter than an IP header";
    ASSERT_LE(off + 16 + incl, cap.size());
    EXPECT_EQ(static_cast<unsigned char>(cap[off + 16]) >> 4, 4) << "record " << records;
    EXPECT_GE(ts, last_ns) << "record " << records << " goes back in time";
    last_ns = ts;
    off += 16 + incl;
    ++records;
  }
  EXPECT_EQ(off, cap.size()) << "trailing bytes after the last record";
  ASSERT_EQ(sc.captures().size(), 1u);
  EXPECT_GT(records, 0u);
  EXPECT_EQ(records, sc.captures()[0]->packets_written());

  // folded stacks: non-empty, every line "key ns".
  std::string prof = slurp(folded.path);
  ASSERT_FALSE(prof.empty());
  EXPECT_NE(prof.find("tcp/"), std::string::npos) << prof;
  EXPECT_NE(prof.find(";"), std::string::npos);

  // timeline: the merged event log in time order. The lossy link forces TCP
  // timeouts and RMP retransmits; the counts are pinned at seed 5.
  obs::json::Value tl = obs::json::Value::parse(slurp(timeline.path));
  EXPECT_EQ(tl.find("schema")->as_string(), "nectar-events");
  EXPECT_EQ(tl.find("version")->as_int(), 1);
  EXPECT_EQ(tl.find("dropped")->as_int(), 0);
  std::map<std::string, int> kinds;
  std::int64_t last_t = 0;
  for (const obs::json::Value& e : tl.find("events")->items()) {
    const std::int64_t t = e.find("t_ns")->as_int();
    EXPECT_GE(t, last_t) << "events go back in time";
    last_t = t;
    EXPECT_GE(e.find("node")->as_int(), 0);
    const std::string kind = e.find("kind")->as_string();
    ++kinds[kind];
    if (kind.rfind("tcp.", 0) == 0) {
      EXPECT_EQ(e.find("detail")->as_string().rfind("conn=", 0), 0u);
      EXPECT_NE(e.find("detail")->as_string().find(" cwnd="), std::string::npos);
    }
  }
  EXPECT_EQ(kinds["tcp.established"], 8);
  EXPECT_EQ(kinds["tcp.rto"], 18);
  EXPECT_EQ(kinds["rmp.retransmit"], 13);

  // With the tracer on, every logged event is an instant and each
  // connection's congestion window is a counter track.
  const obs::Tracer& tracer = sc.net().tracer();
  ASSERT_NE(tracer.find("rmp.retransmit"), nullptr);
  EXPECT_EQ(tracer.find("rmp.retransmit")->type, obs::Tracer::EventType::Instant);
  int cwnd = 0;
  for (const obs::Tracer::Event& e : tracer.events()) {
    const bool is_cwnd = e.name.size() > 5 && e.name.compare(e.name.size() - 5, 5, ".cwnd") == 0;
    if (e.type == obs::Tracer::EventType::Counter && is_cwnd) ++cwnd;
  }
  EXPECT_GT(cwnd, kinds["tcp.established"]) << "one cwnd counter per new ACK, not per transition";

  // ...and the report carries the profile summary.
  obs::RunReport rep = sc.report();
  std::string json = rep.to_json_string();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("sim_overhead_ns"), std::string::npos);
}

TEST(FlightRecorderTest, UnwritableArtifactThrowsNamingKeyAndPath) {
  const std::string bad = "missing-artifact-dir/out";
  // Each run points exactly one artifact key under a directory that does
  // not exist.
  const std::vector<std::pair<std::string, std::function<void(ScenarioSpec&)>>> keys = {
      {"[capture] file", [&](ScenarioSpec& s) { s.captures.push_back({"node0.link", bad}); }},
      {"[profile] folded", [&](ScenarioSpec& s) { s.profile.folded = bad; }},
      {"[profile] timeline", [&](ScenarioSpec& s) { s.profile.timeline = bad; }},
      {"[tracing] artifact",
       [&](ScenarioSpec& s) {
         s.tracing.enabled = true;
         s.tracing.artifact = bad;
       }},
      {"[telemetry] artifact",
       [&](ScenarioSpec& s) {
         s.telemetry.enabled = true;
         s.telemetry.artifact = bad;
       }},
      {"[telemetry] audit_artifact",
       [&](ScenarioSpec& s) {
         s.telemetry.enabled = true;
         s.telemetry.audit_artifact = bad;
       }},
  };
  for (const auto& [key, set] : keys) {
    ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(R"(
[scenario]
duration = 5ms

[topology]
kind = star
nodes = 2

[workload]
proto = udp
mode = open
rate = 1000
size = 64
)"));
    set(spec);
    try {
      Scenario sc(std::move(spec));
      sc.run();
      ADD_FAILURE() << key << ": an unwritable path did not throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

TEST(FlightRecorderTest, FoldedProfileIsDeterministic) {
  auto run = [](const char* tag) {
    std::string pcap = std::string("det_") + tag + ".pcap";
    std::string folded = std::string("det_") + tag + ".folded";
    TempFile p(pcap), f(folded);
    Scenario sc(recorded_spec(p.path, f.path, "", 9));
    sc.run();
    return slurp(f.path);
  };
  std::string a = run("a");
  std::string b = run("b");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "--profile output must be byte-identical for the same (spec, seed)";
}

TEST(FlightRecorderTest, PerFlowHistogramsMergeIntoGlobalPercentiles) {
  TempFile pcap("merge.pcap");
  Scenario sc(recorded_spec(pcap.path, "", "", 13));
  sc.run();

  std::uint64_t flow_total = 0, workload_total = 0;
  for (const auto& w : sc.workloads()) {
    std::uint64_t per_flow = 0;
    for (const FlowStats& f : w->flows()) per_flow += f.latency.count();
    obs::LatencyHistogram merged = w->latency();
    EXPECT_EQ(per_flow, merged.count()) << w->spec().name;
    EXPECT_EQ(merged.count(), w->delivered()) << w->spec().name;
    flow_total += per_flow;
    workload_total += merged.count();
  }
  EXPECT_GT(flow_total, 0u);

  // The report's global percentiles come from merging the same histograms:
  // its count row equals the per-flow sum ("results" is an array of
  // {name, value, unit} rows).
  obs::RunReport rep = sc.report();
  obs::json::Value doc = obs::json::Value::parse(rep.to_json_string());
  const obs::json::Value* results = doc.find("results");
  ASSERT_NE(results, nullptr);
  bool found = false;
  for (const obs::json::Value& row : results->items()) {
    if (row.find("name")->as_string() != "global.latency.count") continue;
    found = true;
    EXPECT_EQ(static_cast<std::uint64_t>(row.find("value")->as_double()), flow_total);
  }
  EXPECT_TRUE(found) << "report is missing the global.latency.count row";
}

}  // namespace
}  // namespace nectar::scenario
