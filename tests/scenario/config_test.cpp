#include "scenario/config.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <string>

#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

TEST(ConfigTest, ParsesSectionsAndValues) {
  Config cfg = Config::parse_string(
      "[scenario]\n"
      "name = smoke\n"
      "seed = 42\n"
      "\n"
      "[topology]\n"
      "kind = star\n"
      "nodes = 8\n");
  ASSERT_EQ(cfg.sections().size(), 2u);
  const Section& s = cfg.sections()[0];
  EXPECT_EQ(s.name, "scenario");
  EXPECT_EQ(s.get("name", ""), "smoke");
  EXPECT_EQ(s.get_int("seed", 0), 42);
  EXPECT_EQ(cfg.sections()[1].name, "topology");
  EXPECT_EQ(cfg.sections()[1].get_int("nodes", 0), 8);
}

TEST(ConfigTest, RepeatedSectionsKeepFileOrder) {
  Config cfg = Config::parse_string(
      "[workload]\nname = a\n"
      "[fault]\nkind = link_drop\n"
      "[workload]\nname = b\n");
  const std::vector<Section>& s = cfg.sections();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].name, "workload");
  EXPECT_EQ(s[0].get("name", ""), "a");
  EXPECT_EQ(s[1].name, "fault");
  EXPECT_EQ(s[2].name, "workload");
  EXPECT_EQ(s[2].get("name", ""), "b");
}

TEST(ConfigTest, CommentsAndWhitespaceIgnored) {
  Config cfg = Config::parse_string(
      "# leading comment\n"
      "  [a]  \n"
      "; alt comment style\n"
      "  key =   spaced value  \n");
  EXPECT_EQ(cfg.sections().at(0).name, "a");
  EXPECT_EQ(cfg.sections().at(0).get("key", ""), "spaced value");
}

TEST(ConfigTest, DurationSuffixes) {
  EXPECT_EQ(parse_time("250"), 250);
  EXPECT_EQ(parse_time("250ns"), 250);
  EXPECT_EQ(parse_time("250us"), sim::usec(250));
  EXPECT_EQ(parse_time("5ms"), sim::msec(5));
  EXPECT_EQ(parse_time("2s"), sim::sec(2));
  EXPECT_EQ(parse_time("1.5ms"), sim::usec(1500));
  EXPECT_THROW(parse_time("5 fortnights"), std::runtime_error);
  EXPECT_THROW(parse_time("fast"), std::runtime_error);
}

TEST(ConfigTest, TypedGettersValidate) {
  Config cfg = Config::parse_string("[s]\nn = 12\nf = 0.5\nb = yes\nt = 3ms\nbad = zzz\n");
  const Section* s = &cfg.sections().at(0);
  EXPECT_EQ(s->get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(s->get_double("f", 0), 0.5);
  EXPECT_TRUE(s->get_bool("b", false));
  EXPECT_EQ(s->get_time("t", 0), sim::msec(3));
  EXPECT_EQ(s->get_int("absent", 7), 7);
  EXPECT_THROW(s->get_int("bad", 0), std::runtime_error);
  EXPECT_THROW(s->get_bool("bad", false), std::runtime_error);
  EXPECT_THROW(s->get_time("bad", 0), std::runtime_error);
}

TEST(ConfigTest, MalformedInputThrowsWithLineNumber) {
  try {
    Config::parse_string("[ok]\nkey = 1\nnot-a-kv-line\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  EXPECT_THROW(Config::parse_string("[unclosed\n"), std::runtime_error);
  EXPECT_THROW(Config::parse_string("[s]\na = 1\na = 2\n"), std::runtime_error);
  EXPECT_THROW(Config::parse_string("[s]\n= nokey\n"), std::runtime_error);
}

// A misspelled key in ANY section must fail loudly at parse time: every
// section added since the scenario engine landed carries the same
// check_keys contract. One case per section, each with a plausible typo.
TEST(ConfigTest, EverySectionRejectsUnknownKeys) {
  auto rejects = [](const std::string& ini) {
    try {
      ScenarioSpec::from_config(Config::parse_string(ini));
      return false;
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find("unknown key") != std::string::npos;
    }
  };
  EXPECT_TRUE(rejects("[scenario]\nsede = 1\n"));
  EXPECT_TRUE(rejects("[topology]\nnode = 4\n"));
  EXPECT_TRUE(rejects("[workload]\nproto = rmp\nrat = 100\n"));
  EXPECT_TRUE(rejects("[fault]\nkind = link_drop\ntargt = node0.link\n"));
  EXPECT_TRUE(rejects("[capture]\nelement = node0.link\nfile = x.pcap\nfromat = raw_ip\n"));
  EXPECT_TRUE(rejects("[profile]\nfoldd = out.folded\n"));
  // Sections added after PR 3, same contract:
  EXPECT_TRUE(rejects("[parallel]\nshard = 4\n"));
  EXPECT_TRUE(rejects("[routing]\npath = 2\n"));
  EXPECT_TRUE(rejects("[collectives]\nopp = barrier\n"));
  EXPECT_TRUE(rejects("[telemetry]\nintervall = 1ms\n"));
  EXPECT_TRUE(rejects("[tracing]\nsampel = 0.5\n"));
  EXPECT_TRUE(rejects("[sessions]\nchanels = 100\n"));
}

// A misspelled section header, or a key above the first header, must fail
// too: otherwise the whole section, or the key, is dropped without a word.
TEST(ConfigTest, UnknownSectionThrowsNamingIt) {
  try {
    ScenarioSpec::from_config(Config::parse_string("[tracng]\nenabled = true\n"));
    FAIL() << "[tracng] was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[tracng]"), std::string::npos) << e.what();
  }
}

TEST(ConfigTest, KeyBeforeFirstSectionThrowsNamingIt) {
  try {
    ScenarioSpec::from_config(Config::parse_string("seed = 5\n[scenario]\nname = x\n"));
    FAIL() << "a key above the first header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos) << e.what();
  }
}

// Only [workload], [fault] and [capture] repeat; a second copy of any
// other section would otherwise be ignored after the first.
TEST(ConfigTest, RepeatedSingleSectionThrowsNamingIt) {
  try {
    ScenarioSpec::from_config(Config::parse_string(
        "[scenario]\nname = first\nseed = 1\n[scenario]\nname = second\nseed = 7\n"));
    FAIL() << "a second [scenario] was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[scenario]"), std::string::npos) << e.what();
  }
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string(
                   "[telemetry]\nenabled = true\n[workload]\nproto = rmp\n[telemetry]\n"
                   "interval = 5ms\n")),
               std::runtime_error);
}

// A number the member cannot hold throws, naming its section and key,
// instead of wrapping, overflowing or reaching the simulator as nan.
TEST(ConfigTest, NumbersThatDoNotFitThrowNamingTheKey) {
  auto rejects = [](const std::string& ini, const std::string& section, const std::string& key) {
    try {
      ScenarioSpec::from_config(Config::parse_string(ini));
      ADD_FAILURE() << "accepted: " << ini;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("[" + section + "]"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
  };
  rejects("[workload]\nproto = rmp\nmode = open\nrate = nan\n", "workload", "rate");
  rejects("[workload]\nproto = rmp\nrate = inf\n", "workload", "rate");
  rejects("[scenario]\nduration = -5ms\n", "scenario", "duration");
  rejects("[scenario]\nduration = 1e30s\n", "scenario", "duration");
  rejects("[scenario]\nduration = nan\n", "scenario", "duration");
  rejects("[scenario]\nseed = 99999999999999999999\n", "scenario", "seed");
  rejects("[scenario]\nseed = -1\n", "scenario", "seed");
  rejects("[topology]\nnodes = 4294967300\n", "topology", "nodes");
  rejects("[workload]\nproto = rmp\nusers = 2147483648\n", "workload", "users");
  rejects("[workload]\nproto = rmp\nsize = 4294967360\n", "workload", "size");
}

// Every bounded key: the value at the edge of its range binds, and the value
// just past it throws, naming the section and the key. The last cases are
// [sessions]'s two rules between keys.
TEST(ConfigTest, EveryBoundIsEnforced) {
  struct Case {
    const char* section;
    const char* key;
    const char* edge;
    const char* past;
    const char* context = "";  // other keys of the section
  };
  const Case cases[] = {
      {"topology", "trunk_propagation", "1ns", "0ns"},
      {"parallel", "shards", "1", "0"},
      {"collectives", "iterations", "0", "-1"},
      {"collectives", "timeout", "1ns", "0ns"},
      {"collectives", "retransmit", "1ns", "0ns"},
      {"sessions", "trunks", "1", "0"},
      {"sessions", "channels", "1", "0"},
      {"sessions", "stride", "1", "0"},
      {"sessions", "rate", "0", "-0.001"},
      {"sessions", "size", "16", "15"},
      {"sessions", "size", "60000", "60001", "max_batch = 70000\n"},
      {"sessions", "initial_credit", "1", "0"},
      {"sessions", "send_window", "1", "0"},
      {"sessions", "max_channels", "1", "0"},
      {"sessions", "aggregation", "0ns", "-1ns"},
      {"sessions", "fail_timeout", "1ns", "0ns"},
      {"sessions", "churn_rate", "0", "-0.001"},
      {"sessions", "stall_channels", "0", "-1"},
      {"sessions", "probe_channels", "0", "-1"},
      {"telemetry", "interval", "1ns", "0ns"},
      {"telemetry", "max_samples", "1", "0"},
      {"tracing", "sample", "0", "-0.001"},
      {"tracing", "sample", "1", "1.001"},
      {"tracing", "top_k", "0", "-1"},
      {"tracing", "max_traces", "0", "-1"},
      {"sessions", "size", "4086", "4087", "max_batch = 4096\n"},  // a 10-byte frame header
      {"sessions", "probe_channels", "10", "11", "channels = 10\n"},
      // session::SessionConfig holds these four in 32 bits.
      {"sessions", "initial_credit", "4294967295", "4294967296"},
      {"sessions", "send_window", "4294967295", "4294967296"},
      {"sessions", "max_batch", "4294967295", "4294967306"},
      {"sessions", "max_channels", "4294967295", "4294967296"},
  };
  for (const Case& c : cases) {
    auto ini = [&c](const char* value) {
      return "[" + std::string(c.section) + "]\n" + c.context + c.key + " = " + value + "\n";
    };
    EXPECT_NO_THROW(ScenarioSpec::from_config(Config::parse_string(ini(c.edge)))) << ini(c.edge);
    try {
      ScenarioSpec::from_config(Config::parse_string(ini(c.past)));
      ADD_FAILURE() << "accepted: " << ini(c.past);
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("[" + std::string(c.section) + "]"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + std::string(c.key) + "'"), std::string::npos) << what;
    }
  }
}

// A spec built in code passes every section's rows when the Scenario is
// built from it, as an INI file's sections do when they bind.
TEST(ConfigTest, SpecsBuiltInCodeMeetTheSameBounds) {
  ScenarioSpec coll;
  coll.topology.nodes = 2;
  coll.collectives.enabled = true;
  coll.collectives.timeout = 0;
  EXPECT_THROW(Scenario sc(std::move(coll)), std::runtime_error);
  ScenarioSpec sess;
  sess.topology.nodes = 2;
  sess.sessions.enabled = true;
  sess.sessions.probe_channels = sess.sessions.channels + 1;
  EXPECT_THROW(Scenario sc(std::move(sess)), std::runtime_error);
  // A zero sample interval would never step run()'s clock to the end.
  ScenarioSpec telemetry;
  telemetry.topology.nodes = 2;
  telemetry.duration = sim::msec(5);
  telemetry.telemetry.enabled = true;
  telemetry.telemetry.interval = 0;
  EXPECT_THROW(Scenario sc(std::move(telemetry)), std::runtime_error);
  auto fat_tree = [] {
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::FatTree;
    spec.topology.nodes = 8;
    spec.topology.hub_ports = 8;
    spec.tracing.artifact = "unused-tail.json";
    return spec;
  };
  ScenarioSpec trunk = fat_tree();
  trunk.topology.trunk_propagation = 0;
  EXPECT_THROW(Scenario sc(std::move(trunk)), std::runtime_error);
  ScenarioSpec sample = fat_tree();
  sample.tracing.enabled = true;
  sample.tracing.sample = 2;
  EXPECT_THROW(Scenario sc(std::move(sample)), std::runtime_error);
  ScenarioSpec top_k = fat_tree();
  top_k.tracing.enabled = true;
  top_k.tracing.top_k = -1;
  EXPECT_THROW(Scenario sc(std::move(top_k)), std::runtime_error);
}

// Disabled sections still validate their values — a typo'd *value* must not
// hide behind enabled=false.
TEST(ConfigTest, DisabledSectionsStillValidateValues) {
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[collectives]\nop = gather\n")),
      std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[sessions]\ntrunks = 0\n")),
               std::runtime_error);
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[sessions]\nmax_channels = 0\n")),
      std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[sessions]\nsize = 4\n")),
               std::runtime_error);
}

// Checks that are more than a plain key-to-member bind.
TEST(ConfigTest, FaultNeedsKind) {
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[fault]\ntarget = node0.link\nat = 1ms\n")),
      std::invalid_argument);
}

TEST(ConfigTest, CaptureNeedsElementAndFile) {
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[capture]\nfile = x.pcap\n")),
               std::runtime_error);
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[capture]\nelement = node0.link\n")),
      std::runtime_error);
}

TEST(ConfigTest, UnnamedWorkloadDefaultsFollowItsIndex) {
  ScenarioSpec spec = ScenarioSpec::from_config(Config::parse_string(
      "[workload]\nname = a\n[workload]\nname = b\n[workload]\nproto = rmp\n"));
  ASSERT_EQ(spec.workloads.size(), 3u);
  EXPECT_EQ(spec.workloads[2].name, "wl2");
  EXPECT_EQ(spec.workloads[2].port, 7032);
}

TEST(ConfigTest, WorkloadSizeSetsBothBounds) {
  ScenarioSpec spec =
      ScenarioSpec::from_config(Config::parse_string("[workload]\nsize = 300\n"));
  EXPECT_EQ(spec.workloads.at(0).size_min, 300u);
  EXPECT_EQ(spec.workloads.at(0).size_max, 300u);
  // An explicit bound overrides `size` on its side only.
  spec = ScenarioSpec::from_config(
      Config::parse_string("[workload]\nsize = 300\nsize_max = 400\n"));
  EXPECT_EQ(spec.workloads.at(0).size_min, 300u);
  EXPECT_EQ(spec.workloads.at(0).size_max, 400u);
}

// The reference INI block in docs/SCENARIOS.md (the first ```ini fence)
// names every key from_config accepts, under that key's own section header.
// Commented-out keys ("# seed = 1") count as documented.
TEST(ConfigTest, ReferenceBlockDocumentsEveryKey) {
  std::ifstream in(std::string(NECTAR_SOURCE_DIR) + "/docs/SCENARIOS.md");
  ASSERT_TRUE(in) << "cannot read docs/SCENARIOS.md";
  std::map<std::string, std::string> text;  // section -> its lines in the block
  std::string line, section;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (!in_block) {
      in_block = line == "```ini";
    } else if (line == "```") {
      break;
    } else if (line.rfind('[', 0) == 0) {
      section = line.substr(1, line.find(']') - 1);
    } else {
      text[section] += line + "\n";
    }
  }
  for (const auto& [name, keys] : ScenarioSpec::vocabulary()) {
    ASSERT_TRUE(text.count(name)) << "no [" << name << "] in the reference block";
    for (const std::string& key : keys) {
      EXPECT_TRUE(std::regex_search(text[name], std::regex("(^|[^A-Za-z_])" + key + " *=")))
          << "[" << name << "] " << key << " is not documented";
    }
  }
}

}  // namespace
}  // namespace nectar::scenario
