// Virtual-channel session layer at scale (docs/SESSIONS.md): the paper's
// "thousands of mailboxes per CAB" claim stretched to a full fabric. Two
// phases, both pure functions of the seed, committed as BENCH_sessions.json:
//
//   scale  8-node fat-tree, 10'500 logical channels per node multiplexed
//          over 6 RMP trunk connections (admission caps each trunk at 1'700
//          inbound channels, so ~300 opens per node are refused loudly). A
//          churn storm closes/reopens channels mid-traffic, then a CAB crash
//          at 220ms kills node 1: every trunk toward it must fail its
//          channels with attribution instead of hanging. The bench exits
//          non-zero unless >= 10'000 channels per node actually opened,
//          admission refused some, the crash surfaced as trunk failures,
//          trunks batched more than 2 frames per message, and delivery
//          stayed lossless modulo the crash window.
//
//   hol    4-node star, both probe channels sharing ONE trunk. Channel 0's
//          inbound credit is frozen for 60ms mid-run; per-channel flow
//          control must confine the stall to channel 0 — the sibling's p99
//          has to stay within 25% of a stall-free baseline run, on the same
//          trunk the victim is wedged on.
//
// Everything reported is simulated time only, so the committed JSON must
// regenerate byte-for-byte (ctest golden_sessions).

#include <cmath>
#include <map>

#include "common.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"
#include "scenario/sessions.hpp"

namespace nectar::bench {
namespace {

constexpr const char* kScaleConfig = R"(
[scenario]
name = sessions-scale
seed = 1990
duration = 300ms

[topology]
kind = fat_tree
nodes = 8
hub_ports = 16
spines = 4

[sessions]
enabled = true
trunks = 6
channels = 10500
max_channels = 1700
rate = 2000
size = 64
warmup = 60ms
aggregation = 1ms
churn_rate = 1000
churn_start = 120ms
churn_duration = 60ms
fail_timeout = 15ms

[fault]
kind = cab_crash
target = node1.cab
at = 220ms
)";

constexpr const char* kHolConfig = R"(
[scenario]
name = sessions-hol
seed = 1990
duration = 250ms

[topology]
kind = star
nodes = 4

[sessions]
enabled = true
trunks = 1
channels = 8
rate = 1200
size = 32
warmup = 20ms
initial_credit = 2
probe_channels = 2
)";

/// RunReport rows as a name -> (value, unit) map, via the JSON the report
/// already serializes (RunReport keeps its rows private by design).
std::map<std::string, std::pair<double, std::string>> rows_of(const obs::RunReport& rep) {
  std::map<std::string, std::pair<double, std::string>> out;
  obs::json::Value doc = obs::json::Value::parse(rep.to_json_string());
  const obs::json::Value* results = doc.find("results");
  if (results != nullptr) {
    for (std::size_t i = 0; i < results->size(); ++i) {
      const obs::json::Value& r = results->at(i);
      out[r.find("name")->as_string()] = {r.find("value")->as_double(),
                                          r.find("unit")->as_string()};
    }
  }
  return out;
}

double need(const std::map<std::string, std::pair<double, std::string>>& rows,
            const std::string& name, int* rc) {
  auto it = rows.find(name);
  if (it == rows.end()) {
    std::fprintf(stderr, "error: scenario report lacks row %s\n", name.c_str());
    *rc = 1;
    return 0.0;
  }
  return it->second.first;
}

int run_scale(const BenchOptions&, obs::RunReport& report) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::from_config(scenario::Config::parse_string(kScaleConfig));
  const int nodes = spec.topology.nodes;
  const int trunks = spec.sessions.trunks;
  scenario::Scenario sc(spec);
  sc.run();
  auto rows = rows_of(sc.report());

  int rc = 0;
  double opened = need(rows, "session.opened", &rc);
  double refused = need(rows, "session.refused", &rc);
  double failed = need(rows, "session.failed", &rc);
  double trunk_failures = need(rows, "session.trunk_failures", &rc);
  double proto_errors = need(rows, "session.proto_errors", &rc);
  double sent = need(rows, "session.data.sent", &rc);
  double delivered = need(rows, "session.data.delivered", &rc);
  double shed = need(rows, "session.data.shed", &rc);
  double churn = need(rows, "session.churn.cycles", &rc);
  double frames_per_msg = need(rows, "session.trunk.frames_per_msg", &rc);
  double per_node = opened / nodes;

  std::printf("%7.0f channels opened (%c%.0f/node over %d trunks), %.0f refused\n", opened,
              per_node >= 10000 ? ' ' : '!', per_node, trunks, refused);
  std::printf("%7.0f msgs sent, %.0f delivered, %.0f shed; %.1f frames/trunk msg\n", sent,
              delivered, shed, frames_per_msg);
  std::printf("%7.0f churn cycles; crash: %.0f trunks failed, %.0f channels failed\n", churn,
              trunk_failures, failed);

  // The headline claims, gated:
  if (per_node < 10000) {
    std::fprintf(stderr, "error: only %.0f channels per node opened (want >= 10000)\n",
                 per_node);
    rc = 1;
  }
  if (trunks > 8) {
    std::fprintf(stderr, "error: %d trunks per node (the claim is <= 8)\n", trunks);
    rc = 1;
  }
  if (refused <= 0) {
    std::fprintf(stderr, "error: admission control never refused an open\n");
    rc = 1;
  }
  if (trunk_failures <= 0 || failed <= 0) {
    std::fprintf(stderr, "error: the CAB crash surfaced no trunk/channel failures\n");
    rc = 1;
  }
  if (proto_errors != 0) {
    std::fprintf(stderr, "error: %.0f protocol errors under churn\n", proto_errors);
    rc = 1;
  }
  if (churn <= 0) {
    std::fprintf(stderr, "error: the churn storm never cycled a channel\n");
    rc = 1;
  }
  // Trunks exist to batch: a trunk message must carry several channel frames.
  if (frames_per_msg <= 2.0) {
    std::fprintf(stderr, "error: %.2f frames per trunk message (want > 2)\n", frames_per_msg);
    rc = 1;
  }
  // Backpressure is shed, never loss: only the crash window may strand sent
  // messages (in flight toward, or out of, the dead node).
  if (delivered < 0.9 * sent) {
    std::fprintf(stderr, "error: delivered %.0f of %.0f sent (want >= 90%%)\n", delivered,
                 sent);
    rc = 1;
  }

  report.add("sessions.scale.nodes", nodes, "count");
  report.add("sessions.scale.trunks_per_node", trunks, "count");
  report.add("sessions.scale.channels_per_node", per_node, "count");
  for (const char* k :
       {"session.opened", "session.refused", "session.closed", "session.failed",
        "session.trunk_failures", "session.credit_stalls", "session.gen_mismatch_drops",
        "session.proto_errors", "session.frames.sent", "session.frames.delivered",
        "session.trunk.frames_per_msg", "session.data.sent", "session.data.delivered",
        "session.data.shed", "session.data.p50", "session.data.p99", "session.open.p99",
        "session.churn.cycles"}) {
    auto it = rows.find(k);
    if (it == rows.end()) continue;
    report.add("sessions.scale." + std::string(k).substr(8), it->second.first,
               it->second.second);
  }
  return rc;
}

int run_hol(const BenchOptions&, obs::RunReport& report) {
  auto run_once = [&](bool stalled) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::from_config(scenario::Config::parse_string(kHolConfig));
    if (stalled) {
      spec.sessions.stall_at = sim::msec(80);
      spec.sessions.stall_duration = sim::msec(60);
      spec.sessions.stall_channels = 1;
    }
    scenario::Scenario sc(spec);
    sc.run();
    return rows_of(sc.report());
  };
  auto clean = run_once(false);
  auto stall = run_once(true);

  int rc = 0;
  double baseline_p99 = need(clean, "session.probe1.p99", &rc);
  double victim_p99 = need(stall, "session.probe0.p99", &rc);
  double sibling_p99 = need(stall, "session.probe1.p99", &rc);
  double stalls = need(stall, "session.credit_stalls", &rc);
  double ratio = baseline_p99 > 0 ? sibling_p99 / baseline_p99 : 0.0;

  std::printf("victim p99 %.0fus under a 60ms freeze; sibling p99 %.1fus vs %.1fus "
              "stall-free (%.2fx), same trunk\n",
              victim_p99, sibling_p99, baseline_p99, ratio);

  if (stalls <= 0) {
    std::fprintf(stderr, "error: the credit freeze never stalled the victim\n");
    rc = 1;
  }
  if (victim_p99 < 10'000.0) {
    std::fprintf(stderr, "error: victim p99 %.0fus does not reflect the 60ms stall\n",
                 victim_p99);
    rc = 1;
  }
  if (ratio < 1.0 / 1.25 || ratio > 1.25) {
    std::fprintf(stderr,
                 "error: sibling p99 moved %.2fx under the stall (want within 1.25x) — "
                 "head-of-line blocking leaked across channels\n",
                 ratio);
    rc = 1;
  }

  report.add("sessions.hol.victim_p99_us", victim_p99, "us");
  report.add("sessions.hol.sibling_p99_us", sibling_p99, "us");
  report.add("sessions.hol.baseline_p99_us", baseline_p99, "us");
  report.add("sessions.hol.sibling_over_baseline", ratio, "ratio");
  report.add("sessions.hol.credit_stalls", stalls, "count");
  return rc;
}

int run(const BenchOptions& options) {
  print_header("virtual-channel session layer: 10k channels/node, no cross-channel HOL");

  obs::RunReport report("sessions");
  report.param("scale_topology", "fat_tree");
  report.param("scale_nodes", 8);
  report.param("scale_channels", 10500);
  report.param("scale_trunks", 6);
  report.param("hol_topology", "star");
  report.param("hol_trunks", 1);

  std::printf("--- scale: churn storm + CAB crash over 6 trunks/node ---\n");
  int rc = run_scale(options, report);
  std::printf("\n--- head-of-line isolation: frozen channel on a shared trunk ---\n");
  rc |= run_hol(options, report);

  finish_report(options, report);
  return rc;
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  return nectar::bench::run(nectar::bench::parse_options(argc, argv));
}
