// Table 1 (paper §6.1): round-trip latency in microseconds for the Nectar
// datagram, reliable message (RMP), and request-response protocols, plus
// UDP — between two host processes (Host-Host) and between two CAB threads
// (CAB-CAB). The paper reports datagram at 325 us host-host / 179 us CAB-CAB
// and an application-level RPC under 500 us.

#include "measure.hpp"

namespace nectar::bench {
namespace {

double cab_rtt(Protocol protocol) {
  net::NectarSystem sys(2);
  std::vector<sim::SimTime> rtts;
  cab_round_trips(sys, protocol, rtts);
  sys.engine().run();
  return median_usec(rtts);
}

double host_rtt(Protocol protocol, const std::string& trace_path = "") {
  HostPair p;
  if (!trace_path.empty()) p.sys.tracer().set_enabled(true);
  std::vector<sim::SimTime> rtts;
  host_round_trips(p, protocol, rtts);
  p.sys.net().run_until(sim::sec(5));
  finish_trace(trace_path, p.sys.tracer());
  return median_usec(rtts);
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv, kTrace);
  print_header("Table 1: round-trip latency (usec), 64-byte messages");

  struct Row {
    const char* name;
    const char* slug;
    double host_host;
    double cab_cab;
    const char* paper;
  };
  Row rows[] = {
      {"datagram", "datagram", host_rtt(Protocol::Datagram, opts.trace_path),
       cab_rtt(Protocol::Datagram), "325 / 179"},
      {"reliable message (RMP)", "rmp", host_rtt(Protocol::Rmp), cab_rtt(Protocol::Rmp),
       "n/a (between dg and rr)"},
      {"request-response (RPC)", "reqresp", host_rtt(Protocol::ReqResp),
       cab_rtt(Protocol::ReqResp), "< 500 (RPC, host-host)"},
      {"UDP", "udp", host_rtt(Protocol::Udp), cab_rtt(Protocol::Udp), "n/a (slowest row)"},
  };

  std::printf("%-26s %12s %12s    %s\n", "protocol", "Host-Host", "CAB-CAB", "paper (us)");
  for (const Row& r : rows) {
    std::printf("%-26s %12.1f %12.1f    %s\n", r.name, r.host_host, r.cab_cab, r.paper);
  }
  std::printf("\nShape checks: datagram is the fastest row; every Nectar-specific\n"
              "protocol beats UDP; the host-host RPC stays under 500 us.\n");

  nectar::obs::RunReport report("table1-latency");
  report.param("message_bytes", static_cast<std::int64_t>(kRttBytes));
  report.param("rounds", std::int64_t{kRounds});
  for (const Row& r : rows) {
    report.add(std::string(r.slug) + "_host_host_rtt", r.host_host, "us");
    report.add(std::string(r.slug) + "_cab_cab_rtt", r.cab_cab, "us");
  }
  finish_report(opts, report);
  return 0;
}
