// Layer cost attribution (paper §6.2): where the CAB CPU's cycles go, per
// protocol layer, measured with the cycle-attribution profiler
// (obs::Profiler + obs::CostScope instrumentation across proto/ and core/).
//
// Runs a bulk UDP and a bulk TCP transfer at a small and a large message
// size, then reports the per-domain busy-time split. The large-message
// columns reproduce the paper's central claim: once messages are big, the
// per-byte work — software checksums plus data copies (reassembly) — is
// what dominates, while the fixed per-packet costs (mailbox ops, datalink,
// header processing) dominate small messages. "Mostly due to the cost of
// doing TCP checksums in software" (§6.2).
//
// The profiler charges no simulated time, so these numbers are the same
// cycles every other bench measures — just attributed.

#include <map>

#include "measure.hpp"

namespace nectar::bench {
namespace {

constexpr int kPort = 9000;

// Ethernet-class wire MTU (the Nectar default is 9 KB, which would let an
// 8 KB datagram through whole): large UDP messages must fragment so the
// reassembly copy — the other per-byte cost besides checksums — shows up.
constexpr std::size_t kMtu = 1500;

struct PhaseResult {
  std::map<std::string, sim::SimTime> domains;  // "tcp/checksum" -> ns
  sim::SimTime total = 0;                       // total attributed ns
  std::string folded;                           // full folded-stack text
};

PhaseResult finish_phase(net::NectarSystem& sys) {
  PhaseResult r;
  r.domains = sys.profiler().domain_totals();
  r.total = sys.profiler().attributed_ns();
  r.folded = sys.profiler().folded();
  return r;
}

PhaseResult udp_phase(std::size_t size, int n) {
  net::NectarSystem sys(2, false, {}, kMtu);
  sys.profiler().set_enabled(true);
  core::Mailbox& rx = sys.runtime(1).create_mailbox("sink");
  sys.stack(1).udp.bind(kPort, &rx);
  sys.runtime(1).fork_app("server", [&] {
    for (;;) {
      core::Message m = rx.begin_get();
      rx.end_get(m);
    }
  });
  sys.runtime(0).fork_app("client", [&] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    for (int i = 0; i < n; ++i) {
      core::Message m = scratch.begin_put(static_cast<std::uint32_t>(size));
      sys.stack(0).udp.send(kPort, proto::ip_of_node(1), kPort, m);
      // Pace the offered load so the receiver never sheds: this bench
      // attributes cycles, it does not measure saturation throughput.
      sys.runtime(0).cpu().sleep_for(sim::usec(500));
    }
  });
  sys.engine().run();
  return finish_phase(sys);
}

PhaseResult tcp_phase(std::size_t size, int n) {
  proto::TcpConfig cfg;
  cfg.software_checksum = true;
  net::NectarSystem sys(2, false, cfg, kMtu);
  sys.profiler().set_enabled(true);
  Stream s;
  cab_tcp_stream(sys, s, size, n);
  sys.engine().run();
  return finish_phase(sys);
}

/// Per-byte work: every checksum pass plus every data-copy/reassembly
/// domain. Everything else in the stack is per-packet.
bool is_byte_cost(const std::string& domain) {
  return domain.find("checksum") != std::string::npos ||
         domain.find("copy") != std::string::npos ||
         domain.find("reassembly") != std::string::npos;
}

void report_phase(obs::RunReport& report, const char* name, const PhaseResult& r) {
  sim::SimTime byte_cost = 0;
  for (const auto& [domain, ns] : r.domains) {
    report.add(std::string(name) + "." + domain, static_cast<double>(ns), "ns");
    if (is_byte_cost(domain)) byte_cost += ns;
  }
  double share = r.total > 0 ? static_cast<double>(byte_cost) / static_cast<double>(r.total) : 0.0;
  report.add(std::string(name) + ".total", static_cast<double>(r.total), "ns");
  report.add(std::string(name) + ".checksum_copy_share", share, "ratio");
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("\n--- %s (total %.1f us attributed) ---\n", name,
              static_cast<double>(r.total) / 1000.0);
  sim::SimTime byte_cost = 0;
  for (const auto& [domain, ns] : r.domains) {
    std::printf("  %-24s %10.1f us  (%4.1f%%)\n", domain.c_str(),
                static_cast<double>(ns) / 1000.0,
                100.0 * static_cast<double>(ns) / static_cast<double>(r.total));
    if (is_byte_cost(domain)) byte_cost += ns;
  }
  std::printf("  %-24s %10.1f us  (%4.1f%%)\n", "[checksum+copy]",
              static_cast<double>(byte_cost) / 1000.0,
              100.0 * static_cast<double>(byte_cost) / static_cast<double>(r.total));
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv, kProfile);
  print_header("Layer cost attribution: per-domain CPU cycles, UDP vs TCP (paper §6.2)");

  constexpr std::size_t kSmall = 64;
  constexpr std::size_t kLarge = 8192;  // fragments at kMtu into 6 IP fragments
  constexpr int kMessages = 32;

  PhaseResult udp_small = udp_phase(kSmall, kMessages);
  PhaseResult udp_large = udp_phase(kLarge, kMessages);
  PhaseResult tcp_small = tcp_phase(kSmall, kMessages);
  PhaseResult tcp_large = tcp_phase(kLarge, kMessages);

  print_phase("udp 64B", udp_small);
  print_phase("udp 8KB", udp_large);
  print_phase("tcp 64B", tcp_small);
  print_phase("tcp 8KB", tcp_large);

  std::printf(
      "\nFor 8 KB messages the per-byte domains (software checksum, reassembly\n"
      "copy) dominate the attributed cycles; at 64 bytes the fixed per-packet\n"
      "machinery (mailbox, datalink, header processing) does — the shape of\n"
      "the paper's §6.2 cost argument.\n");

  if (!opts.profile_path.empty()) {
    // --profile dumps the flamegraph-worthy phase: bulk TCP, large messages.
    std::FILE* f = std::fopen(opts.profile_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write profile to %s\n", opts.profile_path.c_str());
      return 1;
    }
    std::fwrite(tcp_large.folded.data(), 1, tcp_large.folded.size(), f);
    std::fclose(f);
    std::printf("wrote %s (tcp 8KB phase)\n", opts.profile_path.c_str());
  }

  nectar::obs::RunReport report("layercost");
  report.param("messages", static_cast<std::int64_t>(kMessages));
  report.param("small_bytes", static_cast<std::int64_t>(kSmall));
  report.param("large_bytes", static_cast<std::int64_t>(kLarge));
  report_phase(report, "udp_small", udp_small);
  report_phase(report, "udp_large", udp_large);
  report_phase(report, "tcp_small", tcp_small);
  report_phase(report, "tcp_large", tcp_large);
  finish_report(opts, report);
  return 0;
}
