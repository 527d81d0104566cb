// Ablation (extension; paper §7's "further performance evaluation and
// tuning"): Van Jacobson congestion control on the CAB's TCP, measured on a
// quiet LAN and under injected loss. On the paper's uncongested Nectar the
// 1990 stack never needed it — and the quiet-LAN row shows why (slow start
// costs a little ramp time and nothing else). Under loss, fast retransmit
// repairs in one RTT what an RTO stall repairs in milliseconds.

#include "measure.hpp"

namespace nectar::bench {
namespace {

struct Run {
  double mbit;
  std::uint64_t retx;
  std::uint64_t fast_retx;
};

/// 400 KB in 4 KB messages through a 64 KB send window.
Run transfer(bool cc, double drop, std::size_t mtu) {
  proto::TcpConfig cfg;
  cfg.congestion_control = cc;
  net::NectarSystem sys(2, false, cfg, mtu);
  if (drop > 0) sys.net().cab(0).out_link().set_drop_rate(drop, 20240707);
  Stream s;
  cab_tcp_stream(sys, s, 4096, 100, 64 * 1024);
  sys.net().run_until(sim::sec(120));
  Run r{s.mbit(), 0, 0};
  if (s.conn != nullptr) {
    r.retx = s.conn->retransmissions();
    r.fast_retx = s.conn->fast_retransmits();
  }
  return r;
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv);
  print_header("Ablation: TCP congestion control extension (off in the 1990 stack)");

  nectar::obs::RunReport report("ablation-congestion");
  std::printf("%22s %12s %12s %8s %10s\n", "scenario", "plain 1990", "with CC", "retx",
              "fast-retx");
  struct Case {
    const char* name;
    const char* slug;
    double drop;
    std::size_t mtu;
  };
  for (const Case& c : {Case{"quiet LAN, 9K MTU", "quiet", 0.0, 9216},
                        Case{"2% loss, 1500 MTU", "loss2", 0.02, 1500},
                        Case{"5% loss, 1500 MTU", "loss5", 0.05, 1500}}) {
    Run plain = transfer(false, c.drop, c.mtu);
    Run cc = transfer(true, c.drop, c.mtu);
    std::printf("%22s %9.2f Mb %9.2f Mb %8llu %10llu\n", c.name, plain.mbit, cc.mbit,
                static_cast<unsigned long long>(cc.retx),
                static_cast<unsigned long long>(cc.fast_retx));
    std::string s = c.slug;
    report.add("plain_" + s, plain.mbit, "Mbit/s");
    report.add("cc_" + s, cc.mbit, "Mbit/s");
    report.add("cc_retx_" + s, static_cast<double>(cc.retx), "count");
    report.add("cc_fast_retx_" + s, static_cast<double>(cc.fast_retx), "count");
  }
  std::printf(
      "\nOn the quiet LAN the extension changes nothing — the paper's stack was\n"
      "right not to need it. At light loss CC's window-halving costs a little\n"
      "throughput the bare stack keeps; at heavier loss the bare stack\n"
      "collapses into serial RTO stalls while fast retransmit keeps the pipe\n"
      "flowing (an order of magnitude apart at 5%%).\n");
  finish_report(opts, report);
  return 0;
}
