// Figure 7 (paper §6.2): CAB-to-CAB throughput vs message size (16 B .. 8 KB)
// for TCP/IP, TCP without checksums, and the Nectar reliable message protocol
// (RMP). Paper: per-packet overhead dominates below ~256 B (throughput
// doubles with message size); RMP reaches ~90 Mbit/s at 8 KB; the TCP-vs-RMP
// gap is "mostly due to the cost of doing TCP checksums in software"; TCP
// without checksums is almost as fast as RMP.

#include "measure.hpp"

namespace nectar::bench {
namespace {

double tcp_throughput(std::size_t size, bool checksum) {
  proto::TcpConfig cfg;
  cfg.software_checksum = checksum;
  net::NectarSystem sys(2, false, cfg);
  Stream s;
  cab_tcp_stream(sys, s, size, fig7_messages(size));
  sys.engine().run();
  return s.mbit();
}

double rmp_throughput(std::size_t size) {
  net::NectarSystem sys(2);
  Stream s;
  cab_rmp_stream(sys, s, size);
  sys.engine().run();
  return s.mbit();
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv);
  print_header("Figure 7: CAB-to-CAB throughput vs message size (Mbit/s)");

  nectar::obs::RunReport report("fig7-cab-throughput");
  std::printf("%8s %10s %14s %10s %10s\n", "size", "TCP/IP", "TCP w/o cksum", "RMP",
              "RMP x2?");
  double prev_rmp = 0;
  for (std::size_t size : {16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
    double tcp = tcp_throughput(size, true);
    double tcp_nock = tcp_throughput(size, false);
    double rmp = rmp_throughput(size);
    std::printf("%8zu %10.2f %14.2f %10.2f %9.2fx\n", size, tcp, tcp_nock, rmp,
                prev_rmp > 0 ? rmp / prev_rmp : 0.0);
    prev_rmp = rmp;
    std::string sz = std::to_string(size);
    report.add("tcp_" + sz, tcp, "Mbit/s");
    report.add("tcp_nocksum_" + sz, tcp_nock, "Mbit/s");
    report.add("rmp_" + sz, rmp, "Mbit/s");
  }
  std::printf(
      "\nShape checks (paper): RMP ~90 Mbit/s at 8 KB; TCP w/o checksum almost\n"
      "matches RMP; TCP/IP trails because of software checksums; below 256 B\n"
      "throughput roughly doubles with message size (per-packet overhead).\n");
  finish_report(opts, report);
  return 0;
}
