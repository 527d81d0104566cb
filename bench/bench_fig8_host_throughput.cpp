// Figure 8 (paper §6.3): host-to-host throughput vs message size for TCP/IP
// and RMP through the protocol engine, plus the comparison points from the
// text: CAB-as-network-device mode (6.4 Mbit/s) and plain Ethernet
// (7.2 Mbit/s). Paper: the curves have the same shape as Fig. 7 "but they
// flatten earlier because the slow VME bus makes the transmission times more
// significant"; both protocols are limited by the ~30 Mbit/s VME bus, with
// TCP/IP peaking around 24 Mbit/s (RMP ~28).

#include "measure.hpp"

#include "host/ethernet.hpp"
#include "host/netdev.hpp"

namespace nectar::bench {
namespace {

/// One point of a Fig. 8 curve, measured by `kernel`.
double throughput(void (*kernel)(HostPair&, Stream&, std::size_t), std::size_t size) {
  HostPair p;
  Stream s;
  kernel(p, s, size);
  p.sys.net().run_until(sim::sec(60));
  return s.mbit();
}

/// §5.1/§6.3: CAB as a plain network device, protocols on the host.
double netdev_throughput() {
  HostPair p;
  host::NetDevice dev0(p.h0.nin, p.sys.net().datalink(0));
  host::NetDevice dev1(p.h1.nin, p.sys.net().datalink(1));
  const int n = 300;
  const std::size_t size = host::NetDevice::kMtu;
  sim::SimTime t0 = -1, t1 = -1;
  int got = 0;
  dev1.start_receiver([&](std::vector<std::uint8_t>) {
    if (t0 < 0) t0 = p.sys.engine().now();
    if (++got == n) t1 = p.sys.engine().now();
  });
  p.h0.host.run_process("send", [&] {
    auto data = pattern(size);
    for (int i = 0; i < n; ++i) dev0.send_packet(1, data);
  });
  p.sys.net().run_until(sim::sec(60));
  if (t1 <= t0 || t0 < 0) return 0;
  return mbit_per_sec(static_cast<std::uint64_t>(n - 1) * size, t1 - t0);
}

/// §6.3: the same hosts over their on-board Ethernet (no VME crossing).
double ethernet_throughput() {
  sim::Engine engine;
  host::Host ha(engine, "hostA"), hb(engine, "hostB");
  host::EthernetSegment ether(engine);
  auto& nic_a = ether.attach(ha);
  auto& nic_b = ether.attach(hb);
  const int n = 300;
  const std::size_t size = host::EthernetSegment::kMtu;
  sim::SimTime t0 = -1, t1 = -1;
  int got = 0;
  nic_b.start_receiver([&](std::vector<std::uint8_t>) {
    if (t0 < 0) t0 = engine.now();
    if (++got == n) t1 = engine.now();
  });
  ha.run_process("send", [&] {
    auto data = pattern(size);
    for (int i = 0; i < n; ++i) nic_a.send(1, data);
  });
  engine.run();
  if (t1 <= t0 || t0 < 0) return 0;
  return mbit_per_sec(static_cast<std::uint64_t>(n - 1) * size, t1 - t0);
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv);
  print_header("Figure 8: host-to-host throughput vs message size (Mbit/s)");

  nectar::obs::RunReport report("fig8-host-throughput");
  std::printf("%8s %10s %10s\n", "size", "TCP/IP", "RMP");
  for (std::size_t size : {16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
    double tcp = throughput(host_tcp_stream, size);
    double rmp = throughput(host_rmp_stream, size);
    std::printf("%8zu %10.2f %10.2f\n", size, tcp, rmp);
    std::string sz = std::to_string(size);
    report.add("tcp_" + sz, tcp, "Mbit/s");
    report.add("rmp_" + sz, rmp, "Mbit/s");
  }
  double netdev = netdev_throughput();
  double ether = ethernet_throughput();
  report.add("netdev_8192", netdev, "Mbit/s");
  report.add("ethernet_8192", ether, "Mbit/s");
  std::printf("\nComparison points (paper §6.3):\n");
  std::printf("  %-42s %6.2f Mbit/s   (paper: 6.4)\n", "CAB as network device (protocols on host)",
              netdev);
  std::printf("  %-42s %6.2f Mbit/s   (paper: 7.2)\n", "on-board Ethernet (bypasses VME)",
              ether);
  std::printf(
      "\nShape checks (paper): both curves flatten earlier than Fig. 7, capped\n"
      "by the ~30 Mbit/s VME bus; TCP/IP peaks around 24 Mbit/s, RMP ~28;\n"
      "netdev mode is ~4x slower than the protocol engine; Ethernet beats\n"
      "netdev mode because its interface bypasses the VME bus.\n");
  finish_report(opts, report);
  return 0;
}
