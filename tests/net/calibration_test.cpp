// Calibration guards: the paper-reproduction numbers in EXPERIMENTS.md are
// regression-tested here with tolerance bands. If a change to the runtime,
// protocols, or cost model moves a headline result out of its band, this
// file fails before the benchmarks quietly drift away from the paper.
//
// Each guard calls the measurement kernel (bench/measure.hpp) with the
// arguments its bench passes, so the value it bands is the committed one in
// BENCH_table1.json or BENCH_fig7/8.json.

#include <gtest/gtest.h>

#include "measure.hpp"

namespace nectar::bench {
namespace {

// --- CAB-CAB datagram RTT: paper 179 us, committed 165.8 ---------------------------

TEST(Calibration, CabToCabDatagramRtt) {
  net::NectarSystem sys(2);
  std::vector<sim::SimTime> rtts;
  cab_round_trips(sys, Protocol::Datagram, rtts);
  sys.engine().run();
  const double rtt = median_usec(rtts);
  // Paper: 179 us. Band: 140-210 us.
  EXPECT_GE(rtt, 140.0);
  EXPECT_LE(rtt, 210.0);
}

// --- host-host datagram RTT: paper 325 us, committed 342.0 -------------------------

TEST(Calibration, HostToHostDatagramRtt) {
  HostPair p;
  std::vector<sim::SimTime> rtts;
  host_round_trips(p, Protocol::Datagram, rtts);
  p.sys.net().run_until(sim::sec(5));
  const double rtt = median_usec(rtts);
  // Paper: 325 us. Band: 280-400 us.
  EXPECT_GE(rtt, 280.0);
  EXPECT_LE(rtt, 400.0);
}

// --- RMP CAB-CAB throughput at 8 KB: paper ~90, committed 86.76 --------------------

TEST(Calibration, RmpThroughputAt8K) {
  net::NectarSystem sys(2);
  Stream s;
  cab_rmp_stream(sys, s, 8192);
  sys.engine().run();
  const double mbit = s.mbit();
  // Paper: ~90 Mbit/s of 100. Band: 80-95.
  EXPECT_GE(mbit, 80.0);
  EXPECT_LE(mbit, 95.0);
}

// --- host-host RMP throughput at 8 KB: paper ~28 (VME-capped), committed 28.86 ------

TEST(Calibration, HostRmpThroughputIsVmeCapped) {
  HostPair p;
  Stream s;
  host_rmp_stream(p, s, 8192);
  p.sys.net().run_until(sim::sec(60));
  const double mbit = s.mbit();
  // Paper: ~28 Mbit/s against the ~30 Mbit/s VME. Band: 24-30.
  EXPECT_GE(mbit, 24.0);
  EXPECT_LE(mbit, 30.0);
}

// --- the TCP-vs-RMP checksum gap (Fig. 7's central claim) ----------------------------

TEST(Calibration, ChecksumGapSeparatesTcpFromRmp) {
  auto tcp_8k = [](bool cksum) {
    proto::TcpConfig cfg;
    cfg.software_checksum = cksum;
    net::NectarSystem sys(2, false, cfg);
    Stream s;
    cab_tcp_stream(sys, s, 8192, fig7_messages(8192));
    sys.engine().run();
    return s.mbit();
  };
  double with = tcp_8k(true);
  double without = tcp_8k(false);
  // Committed: 45.19 vs 98.95. The gap factor stays near 2x.
  EXPECT_GE(with, 38.0);
  EXPECT_LE(with, 55.0);
  EXPECT_GE(without / with, 1.7);
}

}  // namespace
}  // namespace nectar::bench
