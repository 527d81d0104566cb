#pragma once

// One function per measurement of the paper's evaluation (§6): Table 1's
// round trips, Fig. 7's CAB-to-CAB streams and Fig. 8's host-to-host
// streams. The benches, examples/netperf and the calibration guards
// (tests/net/calibration_test.cpp) all call these, so a committed BENCH_*
// number and the band that guards it are measured by the same code.
//
// A kernel forks its threads on a system the caller built (TcpConfig, MTU,
// drop rate, profiler, tracer); the caller then runs the engine, and the
// threads fill in the caller's Stream or round-trip samples as they go. A
// host kernel runs the engine for 1 ms itself first, until its server
// process is up, and throws if it is not.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace nectar::bench {

/// Two hosts, each with its CAB on a VME bus: the seat of every host-to-host
/// measurement (Table 1's Host-Host column, Fig. 6, Fig. 8).
struct HostPair {
  net::NectarSystem sys{2, /*with_vme=*/true};
  host::HostNode h0{sys, 0};
  host::HostNode h1{sys, 1};
};

/// What a stream kernel measured: the receiver's window and the bytes it is
/// charged with.
struct Stream {
  sim::SimTime t0 = -1;
  sim::SimTime t1 = -1;
  std::uint64_t bytes = 0;
  proto::TcpConnection* conn = nullptr;  ///< a CAB TCP stream's sending end

  /// The window's length; 0 if the stream did not complete.
  sim::SimTime elapsed() const { return t1 > t0 && t0 >= 0 ? t1 - t0 : 0; }
  /// Throughput over the window in Mbit/s; 0 if the stream did not complete.
  double mbit() const { return elapsed() > 0 ? mbit_per_sec(bytes, elapsed()) : 0.0; }
};

/// Messages per point of Fig. 7 and of Fig. 8: enough for steady state
/// without hour-long event counts.
int fig7_messages(std::size_t size);
int fig8_messages(std::size_t size);

/// A TCP sender's pacing against CAB buffer memory: at most this many bytes
/// queued but unacked.
constexpr std::uint32_t kCabSendWindow = 128 * 1024;

/// Fig. 7's TCP curve: `n` messages of `size` bytes from an application
/// thread on CAB 0 to one on CAB 1, one send request per message (small
/// messages become small segments). The window opens at the first arrival
/// and is charged with every byte.
void cab_tcp_stream(net::NectarSystem& sys, Stream& s, std::size_t size, int n,
                    std::uint32_t window = kCabSendWindow);

/// Fig. 7's RMP curve: fig7_messages(size) messages between system threads,
/// at most 16 queued. The window opens 80 µs (about the first message's own
/// cost) before the first arrival and is charged with every byte.
void cab_rmp_stream(net::NectarSystem& sys, Stream& s, std::size_t size);

/// Fig. 8's TCP curve: fig8_messages(size) messages from a process on host 0
/// through its CAB's socket server to one on host 1. The sender paces itself
/// by polling the connection over the VME bus, 128 KB unacked at most. The
/// window opens at the first arrival and is charged with every byte.
void host_tcp_stream(HostPair& p, Stream& s, std::size_t size);

/// Fig. 8's RMP curve: as host_tcp_stream, paced at 8 messages queued on the
/// CAB. The window opens at the first arrival and is charged with the
/// messages after it.
void host_rmp_stream(HostPair& p, Stream& s, std::size_t size);

/// Table 1's rows.
enum class Protocol { Datagram, Rmp, ReqResp, Udp };

constexpr int kRounds = 15;            ///< round trips per Table 1 cell
constexpr std::size_t kRttBytes = 64;  ///< Table 1's message size

/// Table 1's CAB-CAB column: a client thread on CAB 0 times kRounds round
/// trips of a kRttBytes message to an echo thread on CAB 1, appending each
/// to `rtts`. Table 1 reports the median.
void cab_round_trips(net::NectarSystem& sys, Protocol protocol, std::vector<sim::SimTime>& rtts);

/// Table 1's Host-Host column: the same between two host processes, each
/// going through its CAB.
void host_round_trips(HostPair& p, Protocol protocol, std::vector<sim::SimTime>& rtts);

}  // namespace nectar::bench
