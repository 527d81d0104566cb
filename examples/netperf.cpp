// netperf: a throughput/latency measurement utility for the simulated
// Nectar, in the spirit of the tools the paper's evaluation used.
//
// Measures host-to-host streaming throughput through the protocol engine
// (§5.2) over TCP and RMP at a chosen message size, plus the 64-byte
// datagram round trip — a one-command condensation of Table 1 and Figure 8.
// It runs the benches' own measurement kernels (bench/measure.hpp): the
// streams are Fig. 8's points at that size, and the round trip is Table 1's
// Host-Host datagram cell, the median of 15.
//
//   $ ./netperf [message_bytes] [--trace out.json]
//
// message_bytes is a decimal integer from 1 up to the largest message one
// datalink packet carries behind the Nectar header (16,370 bytes); anything
// else prints the usage line and exits 2.
//
// With --trace, the datagram round-trip run also writes a Chrome trace-event
// timeline (host CPUs, CAB threads, VME, wire as separate tracks); open it in
// chrome://tracing or https://ui.perfetto.dev.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.hpp"
#include "proto/datalink.hpp"
#include "proto/headers.hpp"

using namespace nectar;

namespace {

// The RMP stream sends each message as one datalink packet.
constexpr std::size_t kMaxSize = proto::Datalink::kMaxPayload - proto::NectarHeader::kSize;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [message_bytes 1..%zu] [--trace out.json]\n", argv0,
               kMaxSize);
  std::exit(2);
}

/// A decimal integer in [1, kMaxSize] into `size`; false for anything else.
bool parse_size(const char* arg, std::size_t& size) {
  const char* end = arg + std::strlen(arg);
  auto [stop, err] = std::from_chars(arg, end, size);
  return err == std::errc() && stop == end && size >= 1 && size <= kMaxSize;
}

double stream_mbit(void (*kernel)(bench::HostPair&, bench::Stream&, std::size_t),
                   std::size_t size) {
  bench::HostPair p;
  bench::Stream s;
  kernel(p, s, size);
  p.sys.net().run_until(sim::sec(120));
  return s.mbit();
}

double datagram_rtt_usec(const std::string& trace_path) {
  bench::HostPair p;
  if (!trace_path.empty()) p.sys.tracer().set_enabled(true);
  std::vector<sim::SimTime> rtts;
  bench::host_round_trips(p, bench::Protocol::Datagram, rtts);
  p.sys.net().run_until(sim::sec(5));
  bench::finish_trace(trace_path, p.sys.tracer());
  return bench::median_usec(rtts);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::size_t size = 8192;
  bool size_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!size_set && parse_size(argv[i], size)) {
      size_set = true;
    } else {
      usage(argv[0]);
    }
  }

  std::printf("netperf: host-to-host over the Nectar protocol engine\n");
  std::printf("message size %zu bytes, %d messages per run (simulated clock)\n\n", size,
              bench::fig8_messages(size));
  std::printf("  TCP/IP stream   : %7.2f Mbit/s\n", stream_mbit(bench::host_tcp_stream, size));
  std::printf("  RMP stream      : %7.2f Mbit/s\n", stream_mbit(bench::host_rmp_stream, size));
  std::printf("  datagram RTT    : %7.1f us (64-byte, median of %d)\n",
              datagram_rtt_usec(trace_path), bench::kRounds);
  std::printf("\n(the paper's testbed: ~24-28 Mbit/s streams, 325 us round trip)\n");
  return 0;
}
