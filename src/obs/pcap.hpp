#pragma once

// Packet capture on the simulated clock, in real pcap format.
//
// A PcapWriter is a tap attached to a hw::FiberLink transmitter: every
// packet that crosses the link is appended to a classic libpcap file with
// its simulated-time timestamp, openable by Wireshark / tcpdump / tshark.
// Two formats:
//
//   RawIp          LINKTYPE_RAW (101): records are bare IPv4 packets. The
//                  4-byte Nectar datalink header is stripped and non-IP
//                  packet types (RMP, datagram, ...) are skipped (counted in
//                  frames_skipped()). This is the format standard dissectors
//                  understand end-to-end.
//   DatalinkFrame  LINKTYPE_USER0 (147): records are whole Nectar datalink
//                  frames ([type, src_node, length] header + packet), for
//                  inspecting the Nectar-specific protocols.
//
// The file uses the nanosecond-resolution pcap magic (0xA1B23C4D): the
// simulation clock is integer nanoseconds, and timestamps survive exactly.
// Headers and records are written little-endian explicitly so a capture of
// a deterministic run is byte-identical everywhere (the golden-file test in
// tests/obs/pcap_test.cpp relies on this).
//
// The stream flushes and closes on destruction (RAII), so a capture is
// complete and well-formed even when a scenario ends mid-transfer.

#include <cstdint>
#include <fstream>
#include <span>
#include <string>

#include "sim/time.hpp"

namespace nectar::obs {

class PcapWriter {
 public:
  enum class Format {
    RawIp,          ///< LINKTYPE_RAW: bare IP packets only
    DatalinkFrame,  ///< LINKTYPE_USER0: whole Nectar datalink frames
  };

  PcapWriter(const std::string& path, Format format = Format::RawIp);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// False if the file could not be opened (nothing will be written).
  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }
  Format format() const { return format_; }

  /// Record a Nectar datalink frame (4-byte datalink header + packet) that
  /// crossed the tapped element at simulated time `ts`. RawIp strips the
  /// header and skips non-IP frames; DatalinkFrame records verbatim.
  void frame(sim::SimTime ts, std::span<const std::uint8_t> bytes);

  std::uint64_t packets_written() const { return written_; }
  /// RawIp only: non-IP frames seen and skipped.
  std::uint64_t frames_skipped() const { return skipped_; }

  void flush();

 private:
  void record(sim::SimTime ts, std::span<const std::uint8_t> bytes);

  std::string path_;
  Format format_;
  std::ofstream out_;
  bool ok_ = false;
  std::uint64_t written_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace nectar::obs
