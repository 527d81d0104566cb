#pragma once

#include <cstdint>
#include <map>

#include "proto/ip.hpp"

namespace nectar::proto {

class Icmp;

/// UDP on the CAB (paper §4.1), with its own server thread: the thread
/// blocks on the UDP input mailbox, verifies the checksum, and hands the
/// datagram — headers still attached, zero-copy — to the mailbox bound to
/// the destination port.
class Udp {
 public:
  explicit Udp(Ip& ip);

  Udp(const Udp&) = delete;
  Udp& operator=(const Udp&) = delete;

  /// Deliver datagrams addressed to `port` into `deliver`. Messages arrive
  /// with IP+UDP headers attached; use payload_of() / info_of() to access.
  void bind(std::uint16_t port, core::Mailbox* deliver);
  void unbind(std::uint16_t port);

  /// Send `data` (a message whose bytes are the UDP payload) to dst:port.
  /// The data area is freed once the packet is on the wire when
  /// `free_when_sent`. `tctx`, when valid, attributes the datagram to that
  /// causal trace.
  void send(std::uint16_t src_port, IpAddr dst, std::uint16_t dst_port, core::Message data,
            bool free_when_sent = true, obs::TraceContext tctx = {});

  /// When set, datagrams to unbound ports are answered with an ICMP port
  /// unreachable (type 3 code 3) instead of being dropped silently.
  void set_icmp(Icmp* icmp) { icmp_ = icmp; }

  /// Parsed addressing info of a delivered datagram.
  struct DatagramInfo {
    IpAddr src_addr = 0;
    IpAddr dst_addr = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint32_t payload_len = 0;
  };
  DatagramInfo info_of(const core::Message& m) const;
  /// The message adjusted (zero-copy) to expose only the UDP payload.
  static core::Message payload_of(core::Message m);

  core::Mailbox& input_mailbox() { return input_; }

  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_delivered() const { return delivered_; }
  std::uint64_t dropped_no_port() const { return dropped_no_port_; }
  std::uint64_t dropped_bad_checksum() const { return dropped_bad_checksum_; }

  static constexpr std::size_t kHeaderSpace = IpHeader::kSize + UdpHeader::kSize;

 private:
  void server_loop();

  Ip& ip_;
  core::Mailbox& input_;
  Icmp* icmp_ = nullptr;
  std::map<std::uint16_t, core::Mailbox*> ports_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_no_port_ = 0;
  std::uint64_t dropped_bad_checksum_ = 0;
};

}  // namespace nectar::proto
