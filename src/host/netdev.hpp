#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "nectarine/nectarine.hpp"
#include "proto/datalink.hpp"

namespace nectar::host {

/// Usage level 1 (paper §5.1): the CAB as a conventional network device.
///
/// "To perform networking functions, the device driver cooperates with a
/// server thread on the CAB that is responsible for transmitting and
/// receiving packets over Nectar. The driver and the server share a pool of
/// buffers." All protocol processing stays on the *host* (modeled as a
/// per-packet host-stack cost plus the user/kernel copy), which is why this
/// mode measures 6.4 Mbit/s against the protocol engine's 24-28 (§6.3).
class NetDevice : public proto::DatalinkClient {
 public:
  static constexpr std::size_t kMtu = 1500;  ///< conventional-LAN framing

  NetDevice(nectarine::HostNectarine& nin, proto::Datalink& dl);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  /// Host-side transmit: runs the host protocol stack (charged), copies the
  /// packet into a free output-pool buffer on the CAB, and notifies the
  /// server thread.
  void send_packet(int dst_node, std::span<const std::uint8_t> payload);

  /// Start the host-side input handler process: received packets climb the
  /// host protocol stack (charged) and are handed to `handler`.
  void start_receiver(std::function<void(std::vector<std::uint8_t>)> handler);

  // --- DatalinkClient (CAB-side receive into the input pool) -----------------

  std::size_t header_bytes() const override { return 0; }
  core::Mailbox& input_mailbox() override { return *in_pool_.mb; }
  void end_of_data(core::Message m, std::uint8_t src_node) override;

  std::uint64_t packets_sent() const { return tx_; }
  std::uint64_t packets_received() const { return rx_; }

 private:
  void server_loop();  // CAB server thread: drains the output pool

  nectarine::HostNectarine& nin_;
  proto::Datalink& dl_;
  nectarine::HostNectarine::HostMailbox out_pool_;
  nectarine::HostNectarine::HostMailbox in_pool_;
  std::uint64_t tx_ = 0;
  std::uint64_t rx_ = 0;
};

}  // namespace nectar::host
