#include "host/netdev.hpp"

#include <stdexcept>

namespace nectar::host {

namespace costs = sim::costs;

NetDevice::NetDevice(nectarine::HostNectarine& nin, proto::Datalink& dl) : nin_(nin), dl_(dl) {
  out_pool_ = nin_.create_mailbox("netdev-out");
  in_pool_ = nin_.create_mailbox("netdev-in");
  dl_.register_client(proto::PacketType::NetDev, this);
  dl_.runtime().fork_system("netdev-server", [this] { server_loop(); });
}

void NetDevice::send_packet(int dst_node, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMtu) throw std::invalid_argument("NetDevice: packet exceeds MTU");
  core::Cpu& cpu = nin_.driver().host().cpu();
  // Host protocol stack (IP + transport + socket layer, §5.1) and the
  // user-to-kernel copy — the costs the communication processor exists to
  // offload.
  cpu.charge(costs::kHostStackPerPacket);
  cpu.charge(static_cast<sim::SimTime>(payload.size()) * costs::kHostCopyPerByte);

  // "to send a packet the driver writes the packet into a free buffer in the
  // output pool and notifies the server."
  core::Message m = nin_.begin_put(out_pool_, static_cast<std::uint32_t>(4 + payload.size()));
  std::vector<std::uint8_t> hdr(4);
  proto::put32n(hdr, 0, static_cast<std::uint32_t>(dst_node));
  nin_.write_message(m, hdr);
  nin_.driver().copy_to_cab(payload, m.data + 4);
  nin_.end_put(out_pool_, m);
  ++tx_;
}

void NetDevice::server_loop() {
  core::CabRuntime& rt = dl_.runtime();
  hw::CabMemory& mem = rt.board().memory();
  for (;;) {
    core::Message m = out_pool_.mb->begin_get();
    if (m.len < 4) {
      out_pool_.mb->end_get(m);
      continue;
    }
    int dst = static_cast<int>(mem.read32(m.data));
    core::Message payload = core::Mailbox::adjust_prefix(m, 4);
    core::Mailbox* storage = out_pool_.mb;
    dl_.send(proto::PacketType::NetDev, dst, {}, payload.data, payload.len,
             [storage, payload] { storage->end_get(payload); });
  }
}

void NetDevice::end_of_data(core::Message m, std::uint8_t src_node) {
  (void)src_node;
  // "when a packet is received the server finds a free input buffer,
  // receives the packet into the buffer, and informs the driver" — the
  // buffer is already in the input pool; publishing notifies the host.
  ++rx_;
  in_pool_.mb->end_put(m);
}

void NetDevice::start_receiver(std::function<void(std::vector<std::uint8_t>)> handler) {
  nin_.driver().host().run_process("netdev-input", [this, handler = std::move(handler)] {
    core::Cpu& cpu = nin_.driver().host().cpu();
    for (;;) {
      core::Message m = nin_.begin_get_block(in_pool_);
      std::vector<std::uint8_t> bytes(m.len);
      nin_.read_message(m, bytes);
      nin_.end_get(in_pool_, m);
      // Kernel-to-user copy plus the host protocol stack on the way up.
      cpu.charge(costs::kHostStackPerPacket);
      cpu.charge(static_cast<sim::SimTime>(bytes.size()) * costs::kHostCopyPerByte);
      handler(std::move(bytes));
    }
  });
}

}  // namespace nectar::host
