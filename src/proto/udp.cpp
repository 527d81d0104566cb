#include "proto/udp.hpp"

#include <array>
#include <span>

#include "proto/icmp.hpp"

#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "proto/checksum.hpp"
#include "sim/costs.hpp"

namespace nectar::proto {

namespace costs = sim::costs;

Udp::Udp(Ip& ip) : ip_(ip), input_(ip.runtime().create_mailbox("udp-input")) {
  ip_.register_protocol(kProtoUdp, &input_);
  // §4.1: "UDP and TCP each have their own server threads."
  ip_.runtime().fork_system("udp-server", [this] { server_loop(); });
}

void Udp::bind(std::uint16_t port, core::Mailbox* deliver) { ports_[port] = deliver; }
void Udp::unbind(std::uint16_t port) { ports_.erase(port); }

Udp::DatagramInfo Udp::info_of(const core::Message& m) const {
  hw::CabMemory& mem = ip_.runtime().board().memory();
  IpHeader iph = IpHeader::parse(mem.view(m.data, IpHeader::kSize));
  UdpHeader uh = UdpHeader::parse(mem.view(m.data + IpHeader::kSize, UdpHeader::kSize));
  DatagramInfo info;
  info.src_addr = iph.src;
  info.dst_addr = iph.dst;
  info.src_port = uh.src_port;
  info.dst_port = uh.dst_port;
  info.payload_len = uh.length - UdpHeader::kSize;
  return info;
}

core::Message Udp::payload_of(core::Message m) {
  return core::Mailbox::adjust_prefix(m, kHeaderSpace);
}

void Udp::send(std::uint16_t src_port, IpAddr dst, std::uint16_t dst_port, core::Message data,
               bool free_when_sent, obs::TraceContext tctx) {
  core::Cpu& cpu = ip_.runtime().cpu();
  hw::CabMemory& mem = ip_.runtime().board().memory();
  obs::CostScope scope("udp/output");
  cpu.charge(costs::kUdpOutput);
  ++sent_;
  obs::stage(tctx, "tx.udp", ip_.runtime().node_id());

  UdpHeader uh;
  uh.src_port = src_port;
  uh.dst_port = dst_port;
  uh.length = static_cast<std::uint16_t>(UdpHeader::kSize + data.len);
  HeaderBufLease lease = HeaderBufLease::acquire();
  std::span<std::uint8_t> hdr = lease->push_front(UdpHeader::kSize);
  uh.serialize(hdr);

  {  // the checksum's cost scope closes before IP output
    obs::CostScope cksum("udp/checksum");
    cpu.charge(checksum_cost(UdpHeader::kSize + data.len + PseudoHeader::kSize));
    PseudoHeader ph{ip_.address(), dst, kProtoUdp, uh.length};
    std::array<std::uint8_t, PseudoHeader::kSize> pseudo;
    ph.serialize(pseudo);
    InternetChecksum c;
    c.update(pseudo);
    c.update(hdr);
    c.update(mem.view(data.data, data.len));
    std::uint16_t sum = c.value();
    if (sum == 0) sum = 0xFFFF;  // RFC 768: transmitted 0 means "no checksum"
    put16(hdr, 6, sum);
  }

  Ip::OutputInfo info;
  info.dst = dst;
  info.protocol = kProtoUdp;
  ip_.output_msg(info, std::move(lease), data, free_when_sent, tctx);
}

void Udp::server_loop() {
  core::Cpu& cpu = ip_.runtime().cpu();
  hw::CabMemory& mem = ip_.runtime().board().memory();
  int node = ip_.runtime().node_id();
  for (;;) {
    core::Message m = input_.begin_get();
    obs::TraceContext rctx = obs::trace_at(node, m.data);
    obs::stage(rctx, "rx.udp", node);
    obs::CostScope scope("udp/input");
    cpu.charge(costs::kUdpInput);
    if (m.len < kHeaderSpace) {
      input_.end_get(m);
      continue;
    }
    IpHeader iph = IpHeader::parse(mem.view(m.data, IpHeader::kSize));
    UdpHeader uh = UdpHeader::parse(mem.view(m.data + IpHeader::kSize, UdpHeader::kSize));

    if (uh.checksum != 0) {
      obs::CostScope cksum("udp/checksum");
      std::size_t udp_len = m.len - IpHeader::kSize;
      cpu.charge(checksum_cost(udp_len + PseudoHeader::kSize));
      PseudoHeader ph{iph.src, iph.dst, kProtoUdp, static_cast<std::uint16_t>(udp_len)};
      std::array<std::uint8_t, PseudoHeader::kSize> pseudo;
      ph.serialize(pseudo);
      InternetChecksum c;
      c.update(pseudo);
      c.update(mem.view(m.data + IpHeader::kSize, udp_len));
      if (c.value() != 0) {
        ++dropped_bad_checksum_;
        obs::annotate(rctx, "drop.udp_checksum");
        obs::stage(rctx, "loss.wait", node);
        input_.end_get(m);
        continue;
      }
    }

    auto it = ports_.find(uh.dst_port);
    if (it == ports_.end()) {
      ++dropped_no_port_;
      if (icmp_ != nullptr && iph.src != ip_.address()) {
        icmp_->send_unreachable(/*port unreachable*/ 3, m);
      } else {
        input_.end_get(m);
      }
      continue;
    }
    ++delivered_;
    obs::stage(rctx, "mbox.wait", node);
    input_.enqueue(m, *it->second);
  }
}

}  // namespace nectar::proto
