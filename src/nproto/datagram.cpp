#include "nproto/datagram.hpp"

#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::nproto {

namespace costs = sim::costs;

DatagramProtocol::DatagramProtocol(proto::Datalink& dl)
    : dl_(dl),
      input_(dl.runtime().create_mailbox("datagram-input")),
      metrics_reg_(dl.runtime().metrics()) {
  dl_.register_client(proto::PacketType::NectarDatagram, this);

  int node = dl_.node_id();
  metrics_reg_.probe(node, "datagram", "datagrams_sent",
                     [this] { return static_cast<std::int64_t>(sent_); });
  metrics_reg_.probe(node, "datagram", "datagrams_delivered",
                     [this] { return static_cast<std::int64_t>(delivered_); });
  metrics_reg_.probe(node, "datagram", "dropped_no_mailbox",
                     [this] { return static_cast<std::int64_t>(dropped_no_mailbox_); });
}

proto::HeaderBufLease DatagramProtocol::compose_header(core::MailboxAddr dst, std::size_t len,
                                                       std::uint32_t src_mailbox) {
  obs::CostScope scope("datagram/send");
  runtime().cpu().charge(costs::kNectarProtoSend);
  runtime().trace_mark("datagram.send");

  proto::NectarHeader h;
  h.dst_mailbox = dst.index;
  h.src_mailbox = src_mailbox;
  h.src_node = static_cast<std::uint8_t>(dl_.node_id());
  h.length = static_cast<std::uint16_t>(len);
  proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
  h.serialize(hdr->push_front(proto::NectarHeader::kSize));
  ++sent_;
  return hdr;
}

void DatagramProtocol::send_raw(core::MailboxAddr dst, hw::CabAddr payload, std::size_t len,
                                sim::InplaceAction on_sent, std::uint32_t src_mailbox,
                                obs::TraceContext tctx) {
  obs::stage(tctx, "tx.datagram", dl_.node_id());
  proto::HeaderBufLease hdr = compose_header(dst, len, src_mailbox);
  dl_.send(proto::PacketType::NectarDatagram, dst.node, std::move(hdr), payload, len,
           std::move(on_sent), tctx);
}

void DatagramProtocol::send_raw_via(const hw::RouteRef& route, core::MailboxAddr dst,
                                    hw::CabAddr payload, std::size_t len,
                                    sim::InplaceAction on_sent, std::uint32_t src_mailbox) {
  proto::HeaderBufLease hdr = compose_header(dst, len, src_mailbox);
  dl_.send_via(proto::PacketType::NectarDatagram, route, std::move(hdr), payload, len,
               std::move(on_sent));
}

void DatagramProtocol::send(core::MailboxAddr dst, core::Message data, bool free_when_sent,
                            std::uint32_t src_mailbox, obs::TraceContext tctx) {
  if (free_when_sent) {
    core::Mailbox& storage = input_;
    send_raw(
        dst, data.data, data.len, [&storage, data] { storage.end_get(data); }, src_mailbox, tctx);
  } else {
    send_raw(dst, data.data, data.len, {}, src_mailbox, tctx);
  }
}

void DatagramProtocol::end_of_data(core::Message m, std::uint8_t src_node) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("datagram/recv");
  cpu.charge(costs::kNectarProtoRecv);
  obs::TraceContext rctx = obs::trace_at(dl_.node_id(), m.data);
  obs::stage(rctx, "rx.datagram", dl_.node_id());

  if (m.len < proto::NectarHeader::kSize) {
    input_.end_get(m);
    return;
  }
  proto::NectarHeader h = proto::NectarHeader::parse(
      runtime().board().memory().view(m.data, proto::NectarHeader::kSize));
  if (auto hit = handlers_.find(h.dst_mailbox); hit != handlers_.end()) {
    ++delivered_;
    core::Message payload = core::Mailbox::adjust_prefix(m, proto::NectarHeader::kSize);
    hit->second(payload, Info{src_node, h.src_mailbox});
    input_.end_get(payload);  // handler contract: bytes valid only in-call
    runtime().trace_mark("datagram.deliver");
    return;
  }
  core::Mailbox* dst = runtime().find_mailbox(h.dst_mailbox);
  if (dst == nullptr) {
    ++dropped_no_mailbox_;
    input_.end_get(m);
    return;
  }
  ++delivered_;
  last_sender_[dst] = Info{src_node, h.src_mailbox};
  // Strip the protocol header in place and hand the payload to the target
  // mailbox — the §3.3 zero-copy path.
  core::Message payload = core::Mailbox::adjust_prefix(m, proto::NectarHeader::kSize);
  obs::stage(rctx, "mbox.wait", dl_.node_id());
  input_.enqueue(payload, *dst);
  runtime().trace_mark("datagram.deliver");
}

void DatagramProtocol::register_delivery_handler(std::uint32_t mailbox_index,
                                                 DeliveryHandler handler) {
  if (!handler) throw std::logic_error("DatagramProtocol: null delivery handler");
  if (!handlers_.emplace(mailbox_index, std::move(handler)).second) {
    throw std::logic_error("DatagramProtocol: delivery handler for mailbox index " +
                           std::to_string(mailbox_index) + " already registered");
  }
}

void DatagramProtocol::unregister_delivery_handler(std::uint32_t mailbox_index) {
  handlers_.erase(mailbox_index);
}

DatagramProtocol::Info DatagramProtocol::last_sender(const core::Mailbox& mb) const {
  auto it = last_sender_.find(&mb);
  return it == last_sender_.end() ? Info{} : it->second;
}

}  // namespace nectar::nproto
