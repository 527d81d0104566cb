#include "proto/datalink.hpp"

#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::proto {

namespace costs = sim::costs;

Datalink::Datalink(core::CabRuntime& rt) : rt_(rt), metrics_reg_(rt.metrics()) {
  rt_.set_packet_handler([this] { process_pending(); });

  int node = node_id();
  metrics_reg_.probe(node, "datalink", "packets_sent",
                     [this] { return static_cast<std::int64_t>(packets_sent_); });
  metrics_reg_.probe(node, "datalink", "packets_received",
                     [this] { return static_cast<std::int64_t>(packets_received_); });
  metrics_reg_.probe(node, "datalink", "dropped_no_client",
                     [this] { return static_cast<std::int64_t>(dropped_no_client_); });
  metrics_reg_.probe(node, "datalink", "dropped_no_buffer",
                     [this] { return static_cast<std::int64_t>(dropped_no_buffer_); });
  metrics_reg_.probe(node, "datalink", "dropped_crc",
                     [this] { return static_cast<std::int64_t>(dropped_crc_); });
  metrics_reg_.probe(node, "datalink", "dropped_runt",
                     [this] { return static_cast<std::int64_t>(dropped_runt_); });
  packet_bytes_ =
      &rt_.metrics().histogram(node, "datalink", "packet_bytes", {64, 256, 1024, 4096, 16384});
}

void Datalink::trace_instant(const char* label) {
  obs::Tracer* t = rt_.cpu().tracer();
  if (obs::tracing(t)) t->instant(rt_.cpu().trace_track(), label);
}

void Datalink::set_route(int dst_node, hw::RouteRef route) {
  // Intern once: every frame to this destination shares the same immutable
  // route bytes instead of carrying a per-packet copy.
  routes_.at(static_cast<std::size_t>(dst_node)) = std::move(route);
}

const hw::RouteRef& Datalink::route_ref(int dst_node) const {
  const auto d = static_cast<std::size_t>(dst_node);  // a negative node wraps past the end
  if (d >= routes_.size() || routes_[d].empty()) {
    throw std::logic_error(rt_.board().name() + ": no route to node " +
                           std::to_string(dst_node));
  }
  return routes_[d];
}

void Datalink::register_client(PacketType type, DatalinkClient* client) {
  clients_[static_cast<std::uint8_t>(type)] = client;
}

void Datalink::send(PacketType type, int dst_node, HeaderBufLease hdr, hw::CabAddr payload,
                    std::size_t len, sim::InplaceAction on_sent, obs::TraceContext tctx) {
  transmit(type, route_ref(dst_node), {}, std::move(hdr), payload, len, std::move(on_sent), tctx);
}

void Datalink::send_via(PacketType type, const hw::RouteRef& route, HeaderBufLease hdr,
                        hw::CabAddr payload, std::size_t len, sim::InplaceAction on_sent,
                        obs::TraceContext tctx) {
  transmit(type, route, {}, std::move(hdr), payload, len, std::move(on_sent), tctx);
}

void Datalink::send_mcast(PacketType type, const hw::McastRef& mcast, HeaderBufLease hdr,
                          hw::CabAddr payload, std::size_t len, sim::InplaceAction on_sent,
                          obs::TraceContext tctx) {
  if (!mcast.valid()) throw std::logic_error("Datalink::send_mcast: empty multicast tree");
  transmit(type, {}, mcast, std::move(hdr), payload, len, std::move(on_sent), tctx);
}

void Datalink::transmit(PacketType type, const hw::RouteRef& route, const hw::McastRef& mcast,
                        HeaderBufLease hdr, hw::CabAddr payload, std::size_t len,
                        sim::InplaceAction on_sent, obs::TraceContext tctx) {
  std::size_t proto_len = hdr.size();
  if (proto_len + len > kMaxPayload) {
    throw std::logic_error("Datalink::send: packet exceeds maximum payload");
  }
  obs::CostScope scope("dl/send");
  rt_.cpu().charge(costs::kDatalinkSend);

  const bool traced = tctx.valid() && obs::CausalTracer::active() != nullptr;
  if (traced) {
    obs::stage(tctx, "tx.datalink", node_id());
    // The stamp rides the wire between the datalink header and the protocol
    // headers: real bytes, serialized and CRC'd like any others.
    obs::encode_stamp(hdr.ensure().push_front(obs::kTraceStampBytes), tctx);
    proto_len += obs::kTraceStampBytes;
  }

  DatalinkHeader dh;
  dh.type = type;
  dh.src_node = static_cast<std::uint8_t>(node_id());
  dh.length = static_cast<std::uint16_t>(proto_len + len);
  dh.traced = traced;

  // Prepend the datalink header into the composition buffer's headroom: the
  // frame's header bytes [datalink][proto...] are already contiguous, no
  // gather copy needed.
  dh.serialize(hdr.ensure().push_front(DatalinkHeader::kSize));

  ++packets_sent_;
  packet_bytes_->observe(static_cast<std::int64_t>(proto_len + len));
  trace_instant("dl.send");
  hw::SendCallback completion;
  if (on_sent) {
    core::Cpu& cpu = rt_.cpu();
    completion = [&cpu, fn = std::move(on_sent)]() mutable { cpu.post_interrupt(std::move(fn)); };
  }
  // Address the frame only now: the charge above can block, and a route the
  // control plane installs meanwhile applies to this frame.
  hw::Frame to;
  if (mcast.valid()) {
    to.mcast = mcast;
  } else {
    to.route = route;
  }
  rt_.board().dma().start_send(std::move(to), hdr.bytes(), len > 0 ? payload : hw::kDataBase, len,
                               std::move(completion), node_id(), tctx);
}

void Datalink::discard_front() {
  rt_.board().dma().start_recv(hw::DmaController::kDiscard, 0,
                               [this](hw::FiberInFifo::ArrivedFrame, bool) {
                                 rt_.cpu().post_interrupt([this] { process_pending(); });
                               });
}

void Datalink::process_pending() {
  hw::FiberInFifo& fifo = rt_.board().in_fifo();
  hw::DmaController& dma = rt_.board().dma();
  core::Cpu& cpu = rt_.cpu();

  if (dma.recv_busy() || !fifo.has_frame()) return;

  // Stall until the datalink header has arrived in the FIFO (§2.2: the CPU
  // reads the FIFO head; the bytes may still be in flight), then parse it.
  obs::CostScope scope("dl/recv");
  cpu.charge_until(fifo.payload_available_at(DatalinkHeader::kSize));
  cpu.charge(costs::kDatalinkRecv);

  const hw::FiberInFifo::ArrivedFrame& front = fifo.front();
  obs::TraceContext fctx = front.frame.trace;  // in-flight mirror (hop is current)
  auto drop_trace = [&](const char* why) {
    obs::annotate(fctx, why);
    obs::stage(fctx, "loss.wait", node_id());
  };
  if (front.frame.payload.size() < DatalinkHeader::kSize) {
    ++dropped_runt_;
    drop_trace("drop.runt");
    discard_front();
    return;
  }
  DatalinkHeader dh = DatalinkHeader::parse(front.frame.payload);
  // Strip the causal-trace stamp (if flagged) riding between the datalink
  // header and the protocol bytes; the wire stamp carries the identity, the
  // frame mirror the up-to-date hop count.
  std::size_t stamp_skip = 0;
  if (dh.traced) {
    obs::TraceContext wire;
    if (dh.length < obs::kTraceStampBytes ||
        front.frame.payload.size() < DatalinkHeader::kSize + obs::kTraceStampBytes ||
        !obs::decode_stamp(front.frame.payload.bytes().subspan(DatalinkHeader::kSize), wire)) {
      ++dropped_runt_;
      drop_trace("drop.runt");
      discard_front();
      return;
    }
    stamp_skip = obs::kTraceStampBytes;
    if (!fctx.valid()) fctx = wire;
  }
  DatalinkClient* client = clients_[static_cast<std::uint8_t>(dh.type)];
  if (client == nullptr) {
    ++dropped_no_client_;
    drop_trace("drop.no_client");
    discard_front();
    return;
  }

  // Allocate the packet's data area directly in the protocol's input
  // mailbox (§4.1: "initiates DMA operations to place the data into an
  // appropriate mailbox"). Non-blocking: we are at interrupt level.
  auto msg = client->input_mailbox().begin_put_try(
      static_cast<std::uint32_t>(dh.length - stamp_skip));
  if (!msg.has_value()) {
    ++dropped_no_buffer_;
    drop_trace("drop.no_buffer");
    discard_front();
    return;
  }
  core::Message m = *msg;
  std::uint8_t src = dh.src_node;

  // The receive buffer's address range recovers the context after mailbox
  // hand-offs (headers are stripped in place; the data pointer only moves
  // forward). Always clear stale tags on the recycled range, then tag when
  // this packet is traced.
  obs::tag(node_id(), m.data, m.len, fctx);

  // When will the protocol header have arrived? (Computed now: the FIFO
  // front may already be popped by the time the DMA completes.)
  sim::SimTime proto_hdr_avail =
      fifo.payload_available_at(DatalinkHeader::kSize + stamp_skip + client->header_bytes());

  rx_.push_back({m, client, src});
  dma.start_recv(m.data, DatalinkHeader::kSize + stamp_skip,
                 [this](hw::FiberInFifo::ArrivedFrame, bool crc_ok) {
                   // The channel runs one receive at a time: the one that
                   // just finished is the newest started.
                   rx_.back().crc_ok = crc_ok;
                   rt_.cpu().post_interrupt([this] { finish_recv(); });
                 });

  // Start-of-data upcall: overlap protocol header processing with the rest
  // of the packet's arrival (§4.1).
  if (client->header_bytes() > 0) {
    cpu.charge_until(proto_hdr_avail);
    client->start_of_data(m, src);
  }
}

void Datalink::finish_recv() {
  // Completions post in DMA order, so the oldest receive is this one.
  const Rx rx = rx_.front();
  rx_.pop_front();
  ++packets_received_;
  trace_instant("dl.recv");
  obs::TraceContext rctx = obs::trace_at(node_id(), rx.m.data);
  if (rx.crc_ok) {
    obs::stage(rctx, "rx.datalink", node_id());
    rx.client->end_of_data(rx.m, rx.src);
  } else {
    // The hardware CRC caught corruption: drop silently; reliable protocols
    // recover by retransmission.
    ++dropped_crc_;
    obs::annotate(rctx, "drop.crc");
    obs::stage(rctx, "loss.wait", node_id());
    obs::tag(node_id(), rx.m.data, rx.m.len, {});  // the buffer is freed
    rx.client->input_mailbox().end_get(rx.m);
  }
  process_pending();
}

}  // namespace nectar::proto
