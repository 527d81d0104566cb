#include "nproto/rmp.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cpu.hpp"
#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::nproto {

namespace costs = sim::costs;

Rmp::Rmp(proto::Datalink& dl)
    : dl_(dl),
      input_(dl.runtime().create_mailbox("rmp-input")),
      metrics_reg_(dl.runtime().metrics()) {
  dl_.register_client(proto::PacketType::Rmp, this);

  int node = dl_.node_id();
  metrics_reg_.probe(node, "rmp", "messages_sent",
                     [this] { return static_cast<std::int64_t>(sent_); });
  metrics_reg_.probe(node, "rmp", "messages_delivered",
                     [this] { return static_cast<std::int64_t>(delivered_); });
  metrics_reg_.probe(node, "rmp", "retransmissions",
                     [this] { return static_cast<std::int64_t>(retransmissions_); });
  metrics_reg_.probe(node, "rmp", "duplicates_dropped",
                     [this] { return static_cast<std::int64_t>(dups_); });
  metrics_reg_.probe(node, "rmp", "acks_sent",
                     [this] { return static_cast<std::int64_t>(acks_sent_); });
  metrics_reg_.probe(node, "rmp", "dropped_no_mailbox",
                     [this] { return static_cast<std::int64_t>(dropped_no_mailbox_); });
}

void Rmp::send(core::MailboxAddr dst, core::Message data, bool free_when_acked,
               std::function<void()> on_acked, obs::TraceContext tctx,
               std::span<const std::uint8_t> prefix) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("rmp/send");
  cpu.charge(costs::kNectarProtoSend);
  if (prefix.size() > kMaxPrefix) {
    throw std::length_error("Rmp::send: prefix of " + std::to_string(prefix.size()) +
                            " bytes exceeds kMaxPrefix (" + std::to_string(kMaxPrefix) + ")");
  }
  obs::stage(tctx, "tx.rmp.queue", dl_.node_id());
  // Send state is shared with the interrupt-level ACK/timeout handlers, so
  // manipulate it under the interrupt mask (§3.1 discipline).
  core::InterruptGuard g(cpu);
  SendChannel& ch = send_channels_[dst.node];
  Pending p{data, dst.index, free_when_acked, std::move(on_acked), tctx, {}, 0};
  std::copy(prefix.begin(), prefix.end(), p.prefix.begin());
  p.prefix_len = static_cast<std::uint8_t>(prefix.size());
  ch.queue.push_back(std::move(p));
  if (!ch.outstanding) {
    ch.outstanding = true;
    transmit_head(dst.node);
  }
}

void Rmp::transmit_head(int node) {
  SendChannel& ch = send_channels_[node];
  const Pending& p = ch.queue.front();

  proto::NectarHeader h;
  h.dst_mailbox = p.dst_index;
  h.src_node = static_cast<std::uint8_t>(dl_.node_id());
  h.flags = kFlagData;
  h.seq = ch.next_seq;
  h.length = static_cast<std::uint16_t>(p.msg.len + p.prefix_len);
  proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
  // Innermost first: the upper layer's prefix rides directly in front of the
  // payload, then the RMP header, then (in dl_.send) the datalink header.
  if (p.prefix_len > 0) {
    std::span<std::uint8_t> dst = hdr->push_front(p.prefix_len);
    std::copy(p.prefix.begin(), p.prefix.begin() + p.prefix_len, dst.begin());
  }
  h.serialize(hdr->push_front(proto::NectarHeader::kSize));

  ++sent_;
  runtime().trace_mark("rmp.xmit");
  obs::stage(p.ctx, "tx.rmp", dl_.node_id());
  dl_.send(proto::PacketType::Rmp, node, std::move(hdr), p.msg.data, p.msg.len, {}, p.ctx);

  core::Cpu& cpu = runtime().cpu();
  if (ch.timer_set) cpu.cancel_timer(ch.timer);
  ch.timer_set = true;
  ch.timer = cpu.set_timer(runtime().engine().now() + kRetransmitInterval,
                           [this, node] { on_timeout(node); });
}

void Rmp::log(const char* kind, int peer, std::uint16_t seq) {
  runtime().log(kind, "peer=" + std::to_string(peer) + " seq=" + std::to_string(seq));
}

void Rmp::on_timeout(int node) {
  SendChannel& ch = send_channels_[node];
  if (!ch.timer_set || !ch.outstanding) return;
  ch.timer_set = false;
  ++retransmissions_;
  log("rmp.retransmit", node, ch.next_seq);
  obs::annotate(ch.queue.front().ctx, "rmp.retx");
  transmit_head(node);
}

void Rmp::handle_ack(int node, std::uint16_t seq) {
  SendChannel& ch = send_channels_[node];
  if (!ch.outstanding || seq != ch.next_seq) return;  // stale or duplicate ACK
  core::Cpu& cpu = runtime().cpu();
  if (ch.timer_set) {
    cpu.cancel_timer(ch.timer);
    ch.timer_set = false;
  }
  Pending p = std::move(ch.queue.front());
  ch.queue.pop_front();
  ++ch.next_seq;
  ch.outstanding = false;
  if (p.free_when_acked) input_.end_get(p.msg);
  if (p.on_acked) p.on_acked();
  if (!ch.queue.empty()) {
    ch.outstanding = true;
    transmit_head(node);
  }
  // Wake pacing/drain waiters on every acknowledgment; they re-check their
  // own predicates.
  for (core::Thread* t : ch.drain_waiters) t->cpu().wake(t);
  ch.drain_waiters.clear();
}

void Rmp::wait_queue_below(int node, std::size_t n) {
  core::Cpu& cpu = runtime().cpu();
  core::InterruptGuard g(cpu);
  SendChannel& ch = send_channels_[node];
  while (ch.queue.size() >= n) {
    log("rmp.window_stall", node, ch.next_seq);
    ch.drain_waiters.push_back(cpu.current_thread());
    cpu.block_unmasked();
  }
}

std::size_t Rmp::queued_to(int node) const {
  auto it = send_channels_.find(node);
  return it == send_channels_.end() ? 0 : it->second.queue.size();
}

void Rmp::wait_acked(int node) {
  core::Cpu& cpu = runtime().cpu();
  core::InterruptGuard g(cpu);
  SendChannel& ch = send_channels_[node];
  while (ch.outstanding || !ch.queue.empty()) {
    ch.drain_waiters.push_back(cpu.current_thread());
    cpu.block_unmasked();
  }
}

void Rmp::send_ack(int node, std::uint16_t seq) {
  proto::NectarHeader h;
  h.src_node = static_cast<std::uint8_t>(dl_.node_id());
  h.flags = kFlagAck;
  h.seq = seq;
  h.length = 0;
  proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
  h.serialize(hdr->push_front(proto::NectarHeader::kSize));
  ++acks_sent_;
  runtime().trace_mark("rmp.ack");
  dl_.send(proto::PacketType::Rmp, node, std::move(hdr), hw::kDataBase, 0);
}

void Rmp::end_of_data(core::Message m, std::uint8_t src_node) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("rmp/recv");
  cpu.charge(costs::kNectarProtoRecv);
  obs::TraceContext rctx = obs::trace_at(dl_.node_id(), m.data);
  obs::stage(rctx, "rx.rmp", dl_.node_id());

  if (m.len < proto::NectarHeader::kSize) {
    input_.end_get(m);
    return;
  }
  proto::NectarHeader h = proto::NectarHeader::parse(
      runtime().board().memory().view(m.data, proto::NectarHeader::kSize));

  if (h.flags == kFlagAck) {
    input_.end_get(m);
    handle_ack(src_node, h.seq);
    return;
  }

  RecvChannel& rc = recv_channels_[src_node];
  if (h.seq != rc.expected_seq) {
    // Stop-and-wait: this can only be a retransmission of the previous
    // message whose ACK was lost. Re-acknowledge and drop.
    ++dups_;
    input_.end_get(m);
    send_ack(src_node, h.seq);
    return;
  }

  core::Mailbox* dst = runtime().find_mailbox(h.dst_mailbox);
  if (dst == nullptr) {
    // Undeliverable; acknowledge anyway so the sender does not retry forever.
    ++dropped_no_mailbox_;
    input_.end_get(m);
    send_ack(src_node, h.seq);
    ++rc.expected_seq;
    return;
  }
  ++delivered_;
  runtime().trace_mark("rmp.deliver");
  ++rc.expected_seq;
  core::Message payload = core::Mailbox::adjust_prefix(m, proto::NectarHeader::kSize);
  obs::stage(rctx, "mbox.wait", dl_.node_id());
  input_.enqueue(payload, *dst);
  send_ack(src_node, h.seq);
}

}  // namespace nectar::nproto
