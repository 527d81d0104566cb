#include "proto/tcp.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "proto/checksum.hpp"
#include "sim/costs.hpp"

namespace nectar::proto {

namespace costs = sim::costs;

namespace {
// Sequence-space comparisons (RFC 793 modular arithmetic).
bool seq_lt(std::uint32_t a, std::uint32_t b) { return static_cast<std::int32_t>(a - b) < 0; }
bool seq_le(std::uint32_t a, std::uint32_t b) { return static_cast<std::int32_t>(a - b) <= 0; }
bool seq_gt(std::uint32_t a, std::uint32_t b) { return static_cast<std::int32_t>(a - b) > 0; }

constexpr std::size_t kCombinedHeader = IpHeader::kSize + TcpHeader::kSize;

/// BSD-era default socket buffering (4.3BSD shipped 4 KB; tuned Nectar-era
/// stacks ran 8-16 KB). This is what keeps even checksum-free TCP slightly
/// below RMP in Fig. 7 — the window, not the wire, is the ceiling.
constexpr std::uint32_t kReceiveWindow = 64 * 1024 - 1;
constexpr sim::SimTime kMinRto = sim::usec(500);
/// Conservative before the first RTT sample (checksumming a 9 KB segment
/// alone takes ~1.4 ms of CAB CPU); adapts down once samples arrive.
constexpr sim::SimTime kInitialRto = sim::msec(50);
constexpr sim::SimTime kMaxRto = sim::msec(500);
constexpr sim::SimTime kTimeWait = sim::msec(10);  ///< 2*MSL scaled to simulation RTTs
}  // namespace

Tcp::Tcp(Ip& ip, Config config)
    : ip_(ip),
      config_(config),
      lock_(ip.runtime().cpu()),
      state_cv_(ip.runtime().cpu()),
      input_(ip.runtime().create_mailbox("tcp-input")),
      send_req_(ip.runtime().create_mailbox("tcp-send-request")),
      mss_(ip.mtu() - kCombinedHeader),
      metrics_reg_(ip.runtime().metrics()) {
  int node = ip_.runtime().node_id();
  metrics_reg_.probe(node, "tcp", "segments_sent",
                     [this] { return static_cast<std::int64_t>(segs_sent_); });
  metrics_reg_.probe(node, "tcp", "segments_received",
                     [this] { return static_cast<std::int64_t>(segs_rcvd_); });
  metrics_reg_.probe(node, "tcp", "bad_checksums",
                     [this] { return static_cast<std::int64_t>(bad_checksum_); });
  metrics_reg_.probe(node, "tcp", "resets_sent",
                     [this] { return static_cast<std::int64_t>(rst_sent_); });
  ip_.register_protocol(kProtoTcp, &input_);
  // §4.2: "All TCP input processing is performed by the TCP input thread."
  ip_.runtime().fork_system("tcp-input", [this] { input_loop(); });
  // §4.2: "The TCP send thread on the CAB services this request ..."
  ip_.runtime().fork_system("tcp-send", [this] { send_request_loop(); });
}

// --- connection management -------------------------------------------------------

TcpConnection* Tcp::make_connection(std::uint16_t local_port) {
  auto c = std::make_unique<TcpConnection>();
  c->tcp_ = this;
  c->id_ = next_conn_id_++;
  c->local_port_ = local_port;
  c->rto_ = kInitialRto;
  c->receive_ = &runtime().create_mailbox("tcp-rx-" + std::to_string(c->id_));
  TcpConnection* raw = c.get();
  // Window updates: when the user (a CAB thread or, via the shared mapping,
  // a host process) consumes from the receive mailbox, ask the input thread
  // to announce the reopened window. The hook may run in any execution
  // context, so it only posts; the ACK is emitted under the TCP lock.
  core::Cpu* cab_cpu = &runtime().cpu();
  std::uint32_t id = raw->id_;
  raw->receive_->set_consume_hook([this, cab_cpu, id, raw] {
    if (raw->wnd_update_pending_ || raw->state_ == TcpConnection::State::Closed) return;
    // Cheap pre-check (no charge): is there meaningful growth to announce?
    std::size_t queued = raw->receive_->queued_bytes();
    std::size_t wnd = kReceiveWindow > queued ? kReceiveWindow - queued : 0;
    std::size_t threshold = std::min(mss_, static_cast<std::size_t>(kReceiveWindow / 4));
    if (wnd <= raw->last_advertised_wnd_ || wnd - raw->last_advertised_wnd_ < threshold) return;
    raw->wnd_update_pending_ = true;
    cab_cpu->post_interrupt([this, id] { post_timer_marker(id, kWindowUpdate); });
  });
  connections_.emplace(raw->id_, std::move(c));
  return raw;
}

TcpConnection* Tcp::find(std::uint32_t id) {
  auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

TcpConnection* Tcp::lookup(IpAddr raddr, std::uint16_t rport, std::uint16_t lport) {
  TcpConnection* listener = nullptr;
  for (auto& [id, c] : connections_) {
    if (c->state_ == TcpConnection::State::Closed) continue;
    if (c->local_port_ != lport) continue;
    if (c->remote_addr_ == raddr && c->remote_port_ == rport) return c.get();
    if (c->state_ == TcpConnection::State::Listen) listener = c.get();
  }
  return listener;
}

TcpConnection* Tcp::connect(std::uint16_t local_port, IpAddr dst, std::uint16_t dst_port) {
  core::LockGuard g(lock_);
  TcpConnection* c = make_connection(local_port);
  c->remote_addr_ = dst;
  c->remote_port_ = dst_port;
  c->iss_ = next_iss_;
  next_iss_ += 64000;
  c->snd_una_ = c->iss_;
  c->snd_nxt_ = c->iss_ + 1;
  c->snd_end_ = c->iss_ + 1;
  c->state_ = TcpConnection::State::SynSent;
  emit(c, kTcpSyn, c->iss_, 0, 0);
  arm_retransmit(c);
  return c;
}

TcpConnection* Tcp::listen(std::uint16_t port) {
  core::LockGuard g(lock_);
  TcpConnection* c = make_connection(port);
  c->state_ = TcpConnection::State::Listen;
  return c;
}

TcpListener* Tcp::open_listener(std::uint16_t port) {
  core::LockGuard g(lock_);
  auto& slot = listeners_[port];
  if (!slot) slot = std::make_unique<TcpListener>();
  slot->port = port;
  slot->open = true;
  return slot.get();
}

TcpConnection* Tcp::accept(TcpListener* l) {
  core::LockGuard g(lock_);
  while (l->ready.empty() && l->open) state_cv_.wait(lock_);
  if (l->ready.empty()) return nullptr;  // listener closed while waiting
  TcpConnection* c = l->ready.front();
  l->ready.pop_front();
  ++l->accepted;
  return c;
}

void Tcp::close_listener(TcpListener* l) {
  core::LockGuard g(lock_);
  l->open = false;
  state_cv_.broadcast();  // release blocked accept() callers
}

bool Tcp::wait_established(TcpConnection* c) {
  core::LockGuard g(lock_);
  while (c->state_ == TcpConnection::State::SynSent ||
         c->state_ == TcpConnection::State::SynRcvd ||
         c->state_ == TcpConnection::State::Listen) {
    state_cv_.wait(lock_);
  }
  return c->established();
}

void Tcp::wait_drained(TcpConnection* c) {
  core::LockGuard g(lock_);
  while (c->unacked_bytes() > 0 && !c->closed()) {
    state_cv_.wait(lock_);
  }
}

void Tcp::wait_send_window(TcpConnection* c, std::uint32_t max_unacked) {
  core::LockGuard g(lock_);
  while (c->unacked_bytes() >= max_unacked && !c->closed()) {
    state_cv_.wait(lock_);
  }
}

void Tcp::wake_state_waiters(TcpConnection* c) {
  (void)c;
  state_cv_.broadcast();
}

void Tcp::destroy(TcpConnection* c) {
  core::Cpu& cpu = runtime().cpu();
  if (c->retx_timer_set_) {
    cpu.cancel_timer(c->retx_timer_);
    c->retx_timer_set_ = false;
  }
  for (auto& item : c->send_queue_) {
    if (item.free_when_acked) input_.end_get(item.msg);
  }
  c->send_queue_.clear();
  for (auto& [seq, m] : c->out_of_order_) input_.end_get(m);
  c->out_of_order_.clear();
  c->state_ = TcpConnection::State::Closed;
  wake_state_waiters(c);
}

// --- send path -------------------------------------------------------------------

std::uint32_t Tcp::effective_window(TcpConnection* c) const {
  if (!config_.congestion_control) return c->snd_wnd_;
  return std::min(c->snd_wnd_, c->cwnd_);
}

void Tcp::cc_init(TcpConnection* c) {
  c->cwnd_ = static_cast<std::uint32_t>(mss_);
  c->ssthresh_ = 64 * 1024;
  c->dup_acks_ = 0;
}

void Tcp::cc_on_new_ack(TcpConnection* c, std::uint32_t acked_bytes) {
  c->dup_acks_ = 0;
  if (!config_.congestion_control) return;
  if (c->cwnd_ < c->ssthresh_) {
    // Slow start: one MSS per ACK (bounded by what was actually acked).
    c->cwnd_ += std::min<std::uint32_t>(static_cast<std::uint32_t>(mss_), acked_bytes);
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    c->cwnd_ += std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(mss_ * mss_ / std::max<std::uint32_t>(c->cwnd_, 1)));
  }
}

void Tcp::cc_on_loss(TcpConnection* c, bool fast) {
  if (!config_.congestion_control) return;
  std::uint32_t flight = c->snd_nxt_ - c->snd_una_;
  c->ssthresh_ = std::max<std::uint32_t>(flight / 2, 2 * static_cast<std::uint32_t>(mss_));
  c->cwnd_ = fast ? c->ssthresh_ : static_cast<std::uint32_t>(mss_);
}

void Tcp::retransmit_head(TcpConnection* c) {
  for (const auto& item : c->send_queue_) {
    if (seq_le(item.seq_lo, c->snd_una_) && seq_lt(c->snd_una_, item.seq_lo + item.msg.len)) {
      std::uint32_t off = c->snd_una_ - item.seq_lo;
      std::size_t chunk = std::min<std::size_t>(mss_, item.msg.len - off);
      chunk = std::min<std::size_t>(chunk, c->snd_end_ - c->snd_una_);
      ++c->retransmissions_;
      c->rtt_samples_.clear();  // Karn
      obs::annotate(item.ctx, "tcp.retx");
      obs::stage(item.ctx, "tx.tcp", ip_.runtime().node_id());
      emit(c, kTcpAck | kTcpPsh, c->snd_una_, item.msg.data + off, chunk, item.ctx);
      return;
    }
  }
}

std::uint16_t Tcp::advertised_window(TcpConnection* c) const {
  std::size_t queued = c->receive_->queued_bytes();
  std::size_t wnd = kReceiveWindow > queued ? kReceiveWindow - queued : 0;
  return static_cast<std::uint16_t>(std::min<std::size_t>(wnd, 0xFFFF));
}

void Tcp::emit(TcpConnection* c, std::uint8_t flags, std::uint32_t seq, hw::CabAddr payload,
               std::size_t len, obs::TraceContext tctx) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("tcp/output");
  cpu.charge(costs::kTcpSegment);

  TcpHeader th;
  th.src_port = c->local_port_;
  th.dst_port = c->remote_port_;
  th.seq = seq;
  th.flags = flags;
  if (flags & kTcpAck) th.ack = c->rcv_nxt_;
  th.window = advertised_window(c);
  c->last_advertised_wnd_ = th.window;
  HeaderBufLease lease = HeaderBufLease::acquire();
  std::span<std::uint8_t> hdr = lease->push_front(TcpHeader::kSize);
  th.serialize(hdr);

  if (config_.software_checksum) {
    obs::CostScope cksum("tcp/checksum");
    // §6.2: "the cost of doing TCP checksums in software" — charged per byte.
    cpu.charge(checksum_cost(TcpHeader::kSize + len + PseudoHeader::kSize));
    PseudoHeader ph{ip_.address(), c->remote_addr_, kProtoTcp,
                    static_cast<std::uint16_t>(TcpHeader::kSize + len)};
    std::array<std::uint8_t, PseudoHeader::kSize> pseudo;
    ph.serialize(pseudo);
    InternetChecksum ck;
    ck.update(pseudo);
    ck.update(hdr);
    if (len > 0) ck.update(runtime().board().memory().view(payload, len));
    put16(hdr, 16, ck.value());
  }

  ++segs_sent_;
  runtime().trace_mark("tcp.segment-sent");
  Ip::OutputInfo info;
  info.dst = c->remote_addr_;
  info.protocol = kProtoTcp;
  ip_.output(info, std::move(lease), payload, len, {}, tctx);
}

void Tcp::send(TcpConnection* c, core::Message data, bool free_when_acked,
               obs::TraceContext tctx) {
  core::LockGuard g(lock_);
  obs::stage(tctx, "tx.tcp.queue", ip_.runtime().node_id());
  c->send_queue_.push_back({data, c->snd_end_, free_when_acked, tctx});
  c->snd_end_ += data.len;
  try_transmit(c);
}

void Tcp::close(TcpConnection* c) {
  core::LockGuard g(lock_);
  switch (c->state_) {
    case TcpConnection::State::Listen:
    case TcpConnection::State::SynSent:
      destroy(c);
      return;
    case TcpConnection::State::SynRcvd:
    case TcpConnection::State::Established:
      c->fin_queued_ = true;
      c->state_ = TcpConnection::State::FinWait1;
      break;
    case TcpConnection::State::CloseWait:
      c->fin_queued_ = true;
      c->state_ = TcpConnection::State::LastAck;
      break;
    default:
      return;  // close is idempotent in the closing states
  }
  try_transmit(c);
}

void Tcp::maybe_send_fin(TcpConnection* c) {
  if (!c->fin_queued_ || c->fin_sent_) return;
  if (c->snd_nxt_ != c->snd_end_) return;  // data still unsent
  emit(c, kTcpFin | kTcpAck, c->snd_nxt_, 0, 0);
  c->fin_sent_ = true;
  ++c->snd_nxt_;  // FIN consumes one sequence number
  arm_retransmit(c);
}

void Tcp::try_transmit(TcpConnection* c) {
  if (c->state_ != TcpConnection::State::Established &&
      c->state_ != TcpConnection::State::CloseWait &&
      c->state_ != TcpConnection::State::FinWait1 &&
      c->state_ != TcpConnection::State::LastAck) {
    return;
  }
  std::uint32_t wnd_limit = c->snd_una_ + effective_window(c);
  while (seq_lt(c->snd_nxt_, c->snd_end_) && seq_lt(c->snd_nxt_, wnd_limit)) {
    std::uint32_t usable = std::min(wnd_limit - c->snd_nxt_, c->snd_end_ - c->snd_nxt_);
    std::size_t chunk = std::min<std::size_t>(usable, mss_);
    // Locate the send-queue item containing snd_nxt (items are contiguous
    // in sequence space); segments do not cross message boundaries so the
    // gather stays a single memory range.
    const TcpConnection::SendItem* item = nullptr;
    for (const auto& it : c->send_queue_) {
      if (seq_le(it.seq_lo, c->snd_nxt_) && seq_lt(c->snd_nxt_, it.seq_lo + it.msg.len)) {
        item = &it;
        break;
      }
    }
    assert(item != nullptr && "send queue out of sync with sequence space");
    std::uint32_t off = c->snd_nxt_ - item->seq_lo;
    chunk = std::min<std::size_t>(chunk, item->msg.len - off);
    c->rtt_samples_.emplace(c->snd_nxt_ + static_cast<std::uint32_t>(chunk),
                            runtime().engine().now());
    // First transmission of a traced message's first segment: close the
    // window-wait ("tx.tcp.queue") stage.
    if (off == 0) obs::stage(item->ctx, "tx.tcp", ip_.runtime().node_id());
    emit(c, kTcpAck | kTcpPsh, c->snd_nxt_, item->msg.data + off, chunk, item->ctx);
    c->snd_nxt_ += static_cast<std::uint32_t>(chunk);
  }
  if (seq_lt(c->snd_una_, c->snd_nxt_) ||
      (c->snd_wnd_ == 0 && seq_lt(c->snd_nxt_, c->snd_end_))) {
    arm_retransmit(c);
  }
  maybe_send_fin(c);
}

// --- timers ------------------------------------------------------------------------

void Tcp::post_timer_marker(std::uint32_t conn_id, std::uint32_t kind) {
  // Interrupt context: hand the event to the input thread via a marker
  // message so all TCP state is touched under the thread-level lock.
  auto m = input_.begin_put_try(8);
  if (!m.has_value()) {
    // Input mailbox starved: retry shortly rather than losing the timeout.
    runtime().cpu().set_timer(runtime().engine().now() + sim::msec(1),
                              [this, conn_id, kind] { post_timer_marker(conn_id, kind); });
    return;
  }
  hw::CabMemory& mem = runtime().board().memory();
  mem.write32(m->data, conn_id);
  mem.write32(m->data + 4, kind);
  input_.end_put(*m);
}

void Tcp::handle_timer_marker(std::uint32_t conn_id, std::uint32_t kind) {
  core::LockGuard g(lock_);
  if (kind == kTimerRetransmit) {
    on_retransmit_timeout(conn_id);
  } else if (kind == kTimerTimeWait) {
    TcpConnection* c = find(conn_id);
    if (c != nullptr && c->state_ == TcpConnection::State::TimeWait) destroy(c);
  } else if (kind == kWindowUpdate) {
    TcpConnection* c = find(conn_id);
    if (c == nullptr) return;
    c->wnd_update_pending_ = false;
    if (c->state_ != TcpConnection::State::Established &&
        c->state_ != TcpConnection::State::FinWait1 &&
        c->state_ != TcpConnection::State::FinWait2) {
      return;
    }
    // Announce only meaningful growth (silly-window avoidance).
    std::uint16_t now_wnd = advertised_window(c);
    if (now_wnd > c->last_advertised_wnd_ &&
        static_cast<std::size_t>(now_wnd - c->last_advertised_wnd_) >=
            std::min(mss_, static_cast<std::size_t>(kReceiveWindow / 4))) {
      emit(c, kTcpAck, c->snd_nxt_, 0, 0);
    }
  }
}

void Tcp::arm_retransmit(TcpConnection* c) {
  if (c->retx_timer_set_) return;
  c->retx_timer_set_ = true;
  std::uint32_t id = c->id_;
  c->retx_timer_ =
      runtime().cpu().set_timer(runtime().engine().now() + c->rto_,
                                [this, id] { post_timer_marker(id, kTimerRetransmit); });
}

void Tcp::cancel_retransmit(TcpConnection* c) {
  if (!c->retx_timer_set_) return;
  runtime().cpu().cancel_timer(c->retx_timer_);
  c->retx_timer_set_ = false;
}

void Tcp::on_retransmit_timeout(std::uint32_t conn_id) {
  // Runs in the input thread with lock_ held (via handle_timer_marker).
  TcpConnection* c = find(conn_id);
  if (c == nullptr || c->closed()) return;
  if (!c->retx_timer_set_) return;  // stale: timer was cancelled after posting
  c->retx_timer_set_ = false;

  // Karn's rule: outstanding RTT samples are invalid after a retransmission.
  c->rtt_samples_.clear();
  c->rto_ = std::min(c->rto_ * 2, kMaxRto);
  window_point(c, "tcp.rto");

  switch (c->state_) {
    case TcpConnection::State::SynSent:
      ++c->retransmissions_;
      emit(c, kTcpSyn, c->iss_, 0, 0);
      arm_retransmit(c);
      return;
    case TcpConnection::State::SynRcvd:
      ++c->retransmissions_;
      emit(c, kTcpSyn | kTcpAck, c->iss_, 0, 0);
      arm_retransmit(c);
      return;
    default:
      break;
  }

  if (seq_lt(c->snd_una_, c->snd_nxt_)) {
    // Resend one segment from the left window edge.
    cc_on_loss(c, /*fast=*/false);
    if (c->fin_sent_ && c->snd_una_ == c->snd_end_) {
      ++c->retransmissions_;
      emit(c, kTcpFin | kTcpAck, c->snd_end_, 0, 0);
    } else {
      retransmit_head(c);
    }
    arm_retransmit(c);
  } else if (c->snd_wnd_ == 0 && seq_lt(c->snd_nxt_, c->snd_end_)) {
    // Zero-window probe: one byte past the window edge.
    for (const auto& item : c->send_queue_) {
      if (seq_le(item.seq_lo, c->snd_nxt_) && seq_lt(c->snd_nxt_, item.seq_lo + item.msg.len)) {
        std::uint32_t off = c->snd_nxt_ - item.seq_lo;
        ++c->retransmissions_;
        c->rtt_samples_.clear();
        emit(c, kTcpAck, c->snd_nxt_, item.msg.data + off, 1, item.ctx);
        c->snd_nxt_ += 1;
        break;
      }
    }
    arm_retransmit(c);
  }
}

void Tcp::rtt_sample(TcpConnection* c, sim::SimTime rtt) {
  if (c->srtt_ == 0) {
    c->srtt_ = rtt;
    c->rttvar_ = rtt / 2;
  } else {
    sim::SimTime err = rtt - c->srtt_;
    c->srtt_ += err / 8;
    c->rttvar_ += (std::abs(err) - c->rttvar_) / 4;
  }
  c->rto_ = std::clamp(c->srtt_ + 4 * c->rttvar_, kMinRto, kMaxRto);
}

// --- input path -----------------------------------------------------------------------

void Tcp::input_loop() {
  hw::CabMemory& mem = runtime().board().memory();
  for (;;) {
    core::Message m = input_.begin_get();
    if (m.len == 8) {
      // Timer marker from interrupt level (see post_timer_marker).
      std::uint32_t conn_id = mem.read32(m.data);
      std::uint32_t kind = mem.read32(m.data + 4);
      input_.end_get(m);
      handle_timer_marker(conn_id, kind);
      continue;
    }
    process_segment(m);
  }
}

void Tcp::process_segment(core::Message m) {
  core::Cpu& cpu = runtime().cpu();
  hw::CabMemory& mem = runtime().board().memory();
  core::LockGuard g(lock_);
  obs::TraceContext rctx = obs::trace_at(ip_.runtime().node_id(), m.data);
  obs::stage(rctx, "rx.tcp", ip_.runtime().node_id());
  obs::CostScope scope("tcp/input");
  cpu.charge(costs::kTcpSegment);
  ++segs_rcvd_;
  runtime().trace_mark("tcp.segment-received");

  if (m.len < kCombinedHeader) {
    input_.end_get(m);
    return;
  }
  IpHeader iph = IpHeader::parse(mem.view(m.data, IpHeader::kSize));
  TcpHeader th = TcpHeader::parse(mem.view(m.data + IpHeader::kSize, TcpHeader::kSize));
  std::size_t tcp_len = m.len - IpHeader::kSize;
  std::size_t payload_len = tcp_len - TcpHeader::kSize;

  // §4.2: the input thread "checksums the entire packet".
  if (config_.software_checksum && th.checksum != 0) {
    obs::CostScope cksum("tcp/checksum");
    cpu.charge(checksum_cost(tcp_len + PseudoHeader::kSize));
    PseudoHeader ph{iph.src, iph.dst, kProtoTcp, static_cast<std::uint16_t>(tcp_len)};
    std::array<std::uint8_t, PseudoHeader::kSize> pseudo;
    ph.serialize(pseudo);
    InternetChecksum ck;
    ck.update(pseudo);
    ck.update(mem.view(m.data + IpHeader::kSize, tcp_len));
    if (ck.value() != 0) {
      ++bad_checksum_;
      obs::annotate(rctx, "drop.tcp_checksum");
      obs::stage(rctx, "loss.wait", ip_.runtime().node_id());
      input_.end_get(m);
      return;
    }
  }

  TcpConnection* c = lookup(iph.src, th.src_port, th.dst_port);
  if (c == nullptr && th.has(kTcpSyn) && !th.has(kTcpAck)) {
    // A persistent listener spawns a fresh connection per SYN.
    auto lit = listeners_.find(th.dst_port);
    if (lit != listeners_.end() && lit->second->open) {
      c = make_connection(th.dst_port);
      c->state_ = TcpConnection::State::Listen;
      c->spawned_by_ = lit->second.get();
    }
  }
  if (c == nullptr) {
    if (!th.has(kTcpRst)) {
      send_rst(iph.src, th.src_port, th.dst_port,
               th.has(kTcpAck) ? th.ack : 0,
               th.seq + static_cast<std::uint32_t>(payload_len) + (th.has(kTcpSyn) ? 1 : 0),
               !th.has(kTcpAck));
    }
    input_.end_get(m);
    return;
  }

  if (th.has(kTcpRst)) {
    c->was_reset_ = true;
    deliver_eof(c);
    destroy(c);
    input_.end_get(m);
    return;
  }

  using St = TcpConnection::State;
  switch (c->state_) {
    case St::Listen:
      if (th.has(kTcpSyn)) {
        c->remote_addr_ = iph.src;
        c->remote_port_ = th.src_port;
        c->irs_ = th.seq;
        c->rcv_nxt_ = th.seq + 1;
        c->snd_wnd_ = th.window;
        c->iss_ = next_iss_;
        next_iss_ += 64000;
        c->snd_una_ = c->iss_;
        c->snd_nxt_ = c->iss_ + 1;
        c->snd_end_ = c->iss_ + 1;
        c->state_ = St::SynRcvd;
        emit(c, kTcpSyn | kTcpAck, c->iss_, 0, 0);
        arm_retransmit(c);
      }
      input_.end_get(m);
      return;

    case St::SynSent:
      if (th.has(kTcpSyn) && th.has(kTcpAck) && th.ack == c->iss_ + 1) {
        c->irs_ = th.seq;
        c->rcv_nxt_ = th.seq + 1;
        c->snd_una_ = th.ack;
        c->snd_wnd_ = th.window;
        cancel_retransmit(c);
        c->rto_ = kInitialRto;
        enter_established(c);
        emit(c, kTcpAck, c->snd_nxt_, 0, 0);
      } else if (th.has(kTcpSyn)) {
        // Simultaneous open.
        c->irs_ = th.seq;
        c->rcv_nxt_ = th.seq + 1;
        c->snd_wnd_ = th.window;
        c->state_ = St::SynRcvd;
        emit(c, kTcpSyn | kTcpAck, c->iss_, 0, 0);
      }
      input_.end_get(m);
      return;

    default:
      break;
  }

  // Synchronized states. Handle ACK field first.
  if (th.has(kTcpAck)) handle_ack(c, th);

  if (c->state_ == St::SynRcvd && th.has(kTcpAck) && seq_gt(th.ack, c->iss_)) {
    cancel_retransmit(c);
    c->rto_ = kInitialRto;
    enter_established(c);
  }

  // Payload.
  if (payload_len > 0 &&
      (c->state_ == St::Established || c->state_ == St::FinWait1 ||
       c->state_ == St::FinWait2)) {
    core::Message payload = core::Mailbox::adjust_prefix(m, kCombinedHeader);
    deliver_payload(c, payload, th.seq);
    emit(c, kTcpAck, c->snd_nxt_, 0, 0);
  } else if (payload_len > 0) {
    input_.end_get(m);
    emit(c, kTcpAck, c->snd_nxt_, 0, 0);
  } else {
    input_.end_get(m);
  }

  // FIN processing (only once all preceding data has been received).
  if (th.has(kTcpFin) &&
      th.seq + static_cast<std::uint32_t>(payload_len) == c->rcv_nxt_) {
    c->rcv_nxt_ += 1;
    c->remote_closed_ = true;
    deliver_eof(c);
    emit(c, kTcpAck, c->snd_nxt_, 0, 0);
    switch (c->state_) {
      case St::Established:
        c->state_ = St::CloseWait;
        break;
      case St::FinWait1:
        c->state_ = St::Closing;
        break;
      case St::FinWait2:
        enter_time_wait(c);
        break;
      default:
        break;
    }
    wake_state_waiters(c);
  }

  try_transmit(c);
}

void Tcp::handle_ack(TcpConnection* c, const TcpHeader& th) {
  c->snd_wnd_ = th.window;
  if (!seq_gt(th.ack, c->snd_una_)) {
    // Duplicate ACK while data is outstanding: after three, fast-retransmit
    // (extension; active only with congestion control enabled).
    if (config_.congestion_control && th.ack == c->snd_una_ &&
        seq_lt(c->snd_una_, c->snd_nxt_)) {
      if (++c->dup_acks_ == 3) {
        ++c->fast_retx_;
        cc_on_loss(c, /*fast=*/true);
        window_point(c, "tcp.fast_retx");
        retransmit_head(c);
      }
    }
    return;
  }
  if (seq_gt(th.ack, c->snd_nxt_)) return;  // acks data we never sent

  std::uint32_t acked_bytes = th.ack - c->snd_una_;
  c->snd_una_ = th.ack;
  cc_on_new_ack(c, acked_bytes);
  window_point(c);

  // RTT samples (Karn-filtered: cleared on any retransmission).
  for (auto it = c->rtt_samples_.begin(); it != c->rtt_samples_.end();) {
    if (seq_le(it->first, th.ack)) {
      rtt_sample(c, runtime().engine().now() - it->second);
      it = c->rtt_samples_.erase(it);
    } else {
      ++it;
    }
  }

  // Release fully acknowledged send buffers.
  while (!c->send_queue_.empty()) {
    auto& item = c->send_queue_.front();
    if (!seq_le(item.seq_lo + item.msg.len, c->snd_una_)) break;
    if (item.free_when_acked) input_.end_get(item.msg);
    c->send_queue_.pop_front();
  }

  cancel_retransmit(c);
  if (seq_lt(c->snd_una_, c->snd_nxt_)) {
    arm_retransmit(c);
  } else {
    c->rto_ = std::clamp(c->srtt_ + 4 * c->rttvar_, kMinRto, kMaxRto);
  }

  // FIN acknowledged?
  using St = TcpConnection::State;
  if (c->fin_sent_ && th.ack == c->snd_end_ + 1) {
    switch (c->state_) {
      case St::FinWait1:
        c->state_ = St::FinWait2;
        break;
      case St::Closing:
        enter_time_wait(c);
        break;
      case St::LastAck:
        destroy(c);
        break;
      default:
        break;
    }
  }
  wake_state_waiters(c);
}

void Tcp::deliver_payload(TcpConnection* c, core::Message payload, std::uint32_t seq) {
  // Trim anything we already have.
  if (seq_lt(seq, c->rcv_nxt_)) {
    std::uint32_t overlap = c->rcv_nxt_ - seq;
    if (overlap >= payload.len) {
      input_.end_get(payload);  // pure duplicate
      return;
    }
    payload = core::Mailbox::adjust_prefix(payload, overlap);
    seq = c->rcv_nxt_;
  }
  if (seq == c->rcv_nxt_) {
    c->rcv_nxt_ += payload.len;
    obs::stage(obs::trace_at(ip_.runtime().node_id(), payload.data), "mbox.wait",
               ip_.runtime().node_id());
    // §4.2: "TCP simply deletes the headers and transfers the packet to the
    // user's receive mailbox using the Enqueue operation."
    input_.enqueue(payload, *c->receive_);
    drain_out_of_order(c);
    return;
  }
  // Out of order: hold for later (first copy at a given seq wins).
  if (c->out_of_order_.count(seq) == 0) {
    c->out_of_order_.emplace(seq, payload);
  } else {
    input_.end_get(payload);
  }
}

void Tcp::drain_out_of_order(TcpConnection* c) {
  for (;;) {
    auto it = c->out_of_order_.begin();
    if (it == c->out_of_order_.end() || seq_gt(it->first, c->rcv_nxt_)) return;
    std::uint32_t seq = it->first;
    core::Message m = it->second;
    c->out_of_order_.erase(it);
    if (seq_lt(seq, c->rcv_nxt_)) {
      std::uint32_t overlap = c->rcv_nxt_ - seq;
      if (overlap >= m.len) {
        input_.end_get(m);
        continue;
      }
      m = core::Mailbox::adjust_prefix(m, overlap);
    }
    c->rcv_nxt_ += m.len;
    obs::stage(obs::trace_at(ip_.runtime().node_id(), m.data), "mbox.wait",
               ip_.runtime().node_id());
    input_.enqueue(m, *c->receive_);
  }
}

void Tcp::window_point(TcpConnection* c, const char* kind) {
  if (kind != nullptr) {
    runtime().log(kind, "conn=" + std::to_string(c->id_) + " cwnd=" + std::to_string(c->cwnd_) +
                            " ssthresh=" + std::to_string(c->ssthresh_) + " srtt_ns=" +
                            std::to_string(c->srtt_) + " rto_ns=" + std::to_string(c->rto_) +
                            " snd_una=" + std::to_string(c->snd_una_) + " snd_nxt=" +
                            std::to_string(c->snd_nxt_) + " rcv_nxt=" +
                            std::to_string(c->rcv_nxt_));
  }
  core::Cpu& cpu = runtime().cpu();
  if (!obs::tracing(cpu.tracer())) return;
  // One counter pair per connection: Chrome traces key counters by
  // (process, name), and a node runs several connections.
  const std::string conn = "conn" + std::to_string(c->id_);
  cpu.tracer()->counter(cpu.trace_track(), conn + ".cwnd", c->cwnd_);
  cpu.tracer()->counter(cpu.trace_track(), conn + ".ssthresh", c->ssthresh_);
}

void Tcp::enter_established(TcpConnection* c) {
  c->state_ = TcpConnection::State::Established;
  cc_init(c);
  window_point(c, "tcp.established");
  if (c->spawned_by_ != nullptr) {
    c->spawned_by_->ready.push_back(c);
    c->spawned_by_ = nullptr;
  }
  wake_state_waiters(c);
}

void Tcp::enter_time_wait(TcpConnection* c) {
  c->state_ = TcpConnection::State::TimeWait;
  std::uint32_t id = c->id_;
  c->time_wait_timer_ =
      runtime().cpu().set_timer(runtime().engine().now() + kTimeWait,
                                [this, id] { post_timer_marker(id, kTimerTimeWait); });
  wake_state_waiters(c);
}

void Tcp::deliver_eof(TcpConnection* c) {
  // End-of-stream marker: a zero-length message in the receive mailbox.
  auto m = c->receive_->begin_put_try(0);
  if (m.has_value()) c->receive_->end_put(*m);
}

void Tcp::send_rst(IpAddr dst, std::uint16_t dst_port, std::uint16_t src_port, std::uint32_t seq,
                   std::uint32_t ack, bool with_ack) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("tcp/output");
  cpu.charge(costs::kTcpSegment);
  ++rst_sent_;
  TcpHeader th;
  th.src_port = src_port;
  th.dst_port = dst_port;
  th.seq = seq;
  th.flags = kTcpRst;
  if (with_ack) {
    th.flags |= kTcpAck;
    th.ack = ack;
  }
  HeaderBufLease lease = HeaderBufLease::acquire();
  std::span<std::uint8_t> hdr = lease->push_front(TcpHeader::kSize);
  th.serialize(hdr);
  if (config_.software_checksum) {
    obs::CostScope cksum("tcp/checksum");
    cpu.charge(checksum_cost(TcpHeader::kSize + PseudoHeader::kSize));
    PseudoHeader ph{ip_.address(), dst, kProtoTcp, TcpHeader::kSize};
    std::array<std::uint8_t, PseudoHeader::kSize> pseudo;
    ph.serialize(pseudo);
    InternetChecksum ck;
    ck.update(pseudo);
    ck.update(hdr);
    put16(hdr, 16, ck.value());
  }
  ++segs_sent_;
  Ip::OutputInfo info;
  info.dst = dst;
  info.protocol = kProtoTcp;
  ip_.output(info, std::move(lease), 0, 0);
}

// --- send-request mailbox (§4.2) ----------------------------------------------------------

void Tcp::send_request_loop() {
  hw::CabMemory& mem = runtime().board().memory();
  for (;;) {
    core::Message req = send_req_.begin_get();
    if (req.len < 16) {
      send_req_.end_get(req);
      continue;
    }
    std::uint32_t conn_id = mem.read32(req.data);
    std::uint32_t flags = mem.read32(req.data + 4);
    std::uint32_t ext_addr = mem.read32(req.data + 8);
    std::uint32_t ext_len = mem.read32(req.data + 12);
    TcpConnection* c = find(conn_id);
    if (c == nullptr || c->closed()) {
      send_req_.end_get(req);
      continue;
    }
    if (flags & kSendReqInline) {
      // §4.2: "The data to be sent may be placed in the send-request mailbox
      // following the request" — strip the header and send in place.
      core::Message data = core::Mailbox::adjust_prefix(req, 16);
      send(c, data, /*free_when_acked=*/true);
    } else {
      // "...or it may already exist in some other mailbox, in which case the
      // user includes a pointer to it in the request."
      core::Message data;
      data.data = ext_addr;
      data.len = ext_len;
      data.block = ext_addr;
      data.block_len = ext_len;
      send(c, data, /*free_when_acked=*/false);
      send_req_.end_get(req);
    }
  }
}

}  // namespace nectar::proto
