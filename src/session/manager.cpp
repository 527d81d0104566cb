#include "session/manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/cpu.hpp"
#include "sim/costs.hpp"

namespace nectar::session {

namespace costs = sim::costs;

namespace {

/// WDRR bytes per weight unit per visit.
constexpr std::uint32_t kQuantum = 256;
/// Trunk messages queued per RMP peer before the pumper paces. RMP is
/// stop-and-wait per destination, so depth beyond "one in flight, one
/// staged" buys no pipelining — it only lets the pumper ship tiny batches
/// as fast as producers trickle, and the per-message overhead then starves
/// the producers of CPU (1 frame/msg lockstep). A cap of 2 makes the
/// pumper block for a full trunk RTT while frames accumulate into big
/// batches.
constexpr std::size_t kRmpQueueCap = 2;

}  // namespace

SessionManager::SessionManager(core::CabRuntime& rt, int node, nproto::Rmp& rmp,
                               SessionConfig cfg)
    : rt_(rt),
      node_(node),
      rmp_(rmp),
      cfg_(cfg),
      scratch_(rt.create_mailbox("session-scratch")),
      metrics_reg_(rt.metrics()) {
  metrics_reg_.probe(node_, "session", "channels_failed",
                     [this] { return static_cast<std::int64_t>(failed_); });
  metrics_reg_.probe(node_, "session", "channels_refused",
                     [this] { return static_cast<std::int64_t>(refused_); });
  metrics_reg_.probe(node_, "session", "frames_sent",
                     [this] { return static_cast<std::int64_t>(frames_sent_); });
  metrics_reg_.probe(node_, "session", "frames_delivered",
                     [this] { return static_cast<std::int64_t>(frames_delivered_); });
  metrics_reg_.probe(node_, "session", "credit_stalls",
                     [this] { return static_cast<std::int64_t>(credit_stalls_); });
  metrics_reg_.probe(node_, "session", "trunk_failures",
                     [this] { return static_cast<std::int64_t>(trunk_failures_); });
}

// --- trunks -----------------------------------------------------------------

int SessionManager::add_rmp_trunk(int peer_node) {
  int idx = static_cast<int>(trunks_.size());
  trunks_.push_back(std::make_unique<Trunk>());
  Trunk& t = *trunks_.back();
  t.peer = peer_node;
  t.rx = &rt_.create_mailbox("session-trunk" + std::to_string(idx));
  std::string pfx = "trunk" + std::to_string(idx) + ".";
  Trunk* tp = &t;
  metrics_reg_.probe(node_, "session", pfx + "channels", [tp] {
    return static_cast<std::int64_t>(tp->outbound_live + tp->inbound_live);
  });
  metrics_reg_.probe(node_, "session", pfx + "credit_stalls",
                     [tp] { return static_cast<std::int64_t>(tp->credit_stalls); });
  metrics_reg_.probe(node_, "session", pfx + "tx_msgs",
                     [tp] { return static_cast<std::int64_t>(tp->tx_msgs); });
  metrics_reg_.probe(node_, "session", pfx + "tx_frames",
                     [tp] { return static_cast<std::int64_t>(tp->tx_frames); });
  return idx;
}

core::MailboxAddr SessionManager::trunk_local_address(int trunk) const {
  return trunk_at(trunk).rx->address();
}

void SessionManager::connect_rmp_trunk(int trunk, core::MailboxAddr peer_rx) {
  Trunk& t = trunk_at(trunk);
  t.peer_addr = peer_rx;
  start_trunk_threads(trunk);
}

std::pair<int, int> SessionManager::connect_rmp_pair(SessionManager& a, SessionManager& b) {
  int ta = a.add_rmp_trunk(b.node());
  int tb = b.add_rmp_trunk(a.node());
  a.connect_rmp_trunk(ta, b.trunk_local_address(tb));
  b.connect_rmp_trunk(tb, a.trunk_local_address(ta));
  return {ta, tb};
}

bool SessionManager::trunk_failed(int trunk) const { return trunk_at(trunk).failed; }
std::uint64_t SessionManager::trunk_tx_msgs(int trunk) const { return trunk_at(trunk).tx_msgs; }
std::uint64_t SessionManager::trunk_tx_frames(int trunk) const { return trunk_at(trunk).tx_frames; }
std::uint64_t SessionManager::trunk_tx_fast(int trunk) const { return trunk_at(trunk).tx_fast; }

void SessionManager::start_trunk_threads(int trunk) {
  rt_.fork_system("session-tx" + std::to_string(trunk), [this, trunk] { pump_loop(trunk); });
  rt_.fork_system("session-rx" + std::to_string(trunk), [this, trunk] { reader_loop(trunk); });
}

// --- channel lifecycle (initiator side) -------------------------------------

SessionManager::ChannelHandle SessionManager::open_channel(int trunk, std::uint8_t priority,
                                                           std::uint8_t weight) {
  core::Cpu& cpu = rt_.cpu();
  cpu.charge(costs::kSessionOpen);
  core::InterruptGuard g(cpu);
  Trunk& t = trunk_at(trunk);
  if (t.failed) {
    ++refused_;
    return kNoHandle;
  }
  std::uint16_t id;
  if (!t.free_ids.empty()) {
    id = t.free_ids.back();
    t.free_ids.pop_back();
  } else {
    if (t.next_id > 0xffff) {
      ++refused_;
      return kNoHandle;  // 16-bit id space exhausted on this trunk
    }
    id = static_cast<std::uint16_t>(t.next_id++);
    t.gen_of.push_back(0);
    t.handle_of.push_back(kNoHandle);
  }
  ChannelHandle h = static_cast<ChannelHandle>(channels_.size());
  SendChannel c;
  c.trunk = trunk;
  c.id = id;
  c.gen = t.gen_of[id];
  c.priority = priority;
  c.weight = weight == 0 ? 1 : weight;
  channels_.push_back(std::move(c));
  t.handle_of[id] = h;
  ++t.outbound_live;
  queue_control(t, FrameHeader{id, t.gen_of[id], FrameType::Open,
                               FrameHeader::pack_open_params(priority, weight), 0, 0});
  wake_pumper(t);
  return h;
}

SendResult SessionManager::try_send(ChannelHandle h, std::span<const std::uint8_t> payload) {
  core::Cpu& cpu = rt_.cpu();
  cpu.charge(costs::kSessionStage);
  core::InterruptGuard g(cpu);
  SendChannel& c = chan(h);
  switch (c.st) {
    case ChannelState::Opening:
    case ChannelState::Open:
      break;
    case ChannelState::Failed:
    case ChannelState::Refused:
      return SendResult::Failed;
    default:
      return SendResult::NotOpen;
  }
  if (c.pending.size() - c.pend_head >= cfg_.send_window) return SendResult::Backpressure;
  Staged s;
  s.bytes.assign(payload.begin(), payload.end());
  c.pending.push_back(std::move(s));
  Trunk& t = trunk_at(c.trunk);
  if (c.st == ChannelState::Open) {
    if (c.credit == 0) {
      if (!c.stall_counted) {
        c.stall_counted = true;
        ++credit_stalls_;
        ++t.credit_stalls;
      }
    } else {
      enqueue_ready(t, h);
      wake_pumper(t);
    }
  }
  return SendResult::Ok;
}

void SessionManager::close_channel(ChannelHandle h) {
  core::Cpu& cpu = rt_.cpu();
  core::InterruptGuard g(cpu);
  SendChannel& c = chan(h);
  if (c.st != ChannelState::Opening && c.st != ChannelState::Open) return;
  Staged s;
  s.is_close = true;
  c.pending.push_back(std::move(s));
  ChannelState prev = c.st;
  c.st = ChannelState::Draining;
  if (prev == ChannelState::Open) {
    Trunk& t = trunk_at(c.trunk);
    enqueue_ready(t, h);
    wake_pumper(t);
  }
}

ChannelState SessionManager::state(ChannelHandle h) const { return chan(h).st; }
std::uint16_t SessionManager::wire_id(ChannelHandle h) const { return chan(h).id; }

void SessionManager::freeze_inbound_credit(int trunk, std::uint16_t channel, bool frozen) {
  core::InterruptGuard g(rt_.cpu());
  Trunk& t = trunk_at(trunk);
  if (channel >= t.inbound.size() || !t.inbound[channel].in_use) return;
  RecvChannel& rc = t.inbound[channel];
  if (rc.frozen == frozen) return;
  rc.frozen = frozen;
  if (!frozen && rc.consumed > 0) {
    // Flush the withheld grant so the starved sender resumes immediately.
    queue_control(t, FrameHeader{channel, rc.gen, FrameType::Credit, 0,
                                 static_cast<std::uint16_t>(rc.consumed), 0});
    rc.consumed = 0;
    wake_pumper(t);
  }
}

// --- scheduler / pump -------------------------------------------------------

bool SessionManager::channel_ready(const SendChannel& c) const {
  if (c.st != ChannelState::Open && c.st != ChannelState::Draining) return false;
  if (c.pend_head >= c.pending.size()) return false;
  return c.pending[c.pend_head].is_close || c.credit > 0;
}

void SessionManager::enqueue_ready(Trunk& t, ChannelHandle h) {
  SendChannel& c = chan(h);
  if (c.in_ready || !channel_ready(c)) return;
  int cls = std::min<int>(c.priority, kClasses - 1);
  t.ready[static_cast<std::size_t>(cls)].push_back(h);
  c.in_ready = true;
}

void SessionManager::queue_control(Trunk& t, const FrameHeader& h) { t.control.push_back(h); }

bool SessionManager::trunk_has_work(const Trunk& t) const {
  if (!t.control.empty()) return true;
  for (const auto& q : t.ready) {
    if (!q.empty()) return true;
  }
  return false;
}

void SessionManager::wake_pumper(Trunk& t) {
  if (t.pumper_idle && t.pumper != nullptr) {
    t.pumper_idle = false;
    rt_.cpu().wake(t.pumper);
  }
}

void SessionManager::pump_loop(int trunk) {
  Trunk& t = trunk_at(trunk);
  core::Cpu& cpu = rt_.cpu();
  for (;;) {
    {
      core::InterruptGuard g(cpu);
      t.pumper = cpu.current_thread();
      while (!trunk_has_work(t) && !t.failed) {
        t.pumper_idle = true;
        cpu.block_unmasked();
      }
      t.pumper_idle = false;
      if (t.failed) return;
    }
    // Linger briefly so a producer burst coalesces into one batch instead of
    // shipping the first frame alone (see SessionConfig::aggregation).
    if (cfg_.aggregation > 0) cpu.sleep_for(cfg_.aggregation);
    if (t.failed) return;
    // Pace against the trunk transport before composing the next batch, so
    // frames keep accumulating (and batches keep growing) while it is busy.
    rmp_.wait_queue_below(t.peer, kRmpQueueCap);
    if (t.failed) return;
    emit_batch(trunk);
  }
}

std::vector<SessionManager::PlannedFrame> SessionManager::plan_batch(Trunk& t) {
  std::vector<PlannedFrame> plan;
  std::size_t space = cfg_.max_batch;

  while (!t.control.empty() && space >= FrameHeader::kSize) {
    plan.push_back(PlannedFrame{t.control.front(), {}});
    t.control.pop_front();
    space -= FrameHeader::kSize;
  }

  // Strict priority across classes; deficit round-robin within one. The
  // deficit persists across visits so a frame larger than one quantum still
  // progresses; `any_emitted` guarantees a non-empty batch whenever some
  // channel is ready (no livelock on fresh deficits).
  bool any_emitted = !plan.empty();
  for (std::size_t cls = 0; cls < static_cast<std::size_t>(kClasses); ++cls) {
    auto& rq = t.ready[cls];
    bool progress = true;
    while (progress && !rq.empty() && space >= FrameHeader::kSize) {
      progress = false;
      std::size_t visits = rq.size();
      for (std::size_t i = 0; i < visits && space >= FrameHeader::kSize; ++i) {
        ChannelHandle h = rq.front();
        rq.pop_front();
        SendChannel& c = chan(h);
        if (!channel_ready(c)) {
          c.in_ready = false;
          c.deficit = 0;
          if (c.st == ChannelState::Open && c.pend_head < c.pending.size() && c.credit == 0 &&
              !c.stall_counted) {
            c.stall_counted = true;
            ++credit_stalls_;
            ++t.credit_stalls;
          }
          continue;
        }
        c.deficit += kQuantum * c.weight;
        while (c.pend_head < c.pending.size()) {
          Staged& s = c.pending[c.pend_head];
          std::size_t cost = FrameHeader::kSize + s.bytes.size();
          if (space < cost) break;
          if (!s.is_close && c.credit == 0) break;
          if (c.deficit < cost && any_emitted) break;
          PlannedFrame f;
          if (s.is_close) {
            f.h = FrameHeader{c.id, c.gen, FrameType::Close, 0, 0, 0};
            c.st = ChannelState::CloseSent;
          } else {
            f.h = FrameHeader{c.id,     c.gen, FrameType::Data, c.next_seq++, 0,
                              static_cast<std::uint16_t>(s.bytes.size())};
            --c.credit;
          }
          f.payload = std::move(s.bytes);
          ++c.pend_head;
          space -= cost;
          c.deficit = c.deficit >= cost ? c.deficit - static_cast<std::uint32_t>(cost) : 0;
          plan.push_back(std::move(f));
          any_emitted = true;
          progress = true;
        }
        if (c.pend_head >= c.pending.size()) {
          c.pending.clear();
          c.pend_head = 0;
        }
        if (channel_ready(c)) {
          rq.push_back(h);  // keeps its deficit for the next visit
        } else {
          c.in_ready = false;
          c.deficit = 0;
          if (c.st == ChannelState::Open && c.pend_head < c.pending.size() && c.credit == 0 &&
              !c.stall_counted) {
            c.stall_counted = true;
            ++credit_stalls_;
            ++t.credit_stalls;
          }
        }
      }
    }
  }
  frames_sent_ += plan.size();
  t.tx_frames += plan.size();
  return plan;
}

void SessionManager::emit_batch(int trunk) {
  Trunk& t = trunk_at(trunk);
  core::Cpu& cpu = rt_.cpu();
  std::vector<PlannedFrame> plan;
  {
    core::InterruptGuard g(cpu);
    plan = plan_batch(t);
  }
  if (plan.empty()) return;

  std::size_t payload_bytes = 0;
  for (const PlannedFrame& f : plan) payload_bytes += f.payload.size();
  cpu.charge(costs::kSessionFrameSend * static_cast<sim::SimTime>(plan.size()) +
             costs::kCabCopyPerByte * static_cast<sim::SimTime>(payload_bytes));

  auto on_acked = [this, trunk] { ++trunk_at(trunk).acked_msgs; };

  // Single-DATA-frame fast path: the header rides the Rmp prefix — composed
  // through the HeaderBuf headroom on every (re)transmission, no batch copy.
  if (plan.size() == 1 && plan[0].h.type == FrameType::Data) {
    std::array<std::uint8_t, FrameHeader::kSize> hdr{};
    plan[0].h.serialize(hdr);
    core::Message m = scratch_.begin_put(static_cast<std::uint32_t>(plan[0].payload.size()));
    if (!plan[0].payload.empty()) rt_.board().memory().write(m.data, plan[0].payload);
    rmp_.send(t.peer_addr, m, /*free_when_acked=*/true, on_acked, {}, hdr);
    ++t.tx_fast;
    ++t.tx_msgs;
    arm_watchdog(trunk);
    return;
  }

  std::vector<std::uint8_t> buf;
  buf.resize(plan.size() * FrameHeader::kSize + payload_bytes);
  std::size_t off = 0;
  for (const PlannedFrame& f : plan) {
    f.h.serialize(std::span<std::uint8_t>(buf).subspan(off, FrameHeader::kSize));
    off += FrameHeader::kSize;
    std::copy(f.payload.begin(), f.payload.end(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    off += f.payload.size();
  }
  core::Message m = scratch_.begin_put(static_cast<std::uint32_t>(buf.size()));
  rt_.board().memory().write(m.data, buf);
  rmp_.send(t.peer_addr, m, /*free_when_acked=*/true, on_acked);
  ++t.tx_msgs;
  arm_watchdog(trunk);
}

// --- receive path -----------------------------------------------------------

void SessionManager::reader_loop(int trunk) {
  Trunk& t = trunk_at(trunk);
  for (;;) {
    core::Message m = t.rx->begin_get();
    handle_frames(trunk, rt_.board().memory().view(m.data, m.len));
    t.rx->end_get(m);
  }
}

void SessionManager::handle_frames(int trunk, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (bytes.size() - off >= FrameHeader::kSize) {
    FrameHeader h;
    try {
      h = FrameHeader::parse(bytes.subspan(off));
    } catch (const std::invalid_argument&) {
      ++proto_errors_;
      return;  // unknown frame type — count loudly, drop the tail
    }
    off += FrameHeader::kSize;
    std::span<const std::uint8_t> payload;
    if (h.length > 0) {
      if (off + h.length > bytes.size()) {
        ++proto_errors_;
        return;  // truncated trunk message — count loudly, drop the tail
      }
      payload = bytes.subspan(off, h.length);
      off += h.length;
    }
    rt_.cpu().charge(costs::kSessionFrameRecv);
    handle_frame(trunk, h, payload);
  }
  if (off != bytes.size()) ++proto_errors_;  // trailing garbage
}

void SessionManager::handle_open(int trunk, const FrameHeader& h) {
  core::InterruptGuard g(rt_.cpu());
  Trunk& t = trunk_at(trunk);
  if (t.inbound_live >= cfg_.max_channels) {
    queue_control(t, FrameHeader{h.channel, h.generation, FrameType::OpenNak,
                                 static_cast<std::uint16_t>(SessionReason::kAdmissionFull), 0, 0});
    rt_.log("session.admission_refused",
            "trunk" + std::to_string(trunk) + " ch" + std::to_string(h.channel) +
                ": max_channels=" + std::to_string(cfg_.max_channels) + " reached");
    wake_pumper(t);
    return;
  }
  if (h.channel >= t.inbound.size()) t.inbound.resize(h.channel + 1);
  RecvChannel& rc = t.inbound[h.channel];
  if (rc.in_use) {
    ++proto_errors_;  // duplicate OPEN on a reliable trunk: protocol bug
    return;
  }
  rc = RecvChannel{};
  rc.in_use = true;
  rc.gen = h.generation;
  ++t.inbound_live;
  queue_control(t, FrameHeader{h.channel, h.generation, FrameType::OpenAck, 0,
                               static_cast<std::uint16_t>(cfg_.initial_credit), 0});
  wake_pumper(t);
}

void SessionManager::handle_data(int trunk, const FrameHeader& h,
                                 std::span<const std::uint8_t> payload) {
  bool deliver = false;
  {
    core::InterruptGuard g(rt_.cpu());
    Trunk& t = trunk_at(trunk);
    if (h.channel >= t.inbound.size() || !t.inbound[h.channel].in_use) {
      ++proto_errors_;
      return;
    }
    RecvChannel& rc = t.inbound[h.channel];
    if (rc.gen != h.generation) {
      ++gen_mismatch_drops_;  // frame from a dead incarnation of a reused id
      return;
    }
    if (h.seq != rc.expected_seq) {
      ++proto_errors_;  // trunks are reliable+ordered; a gap is a bug
      rc.expected_seq = h.seq;
    }
    ++rc.expected_seq;
    ++frames_delivered_;
    ++t.rx_frames;
    ++rc.consumed;
    if (!rc.frozen && rc.consumed >= cfg_.refresh()) {
      queue_control(t, FrameHeader{h.channel, rc.gen, FrameType::Credit, 0,
                                   static_cast<std::uint16_t>(rc.consumed), 0});
      rc.consumed = 0;
      wake_pumper(t);
    }
    deliver = true;
  }
  if (deliver && on_deliver) on_deliver(trunk, h.channel, h.generation, payload);
}

void SessionManager::handle_frame(int trunk, const FrameHeader& h,
                                  std::span<const std::uint8_t> payload) {
  Trunk& t = trunk_at(trunk);
  if (t.failed) return;
  switch (h.type) {
    case FrameType::Data:
      handle_data(trunk, h, payload);
      return;
    case FrameType::Open:
      handle_open(trunk, h);
      return;
    case FrameType::Close: {
      core::InterruptGuard g(rt_.cpu());
      if (h.channel < t.inbound.size() && t.inbound[h.channel].in_use &&
          t.inbound[h.channel].gen == h.generation) {
        t.inbound[h.channel].in_use = false;
        --t.inbound_live;
        queue_control(t, FrameHeader{h.channel, h.generation, FrameType::CloseAck, 0, 0, 0});
        wake_pumper(t);
      } else {
        ++proto_errors_;
      }
      return;
    }
    default:
      break;
  }

  // Reverse frames: responses for channels this node initiated.
  std::function<void()> after;
  {
    core::InterruptGuard g(rt_.cpu());
    if (h.channel >= t.handle_of.size() || t.handle_of[h.channel] == kNoHandle) {
      ++proto_errors_;
      return;
    }
    ChannelHandle hd = t.handle_of[h.channel];
    SendChannel& c = chan(hd);
    if (c.gen != h.generation) {
      ++gen_mismatch_drops_;
      return;
    }
    switch (h.type) {
      case FrameType::OpenAck:
        if (c.st != ChannelState::Opening && c.st != ChannelState::Draining) {
          ++proto_errors_;
          return;
        }
        if (c.st == ChannelState::Opening) c.st = ChannelState::Open;
        c.credit = h.credit;
        c.stall_counted = false;
        ++opened_;
        enqueue_ready(t, hd);
        wake_pumper(t);
        if (on_open_result) {
          auto cb = on_open_result;
          after = [cb, hd] { cb(hd, true); };
        }
        break;
      case FrameType::OpenNak:
        c.st = ChannelState::Refused;
        c.pending.clear();
        c.pend_head = 0;
        ++refused_;
        --t.outbound_live;
        release_wire_id(t, h.channel);
        if (on_open_result) {
          auto cb = on_open_result;
          after = [cb, hd] { cb(hd, false); };
        }
        break;
      case FrameType::Credit:
        c.credit += h.credit;
        c.stall_counted = false;
        enqueue_ready(t, hd);
        wake_pumper(t);
        break;
      case FrameType::CloseAck:
        if (c.st != ChannelState::CloseSent) {
          ++proto_errors_;
          return;
        }
        c.st = ChannelState::Closed;
        ++closed_;
        --t.outbound_live;
        release_wire_id(t, h.channel);
        if (on_closed) {
          auto cb = on_closed;
          after = [cb, hd] { cb(hd); };
        }
        break;
      case FrameType::Reset: {
        c.st = ChannelState::Failed;
        c.pending.clear();
        c.pend_head = 0;
        ++failed_;
        --t.outbound_live;
        release_wire_id(t, h.channel);
        if (on_channel_failed) {
          auto cb = on_channel_failed;
          std::string why = "reset by node" + std::to_string(t.peer) + " (reason " +
                            std::to_string(h.seq) + ")";
          after = [cb, hd, why] { cb(hd, why); };
        }
        break;
      }
      default:
        ++proto_errors_;
        break;
    }
  }
  if (after) after();
}

void SessionManager::release_wire_id(Trunk& t, std::uint16_t id) {
  t.handle_of[id] = kNoHandle;
  ++t.gen_of[id];  // churn-safe reuse: the next incarnation is distinguishable
  t.free_ids.push_back(id);
}

// --- trunk failure detection ------------------------------------------------

void SessionManager::arm_watchdog(int trunk) {
  core::Cpu& cpu = rt_.cpu();
  core::InterruptGuard g(cpu);
  Trunk& t = trunk_at(trunk);
  if (t.watchdog_set || t.failed) return;
  t.watchdog_set = true;
  t.stuck_ticks = 0;
  cpu.set_timer(rt_.engine().now() + cfg_.fail_timeout, [this, trunk] { watchdog_tick(trunk); });
}

void SessionManager::watchdog_tick(int trunk) {
  Trunk& t = trunk_at(trunk);
  if (t.failed) {
    t.watchdog_set = false;
    return;
  }
  if (rmp_.queued_to(t.peer) == 0) {
    // Idle trunk: disarm; the next send re-arms. Keeps a finished run's
    // event queue empty instead of ticking forever.
    t.watchdog_set = false;
    t.stuck_ticks = 0;
    return;
  }
  if (t.acked_msgs != t.progress_marker) {
    t.progress_marker = t.acked_msgs;
    t.stuck_ticks = 0;
  } else if (++t.stuck_ticks >= 2) {
    t.watchdog_set = false;
    fail_trunk(trunk, "trunk" + std::to_string(trunk) + " to node" + std::to_string(t.peer) +
                          ": no acknowledgment progress for " +
                          std::to_string(2 * cfg_.fail_timeout / 1'000'000) + " ms");
    return;
  }
  rt_.cpu().set_timer(rt_.engine().now() + cfg_.fail_timeout,
                      [this, trunk] { watchdog_tick(trunk); });
}

void SessionManager::fail_trunk(int trunk, const std::string& reason) {
  Trunk& t = trunk_at(trunk);
  if (t.failed) return;
  t.failed = true;
  ++trunk_failures_;
  rt_.log("session.trunk_failed", reason);
  for (std::size_t id = 0; id < t.handle_of.size(); ++id) {
    ChannelHandle h = t.handle_of[id];
    if (h == kNoHandle) continue;
    SendChannel& c = chan(h);
    c.st = ChannelState::Failed;
    c.pending.clear();
    c.pend_head = 0;
    c.in_ready = false;
    ++failed_;
    t.handle_of[id] = kNoHandle;
    if (on_channel_failed) on_channel_failed(h, reason);
  }
  t.outbound_live = 0;
  for (RecvChannel& rc : t.inbound) rc.in_use = false;
  t.inbound_live = 0;
  for (auto& q : t.ready) q.clear();
  t.control.clear();
  wake_pumper(t);
}

}  // namespace nectar::session
