#include "coll/host.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/headers.hpp"
#include "sim/costs.hpp"

namespace nectar::coll {

namespace costs = sim::costs;

namespace {
/// Send-request prefix the host writes in front of the collective bytes:
/// where the CAB proxy thread should datagram them.
constexpr std::size_t kTxPrefix = 8;  // dst_node u32 | dst_mailbox u32
}  // namespace

HostCollective::HostCollective(nectarine::HostNectarine& nin,
                               nproto::DatagramProtocol& datagram, GroupSpec spec)
    : nin_(nin), datagram_(datagram), spec_(std::move(spec)) {
  if (spec_.members.empty()) throw std::invalid_argument("coll-host: group has no members");
  int node = datagram_.runtime().node_id();
  my_rank_ = spec_.rank_of(node);
  if (my_rank_ < 0) {
    throw std::invalid_argument("coll-host: node " + std::to_string(node) +
                                " is not a member of group " + std::to_string(spec_.id));
  }
  rx_ = nin_.create_mailbox("coll-host-rx");
  rx_index_ = rx_.mb->address().index;
  tx_ = nin_.attach(datagram_.runtime().create_mailbox("coll-host-tx"));

  // CAB proxy: transmit whatever the host posts. The host cannot run CAB
  // code, so every send crosses the VME bus into this mailbox first.
  core::Mailbox& txmb = *tx_.mb;
  nproto::DatagramProtocol& dg = datagram_;
  datagram_.runtime().fork_system("coll-host-tx" + std::to_string(spec_.id), [&txmb, &dg] {
    hw::CabMemory& mem = dg.runtime().board().memory();
    for (;;) {
      core::Message m = txmb.begin_get();
      if (m.len < kTxPrefix) {
        txmb.end_get(m);
        continue;
      }
      std::span<const std::uint8_t> pre = mem.view(m.data, kTxPrefix);
      core::MailboxAddr dst;
      dst.node = static_cast<std::int32_t>(proto::get32(pre, 0));
      dst.index = proto::get32(pre, 4);
      core::Message body = core::Mailbox::adjust_prefix(m, kTxPrefix);
      dg.send_raw(dst, body.data, body.len, [&txmb, body] { txmb.end_get(body); });
    }
  });
}

HostCollective::SeqState& HostCollective::state(std::uint32_t seq) {
  auto [it, fresh] = pending_.try_emplace(seq);
  if (fresh) it->second.rank_mask.assign((spec_.members.size() + 63) / 64, 0);
  return it->second;
}

void HostCollective::mask_set(std::vector<std::uint64_t>& m, int bit) {
  std::size_t word = static_cast<std::size_t>(bit) / 64;
  if (bit >= 0 && word < m.size()) m[word] |= 1ull << (bit % 64);
}

bool HostCollective::mask_test(const std::vector<std::uint64_t>& m, int bit) {
  std::size_t word = static_cast<std::size_t>(bit) / 64;
  return bit >= 0 && word < m.size() && ((m[word] >> (bit % 64)) & 1) != 0;
}

bool HostCollective::have_all_children(std::uint32_t seq) {
  SeqState& s = state(seq);
  for (int c : spec_.children_of(my_rank_)) {
    if (!mask_test(s.rank_mask, c)) return false;
  }
  return true;
}

void HostCollective::send_to(int dst_rank, MsgKind kind, int round, std::uint64_t value,
                             std::uint8_t rop, std::span<const std::uint8_t> payload) {
  if (dst_rank < 0 || dst_rank >= spec_.size() || dst_rank == my_rank_) return;
  core::Cpu& cpu = nin_.driver().host().cpu();
  cpu.charge(costs::kNectarProtoSend);  // same protocol work, now on the host

  CollHeader h;
  h.group = spec_.id;
  h.epoch = spec_.epoch;
  h.kind = kind;
  h.op = rop;
  h.src_rank = static_cast<std::uint16_t>(my_rank_);
  h.seq = seq_;
  h.round = static_cast<std::uint16_t>(round);
  h.length = static_cast<std::uint16_t>(payload.size());
  h.value = value;

  std::vector<std::uint8_t> bytes(kTxPrefix + CollHeader::kSize + payload.size());
  std::span<std::uint8_t> out(bytes);
  proto::put32(out, 0,
               static_cast<std::uint32_t>(spec_.members[static_cast<std::size_t>(dst_rank)]));
  proto::put32(out, 4, rx_index_);
  h.serialize(out.subspan(kTxPrefix, CollHeader::kSize));
  std::copy(payload.begin(), payload.end(), bytes.begin() + kTxPrefix + CollHeader::kSize);

  // Host -> CAB: mailbox descriptors plus the message bytes, all VME.
  core::Message m = nin_.begin_put(tx_, static_cast<std::uint32_t>(bytes.size()));
  nin_.write_message(m, bytes);
  nin_.end_put(tx_, m);
  ++msgs_sent_;
}

void HostCollective::recv_one() {
  // Driver interrupt + process wakeup to learn of the message, then VME
  // programmed I/O to pull the bytes into host memory — the per-message tax
  // the CAB-resident engine never pays.
  core::Message m = nin_.begin_get_block(rx_);
  std::vector<std::uint8_t> buf(m.len);
  nin_.read_message(m, buf);
  nin_.end_get(rx_, m);
  ++msgs_received_;
  nin_.driver().host().cpu().charge(costs::kNectarProtoRecv);

  std::optional<CollHeader> parsed = CollHeader::parse(buf);
  if (!parsed) {
    ++malformed_drops_;
    return;
  }
  const CollHeader& h = *parsed;
  if (h.group != spec_.id || h.epoch != spec_.epoch) return;
  if (h.src_rank >= static_cast<std::uint16_t>(spec_.size())) return;
  if (h.seq < seq_) return;  // cannot happen loss-free; drop defensively
  if (h.seq > seq_ + 1) {
    ++malformed_drops_;  // members are at most one collective apart: forged
    return;
  }
  SeqState& s = state(h.seq);
  switch (h.kind) {
    case MsgKind::Arrive:
    case MsgKind::BcastAck:
      mask_set(s.rank_mask, h.src_rank);
      break;
    case MsgKind::Release:
      s.released = true;
      break;
    case MsgKind::DissemRound:
      if (h.round < 64) s.rounds |= 1ull << h.round;
      break;
    case MsgKind::BcastData: {
      std::size_t avail = buf.size() - CollHeader::kSize;
      std::size_t len = std::min<std::size_t>(h.length, avail);
      s.bcast_data.assign(buf.begin() + CollHeader::kSize,
                          buf.begin() + static_cast<std::ptrdiff_t>(CollHeader::kSize + len));
      s.bcast_valid = true;
      break;
    }
    case MsgKind::ReduceUp:
      if (!mask_test(s.rank_mask, h.src_rank)) {
        mask_set(s.rank_mask, h.src_rank);
        if (!s.partial_valid) {
          s.partial = h.value;
          s.partial_valid = true;
        } else {
          s.partial = combine(static_cast<ReduceOp>(h.op), s.partial, h.value);
        }
      }
      break;
    case MsgKind::ReduceResult:
      s.released = true;
      s.result = h.value;
      break;
    case MsgKind::DissemNack:
      break;  // the fault-free baseline never needs pull-based recovery
  }
}

void HostCollective::finish_op(std::uint32_t seq, sim::SimTime started,
                               obs::LatencyHistogram& hist) {
  pending_.erase(pending_.begin(), pending_.upper_bound(seq));
  ++seq_;
  ++ops_completed_;
  hist.observe(nin_.driver().host().cpu().engine().now() - started);
}

bool HostCollective::barrier() {
  core::Cpu& cpu = nin_.driver().host().cpu();
  sim::SimTime t0 = cpu.engine().now();
  std::uint32_t seq = seq_;
  if (spec_.size() <= 1) {
    ++ops_completed_;
    barrier_lat_.observe(0);
    return true;
  }
  if (spec_.algorithm == Algorithm::Tree) {
    while (!have_all_children(seq)) recv_one();
    if (my_rank_ == spec_.root_rank) {
      for (int r = 0; r < spec_.size(); ++r) {
        if (r != my_rank_) send_to(r, MsgKind::Release);
      }
    } else {
      send_to(spec_.parent_of(my_rank_), MsgKind::Arrive);
      while (!state(seq).released) recv_one();
    }
  } else {
    int rounds = spec_.dissem_rounds();
    for (int r = 0; r < rounds; ++r) {
      send_to(spec_.dissem_to(my_rank_, r), MsgKind::DissemRound, r);
      while (((state(seq).rounds >> r) & 1) == 0) recv_one();
    }
  }
  finish_op(seq, t0, barrier_lat_);
  return true;
}

bool HostCollective::bcast(std::span<std::uint8_t> data) {
  core::Cpu& cpu = nin_.driver().host().cpu();
  sim::SimTime t0 = cpu.engine().now();
  std::uint32_t seq = seq_;
  if (spec_.size() <= 1) {
    ++ops_completed_;
    bcast_lat_.observe(0);
    return true;
  }
  if (my_rank_ == spec_.root_rank) {
    // n-1 unicast datagrams, each one a fresh VME copy of the payload.
    for (int r = 0; r < spec_.size(); ++r) {
      if (r != my_rank_) send_to(r, MsgKind::BcastData, 0, 0, 0, data);
    }
    for (;;) {
      SeqState& s = state(seq);
      bool all = true;
      for (int r = 0; r < spec_.size() && all; ++r) {
        if (r != my_rank_ && !mask_test(s.rank_mask, r)) all = false;
      }
      if (all) break;
      recv_one();
    }
  } else {
    while (!state(seq).bcast_valid) recv_one();
    SeqState& s = state(seq);
    std::size_t n = std::min(data.size(), s.bcast_data.size());
    std::copy_n(s.bcast_data.begin(), n, data.begin());
    send_to(spec_.root_rank, MsgKind::BcastAck);
  }
  finish_op(seq, t0, bcast_lat_);
  return true;
}

bool HostCollective::reduce(ReduceOp op, std::uint64_t contribution, std::uint64_t* result) {
  core::Cpu& cpu = nin_.driver().host().cpu();
  sim::SimTime t0 = cpu.engine().now();
  std::uint32_t seq = seq_;
  if (spec_.size() <= 1) {
    ++ops_completed_;
    reduce_lat_.observe(0);
    if (result != nullptr) *result = contribution;
    return true;
  }
  while (!have_all_children(seq)) recv_one();
  std::uint64_t total = contribution;
  {
    SeqState& s = state(seq);
    if (s.partial_valid) total = combine(op, total, s.partial);
  }
  if (my_rank_ == spec_.root_rank) {
    for (int r = 0; r < spec_.size(); ++r) {
      if (r != my_rank_) {
        send_to(r, MsgKind::ReduceResult, 0, total, static_cast<std::uint8_t>(op));
      }
    }
    if (result != nullptr) *result = total;
  } else {
    send_to(spec_.parent_of(my_rank_), MsgKind::ReduceUp, 0, total,
            static_cast<std::uint8_t>(op));
    while (!state(seq).released) recv_one();
    if (result != nullptr) *result = state(seq).result;
  }
  finish_op(seq, t0, reduce_lat_);
  return true;
}

}  // namespace nectar::coll
