#include "coll/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::coll {

namespace costs = sim::costs;

namespace {
const char* op_name(int kind) {
  switch (kind) {
    case 1: return "barrier";
    case 2: return "bcast";
    case 3: return "reduce";
  }
  return "none";
}
}  // namespace

CollectiveEngine::CollectiveEngine(proto::Datalink& dl)
    : dl_(dl),
      input_(dl.runtime().create_mailbox("coll-input")),
      metrics_reg_(dl.runtime().metrics()) {
  dl_.register_client(proto::PacketType::Coll, this);

  int node = dl_.node_id();
  metrics_reg_.probe(node, "coll", "msgs_sent",
                     [this] { return static_cast<std::int64_t>(msgs_sent_); });
  metrics_reg_.probe(node, "coll", "msgs_received",
                     [this] { return static_cast<std::int64_t>(msgs_received_); });
  metrics_reg_.probe(node, "coll", "ops_completed",
                     [this] { return static_cast<std::int64_t>(ops_completed_); });
  metrics_reg_.probe(node, "coll", "ops_failed",
                     [this] { return static_cast<std::int64_t>(ops_failed_); });
  metrics_reg_.probe(node, "coll", "retransmits",
                     [this] { return static_cast<std::int64_t>(retransmits_); });
  metrics_reg_.probe(node, "coll", "stale_drops",
                     [this] { return static_cast<std::int64_t>(stale_drops_); });
}

// --- rank-bitmask helpers ------------------------------------------------------

void CollectiveEngine::mask_set(std::vector<std::uint64_t>& m, int bit, int n) {
  if (bit < 0 || bit >= n) return;
  std::size_t word = static_cast<std::size_t>(bit) / 64;
  if (word < m.size()) m[word] |= 1ull << (bit % 64);
}

bool CollectiveEngine::mask_test(const std::vector<std::uint64_t>& m, int bit) {
  std::size_t word = static_cast<std::size_t>(bit) / 64;
  return bit >= 0 && word < m.size() && ((m[word] >> (bit % 64)) & 1) != 0;
}

bool CollectiveEngine::mask_has_all(const std::vector<std::uint64_t>& m,
                                    const std::vector<int>& ranks) {
  for (int r : ranks) {
    if (!mask_test(m, r)) return false;
  }
  return true;
}

// --- group management ----------------------------------------------------------

void CollectiveEngine::join_group(GroupSpec spec) {
  if (spec.members.empty()) throw std::invalid_argument("coll: group has no members");
  if (spec.root_rank < 0 || spec.root_rank >= spec.size()) {
    throw std::invalid_argument("coll: root_rank out of range");
  }
  int rank = spec.rank_of(node_id());
  if (rank < 0) {
    throw std::invalid_argument("coll: node " + std::to_string(node_id()) +
                                " is not a member of group " + std::to_string(spec.id));
  }
  Group g;
  g.spec = std::move(spec);
  g.my_rank = rank;
  groups_.insert_or_assign(g.spec.id, std::move(g));
}

void CollectiveEngine::reform(std::uint16_t id, std::uint16_t new_epoch) {
  Group& g = group_or_throw(id);
  if (new_epoch <= g.spec.epoch) {
    throw std::invalid_argument("coll: reform epoch must be larger than the current one");
  }
  g.spec.epoch = new_epoch;
  g.failed = false;
  g.error.clear();
  g.pending.clear();
  g.seq = 1;
  g.last_done_seq = 0;
  g.last_kind = OpKind::None;
  g.last_value = 0;
  g.op = OpWait{};
}

CollectiveEngine::Group& CollectiveEngine::group_or_throw(std::uint16_t id) {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    throw std::invalid_argument("coll: unknown group " + std::to_string(id));
  }
  return it->second;
}

CollectiveEngine::SeqState& CollectiveEngine::pending(Group& g, std::uint32_t seq) {
  auto [it, fresh] = g.pending.try_emplace(seq);
  if (fresh) {
    it->second.rank_mask.assign((g.spec.members.size() + 63) / 64, 0);
  }
  return it->second;
}

// --- blocking collective calls --------------------------------------------------

bool CollectiveEngine::barrier(std::uint16_t group) {
  Group& g = group_or_throw(group);
  core::Cpu& cpu = runtime().cpu();
  if (g.spec.size() <= 1) {
    ++ops_completed_;
    barrier_lat_.observe(0);
    return true;
  }
  core::InterruptGuard guard(cpu);
  if (g.failed) {
    last_error_ = g.error;
    ++ops_failed_;
    return false;
  }
  runtime().trace_mark("coll.barrier");
  OpWait& op = g.op;
  op = OpWait{};
  op.kind = OpKind::Barrier;
  op.started = cpu.engine().now();
  arm_timers(g);
  if (g.spec.algorithm == Algorithm::Tree) {
    progress_tree(g);
    SeqState& s = pending(g, g.seq);
    if (!op.done && s.released) complete_op(g);  // release raced ahead of our entry
  } else {
    start_dissem_round(g, 0);
    advance_dissem(g);
  }
  return finish_wait(g, barrier_lat_);
}

bool CollectiveEngine::bcast(std::uint16_t group, std::span<std::uint8_t> data) {
  Group& g = group_or_throw(group);
  core::Cpu& cpu = runtime().cpu();
  if (g.spec.size() <= 1) {
    ++ops_completed_;
    bcast_lat_.observe(0);
    return true;
  }
  bool root = g.my_rank == g.spec.root_rank;
  // The root stages the payload into CAB data memory before masking
  // interrupts: begin_put may block on the heap, and retransmits must be
  // able to re-DMA the bytes without touching the caller's buffer again.
  core::Message scratch{};
  bool have_scratch = false;
  if (root && !data.empty()) {
    scratch = input_.begin_put(static_cast<std::uint32_t>(data.size()));
    runtime().board().memory().write(scratch.data, data);
    have_scratch = true;
  }
  core::InterruptGuard guard(cpu);
  if (g.failed) {
    if (have_scratch) input_.end_get(scratch);
    last_error_ = g.error;
    ++ops_failed_;
    return false;
  }
  runtime().trace_mark("coll.bcast");
  OpWait& op = g.op;
  op = OpWait{};
  op.kind = OpKind::Bcast;
  op.user_data = data;
  op.started = cpu.engine().now();
  bcast_scratch_ = scratch;
  bcast_scratch_valid_ = have_scratch;
  arm_timers(g);
  if (root) {
    send_fanout(g, MsgKind::BcastData, 0, 0, have_scratch ? bcast_scratch_.data : 0, data.size());
  } else {
    SeqState& s = pending(g, g.seq);
    if (s.bcast_valid) deliver_buffered_bcast(g, s);
  }
  bool ok = finish_wait(g, bcast_lat_);
  if (bcast_scratch_valid_) {
    input_.end_get(bcast_scratch_);
    bcast_scratch_valid_ = false;
  }
  return ok;
}

bool CollectiveEngine::reduce(std::uint16_t group, ReduceOp rop, std::uint64_t contribution,
                              std::uint64_t* result) {
  Group& g = group_or_throw(group);
  core::Cpu& cpu = runtime().cpu();
  if (g.spec.size() <= 1) {
    ++ops_completed_;
    reduce_lat_.observe(0);
    if (result != nullptr) *result = contribution;
    return true;
  }
  core::InterruptGuard guard(cpu);
  if (g.failed) {
    last_error_ = g.error;
    ++ops_failed_;
    return false;
  }
  runtime().trace_mark("coll.reduce");
  OpWait& op = g.op;
  op = OpWait{};
  op.kind = OpKind::Reduce;
  op.rop = rop;
  op.contribution = contribution;
  op.started = cpu.engine().now();
  arm_timers(g);
  progress_tree(g);
  SeqState& s = pending(g, g.seq);
  if (!op.done && s.released) {  // result raced ahead of our entry
    op.result = s.result;
    complete_op(g);
  }
  bool ok = finish_wait(g, reduce_lat_);
  if (ok && result != nullptr) *result = op.result;
  return ok;
}

bool CollectiveEngine::finish_wait(Group& g, obs::LatencyHistogram& hist) {
  core::Cpu& cpu = runtime().cpu();
  OpWait& op = g.op;
  while (!op.done) {
    op.waiter = cpu.current_thread();
    cpu.block_unmasked();
  }
  op.waiter = nullptr;
  if (op.timeout_timer != 0) {
    cpu.cancel_timer(op.timeout_timer);
    op.timeout_timer = 0;
  }
  if (op.retransmit_timer != 0) {
    cpu.cancel_timer(op.retransmit_timer);
    op.retransmit_timer = 0;
  }
  bool ok = op.ok;
  op.kind = OpKind::None;
  if (ok) {
    ++ops_completed_;
    hist.observe(cpu.engine().now() - op.started);
    // Drop buffered state up to and including this sequence; a peer one op
    // ahead may already have seeded seq+1.
    g.pending.erase(g.pending.begin(), g.pending.upper_bound(g.seq));
    ++g.seq;
  } else {
    ++ops_failed_;
  }
  return ok;
}

void CollectiveEngine::arm_timers(Group& g) {
  core::Cpu& cpu = runtime().cpu();
  std::uint16_t gid = g.spec.id;
  g.op.timeout_timer =
      cpu.set_timer(cpu.engine().now() + g.spec.timeout, [this, gid] { timeout_fire(gid); });
  g.op.retransmit_timer =
      cpu.set_timer(cpu.engine().now() + g.spec.retransmit, [this, gid] { retransmit_tick(gid); });
}

void CollectiveEngine::complete_op(Group& g) {
  OpWait& op = g.op;
  if (op.done) return;
  op.done = true;
  op.ok = true;
  g.last_done_seq = g.seq;
  g.last_kind = op.kind;
  g.last_value = op.result;
  runtime().trace_mark("coll.release");
  if (op.waiter != nullptr) runtime().cpu().wake(op.waiter);
}

void CollectiveEngine::fail_op(Group& g, const std::string& what) {
  g.failed = true;
  g.error = what;
  last_error_ = what;
  // Loud by design: a lost member must produce an attributable error at the
  // surviving members, never a silent hang (ISSUE 8 acceptance).
  std::fprintf(stderr, "%s\n", what.c_str());
  runtime().trace_mark("coll.fail");
  OpWait& op = g.op;
  op.done = true;
  op.ok = false;
  if (op.waiter != nullptr) runtime().cpu().wake(op.waiter);
}

// --- algorithm progress ---------------------------------------------------------

void CollectiveEngine::progress_tree(Group& g) {
  OpWait& op = g.op;
  if (op.done) return;
  if (op.kind != OpKind::Barrier && op.kind != OpKind::Reduce) return;
  if (op.kind == OpKind::Barrier && g.spec.algorithm != Algorithm::Tree) return;
  SeqState& s = pending(g, g.seq);
  std::vector<int> kids = g.spec.children_of(g.my_rank);
  if (!mask_has_all(s.rank_mask, kids)) return;

  if (op.kind == OpKind::Barrier) {
    if (g.my_rank == g.spec.root_rank) {
      op.result = 0;
      send_fanout(g, MsgKind::Release, 0, 0);
      complete_op(g);
    } else if (!op.sent_up) {
      op.sent_up = true;
      send_msg(g, g.seq, MsgKind::Arrive, g.spec.parent_of(g.my_rank));
    }
    return;
  }

  // Reduce: fold the children's combined partial into our contribution. The
  // per-rank bitmask guarantees each child entered `s.partial` exactly once,
  // so recomputing the total here is duplicate-safe.
  std::uint64_t total = op.contribution;
  if (s.partial_valid) total = combine(op.rop, total, s.partial);
  if (g.my_rank == g.spec.root_rank) {
    op.result = total;
    send_fanout(g, MsgKind::ReduceResult, total, static_cast<std::uint8_t>(op.rop));
    complete_op(g);
  } else if (!op.sent_up) {
    op.sent_up = true;
    send_msg(g, g.seq, MsgKind::ReduceUp, g.spec.parent_of(g.my_rank), 0, total,
             static_cast<std::uint8_t>(op.rop));
  }
}

void CollectiveEngine::start_dissem_round(Group& g, int round) {
  g.op.round = round;
  send_msg(g, g.seq, MsgKind::DissemRound, g.spec.dissem_to(g.my_rank, round), round);
}

void CollectiveEngine::advance_dissem(Group& g) {
  OpWait& op = g.op;
  if (op.done || op.kind != OpKind::Barrier) return;
  if (g.spec.algorithm != Algorithm::Dissemination) return;
  SeqState& s = pending(g, g.seq);
  int total = g.spec.dissem_rounds();
  while (op.round < total && ((s.rounds >> op.round) & 1) != 0) {
    int next = op.round + 1;
    if (next == total) {
      op.round = next;
      op.result = 0;
      complete_op(g);
      return;
    }
    start_dissem_round(g, next);
  }
}

void CollectiveEngine::deliver_buffered_bcast(Group& g, SeqState& s) {
  OpWait& op = g.op;
  std::size_t n = std::min(op.user_data.size(), s.bcast_data.size());
  std::copy_n(s.bcast_data.begin(), n, op.user_data.begin());
  op.result = n;
  send_msg(g, g.seq, MsgKind::BcastAck, g.spec.root_rank);
  complete_op(g);
}

// --- timers ---------------------------------------------------------------------

void CollectiveEngine::retransmit_tick(std::uint16_t gid) {
  auto it = groups_.find(gid);
  if (it == groups_.end()) return;
  Group& g = it->second;
  OpWait& op = g.op;
  if (op.done || op.kind == OpKind::None || g.failed) return;

  switch (op.kind) {
    case OpKind::Barrier:
      if (g.spec.algorithm == Algorithm::Tree) {
        if (op.sent_up) {
          send_msg(g, g.seq, MsgKind::Arrive, g.spec.parent_of(g.my_rank), 0, 0, 0, true);
        }
        // Waiting on children (or, at an interior node, on the release):
        // nothing to re-send — the child/root retransmits toward us.
      } else {
        int total = g.spec.dissem_rounds();
        for (int r = 0; r <= std::min(op.round, total - 1); ++r) {
          send_msg(g, g.seq, MsgKind::DissemRound, g.spec.dissem_to(g.my_rank, r), r, 0, 0, true);
        }
        if (op.round < total) {
          // Ask the peer we are stuck on to re-send its round message: once a
          // node advances past a sequence it stops retransmitting it, so
          // recovery has to be pull, not push (see handle_stale).
          send_msg(g, g.seq, MsgKind::DissemNack, g.spec.dissem_from(g.my_rank, op.round),
                   op.round, 0, 0, true);
        }
      }
      break;
    case OpKind::Reduce:
      if (op.sent_up) {
        SeqState& s = pending(g, g.seq);
        std::uint64_t total = op.contribution;
        if (s.partial_valid) total = combine(op.rop, total, s.partial);
        send_msg(g, g.seq, MsgKind::ReduceUp, g.spec.parent_of(g.my_rank), 0, total,
                 static_cast<std::uint8_t>(op.rop), true);
      }
      break;
    case OpKind::Bcast:
      if (g.my_rank == g.spec.root_rank) {
        ++retransmits_;
        send_fanout(g, MsgKind::BcastData, 0, 0, bcast_scratch_valid_ ? bcast_scratch_.data : 0,
                    op.user_data.size());
      }
      break;
    case OpKind::None:
      break;
  }

  core::Cpu& cpu = runtime().cpu();
  op.retransmit_timer =
      cpu.set_timer(cpu.engine().now() + g.spec.retransmit, [this, gid] { retransmit_tick(gid); });
}

void CollectiveEngine::timeout_fire(std::uint16_t gid) {
  auto it = groups_.find(gid);
  if (it == groups_.end()) return;
  Group& g = it->second;
  OpWait& op = g.op;
  if (op.done || op.kind == OpKind::None) return;
  fail_op(g, "coll: group " + std::to_string(g.spec.id) + " epoch " +
                 std::to_string(g.spec.epoch) + " " + op_name(static_cast<int>(op.kind)) +
                 " seq " + std::to_string(g.seq) + " timed out on node " +
                 std::to_string(node_id()) + " (rank " + std::to_string(g.my_rank) +
                 ") after " + std::to_string(g.spec.timeout) + " ns; still waiting for: " +
                 missing_ranks(g));
}

std::string CollectiveEngine::missing_ranks(const Group& g) const {
  auto it = g.pending.find(g.seq);
  const SeqState* s = it == g.pending.end() ? nullptr : &it->second;
  std::string out;
  auto add = [&out](const std::string& part) {
    if (!out.empty()) out += ", ";
    out += part;
  };
  const OpWait& op = g.op;
  auto missing_child = [&](int c) { return s == nullptr || !mask_test(s->rank_mask, c); };
  switch (op.kind) {
    case OpKind::Barrier:
      if (g.spec.algorithm == Algorithm::Dissemination) {
        add("round " + std::to_string(op.round) + " from rank " +
            std::to_string(g.spec.dissem_from(g.my_rank, op.round)));
      } else {
        for (int c : g.spec.children_of(g.my_rank)) {
          if (missing_child(c)) add("arrive from rank " + std::to_string(c));
        }
        if (out.empty()) add("release from root rank " + std::to_string(g.spec.root_rank));
      }
      break;
    case OpKind::Reduce:
      for (int c : g.spec.children_of(g.my_rank)) {
        if (missing_child(c)) add("partial from rank " + std::to_string(c));
      }
      if (out.empty()) add("result from root rank " + std::to_string(g.spec.root_rank));
      break;
    case OpKind::Bcast:
      if (g.my_rank == g.spec.root_rank) {
        for (int r = 0; r < g.spec.size(); ++r) {
          if (r != g.spec.root_rank && missing_child(r)) {
            add("ack from rank " + std::to_string(r));
          }
        }
      } else {
        add("data from root rank " + std::to_string(g.spec.root_rank));
      }
      break;
    case OpKind::None:
      break;
  }
  return out.empty() ? "(nothing outstanding)" : out;
}

// --- message I/O ----------------------------------------------------------------

void CollectiveEngine::send_msg(Group& g, std::uint32_t seq, MsgKind kind, int dst_rank,
                                int round, std::uint64_t value, std::uint8_t rop,
                                bool is_retransmit) {
  if (dst_rank < 0 || dst_rank >= g.spec.size() || dst_rank == g.my_rank) return;
  obs::CostScope scope("coll/send");
  runtime().cpu().charge(costs::kNectarProtoSend);

  CollHeader h;
  h.group = g.spec.id;
  h.epoch = g.spec.epoch;
  h.kind = kind;
  h.op = rop;
  h.src_rank = static_cast<std::uint16_t>(g.my_rank);
  h.seq = seq;
  h.round = static_cast<std::uint16_t>(round);
  h.value = value;
  proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
  h.serialize(hdr->push_front(CollHeader::kSize));

  ++msgs_sent_;
  if (is_retransmit) ++retransmits_;

  int dst_node = g.spec.members[static_cast<std::size_t>(dst_rank)];
  dl_.send(proto::PacketType::Coll, dst_node, std::move(hdr), 0, 0, {},
           start_trace(kind, dst_node, seq));
}

void CollectiveEngine::send_fanout(Group& g, MsgKind kind, std::uint64_t value, std::uint8_t rop,
                                   hw::CabAddr payload, std::size_t len) {
  obs::CostScope scope("coll/send");
  runtime().cpu().charge(costs::kNectarProtoSend);

  CollHeader h;
  h.group = g.spec.id;
  h.epoch = g.spec.epoch;
  h.kind = kind;
  h.op = rop;
  h.src_rank = static_cast<std::uint16_t>(g.my_rank);
  h.seq = g.seq;
  h.length = static_cast<std::uint16_t>(len);
  h.value = value;

  if (g.spec.mcast.valid()) {
    // One serialization; the HUBs replicate along the distribution tree.
    proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
    h.serialize(hdr->push_front(CollHeader::kSize));
    ++msgs_sent_;
    dl_.send_mcast(proto::PacketType::Coll, g.spec.mcast, std::move(hdr), payload, len, {},
                   start_trace(kind, -1, g.seq));
    return;
  }

  // No multicast tree installed: unicast sweep (the correctness fallback the
  // host baseline also takes — fabric offload is what the bench compares).
  for (int r = 0; r < g.spec.size(); ++r) {
    if (r == g.my_rank) continue;
    proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
    h.serialize(hdr->push_front(CollHeader::kSize));
    ++msgs_sent_;
    int dst_node = g.spec.members[static_cast<std::size_t>(r)];
    dl_.send(proto::PacketType::Coll, dst_node, std::move(hdr), payload, len, {},
             start_trace(kind, dst_node, g.seq));
  }
}

obs::TraceContext CollectiveEngine::start_trace(MsgKind kind, int dst_node, std::uint64_t seq) {
  obs::TraceContext tctx;
  if (auto* ct = obs::CausalTracer::active()) {  // the flow name is built only while tracing
    tctx = ct->maybe_start(std::string("coll.") + kind_name(kind), node_id(), dst_node, seq);
    obs::stage(tctx, "tx.coll", node_id());
  }
  return tctx;
}

void CollectiveEngine::end_of_data(core::Message m, std::uint8_t src_node) {
  (void)src_node;
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("coll/recv");
  cpu.charge(costs::kNectarProtoRecv);
  ++msgs_received_;

  obs::TraceContext rctx = obs::trace_at(node_id(), m.data);
  obs::stage(rctx, "rx.coll", node_id());

  if (auto h = CollHeader::parse(runtime().board().memory().view(m.data, m.len))) {
    handle_msg(*h, m);
  } else {
    ++malformed_drops_;
  }
  // The engine is the terminus of a collective message: all protocol state
  // lives in the per-seq records, so the buffer is always released here.
  input_.end_get(m);
  obs::finish(rctx);
}

void CollectiveEngine::handle_msg(const CollHeader& h, const core::Message& m) {
  auto git = groups_.find(h.group);
  if (git == groups_.end()) {
    ++stale_drops_;
    return;
  }
  Group& g = git->second;
  if (h.epoch != g.spec.epoch) {
    ++stale_drops_;  // crashed epoch's traffic can never corrupt its successor
    return;
  }
  if (g.failed) return;
  if (h.src_rank >= static_cast<std::uint16_t>(g.spec.size())) {
    ++stale_drops_;
    return;
  }
  if (h.seq < g.seq) {
    handle_stale(g, h);
    return;
  }
  if (h.seq > g.seq + 1) {
    // Members are at most one collective apart (see handle_stale), so a
    // sequence further ahead is forged: buffering it would grow the per-seq
    // state without bound.
    ++stale_drops_;
    return;
  }

  SeqState& s = pending(g, h.seq);
  bool current = h.seq == g.seq;
  OpWait& op = g.op;
  int n = g.spec.size();

  switch (h.kind) {
    case MsgKind::Arrive:
      mask_set(s.rank_mask, h.src_rank, n);
      if (current) progress_tree(g);
      break;

    case MsgKind::Release:
      s.released = true;
      if (current && op.kind == OpKind::Barrier && !op.done) {
        op.result = 0;
        complete_op(g);
      }
      break;

    case MsgKind::DissemRound:
      if (h.round < 64) s.rounds |= 1ull << h.round;
      if (current) advance_dissem(g);
      break;

    case MsgKind::DissemNack:
      // A stuck peer asks us to re-send our round-`h.round` message of
      // `h.seq`. We can answer once we have entered that round ourselves.
      if (current && op.kind == OpKind::Barrier &&
          g.spec.algorithm == Algorithm::Dissemination &&
          (op.done || op.round >= static_cast<int>(h.round))) {
        send_msg(g, h.seq, MsgKind::DissemRound, h.src_rank, h.round, 0, 0, true);
      }
      break;

    case MsgKind::BcastData: {
      std::size_t avail = m.len - CollHeader::kSize;
      std::size_t len = std::min<std::size_t>(h.length, avail);
      std::span<const std::uint8_t> bytes =
          runtime().board().memory().view(m.data + CollHeader::kSize, len);
      if (current && op.kind == OpKind::Bcast && !op.done &&
          g.my_rank != g.spec.root_rank) {
        std::size_t ncopy = std::min(len, op.user_data.size());
        std::copy_n(bytes.begin(), ncopy, op.user_data.begin());
        op.result = ncopy;
        send_msg(g, g.seq, MsgKind::BcastAck, g.spec.root_rank);
        complete_op(g);
      } else if (!s.bcast_valid) {
        // We have not entered the bcast yet: buffer the payload so entry can
        // complete locally (the root may stop retransmitting once acked).
        s.bcast_data.assign(bytes.begin(), bytes.end());
        s.bcast_valid = true;
      }
      break;
    }

    case MsgKind::BcastAck:
      mask_set(s.rank_mask, h.src_rank, n);
      if (current && op.kind == OpKind::Bcast && !op.done &&
          g.my_rank == g.spec.root_rank) {
        bool all = true;
        for (int r = 0; r < n && all; ++r) {
          if (r != g.spec.root_rank && !mask_test(s.rank_mask, r)) all = false;
        }
        if (all) {
          op.result = op.user_data.size();
          complete_op(g);
        }
      }
      break;

    case MsgKind::ReduceUp:
      // Combine each child exactly once: the rank bit guards the fold, so a
      // retransmitted partial can never be double-counted.
      if (!mask_test(s.rank_mask, h.src_rank)) {
        mask_set(s.rank_mask, h.src_rank, n);
        if (!s.partial_valid) {
          s.partial = h.value;
          s.partial_valid = true;
          s.rop = h.op;
        } else {
          s.partial = combine(static_cast<ReduceOp>(h.op), s.partial, h.value);
        }
      }
      if (current) progress_tree(g);
      break;

    case MsgKind::ReduceResult:
      s.released = true;
      s.result = h.value;
      if (current && op.kind == OpKind::Reduce && !op.done) {
        op.result = h.value;
        complete_op(g);
      }
      break;
  }
}

void CollectiveEngine::handle_stale(Group& g, const CollHeader& h) {
  ++stale_drops_;
  // A straggler is still working on a sequence we completed. Our op state is
  // pruned, but the completed-op memory is enough to answer directly — this
  // is what bounds the skew: nobody can be more than one collective ahead,
  // because op N+1 cannot start anywhere until every rank finished op N.
  switch (h.kind) {
    case MsgKind::Arrive:
      if (g.last_done_seq == h.seq && g.last_kind == OpKind::Barrier) {
        send_msg(g, h.seq, MsgKind::Release, h.src_rank, 0, 0, 0, true);
      }
      break;
    case MsgKind::ReduceUp:
      if (g.last_done_seq == h.seq && g.last_kind == OpKind::Reduce) {
        send_msg(g, h.seq, MsgKind::ReduceResult, h.src_rank, 0, g.last_value, h.op, true);
      }
      break;
    case MsgKind::DissemNack:
      // We finished h.seq, so we certainly sent every round of it.
      send_msg(g, h.seq, MsgKind::DissemRound, h.src_rank, h.round, 0, 0, true);
      break;
    case MsgKind::BcastData:
      // Duplicate data for a bcast we already acked: the root missed the ack.
      if (g.last_done_seq == h.seq && g.last_kind == OpKind::Bcast) {
        send_msg(g, h.seq, MsgKind::BcastAck, h.src_rank, 0, 0, 0, true);
      }
      break;
    case MsgKind::Release:
    case MsgKind::ReduceResult:
    case MsgKind::DissemRound:
    case MsgKind::BcastAck:
      break;  // harmless duplicates of an op we already finished
  }
}

}  // namespace nectar::coll
