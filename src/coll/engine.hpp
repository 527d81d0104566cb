#pragma once

// CAB-resident collective engine: barrier, broadcast, and reduce running
// entirely on the communication processor (the paper's thesis — protocol
// processing belongs on the NIC — applied to collectives, after Yu et al.'s
// NIC-based collective protocols in PAPERS.md).
//
// The engine is a datalink client (PacketType::Coll) in the nproto mold:
// every protocol action happens at CAB interrupt level — arrivals are
// combined, partials are reduced, and releases are forwarded without waking
// a thread or crossing the VME bus. The calling CAB thread blocks only for
// its own entry and release. Headers compose into proto::HeaderBuf headroom
// and operands ride in the header itself, so the common case (barrier,
// reduce) is allocation-free end to end.
//
// Reliability: collective messages are idempotent (duplicates are absorbed
// by per-seq bitmasks), senders retransmit their outstanding messages on a
// per-op cadence, and a node that has already completed sequence S answers a
// straggler's stale message for S directly (unicast Release / ReduceResult /
// BcastAck re-send). A member that stays silent past the group timeout —
// e.g. a cab_crash fault — fails the op with a loud error naming the group,
// epoch, op, sequence, and the missing ranks, never a hang.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "coll/group.hpp"
#include "coll/wire.hpp"
#include "core/mailbox.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "proto/datalink.hpp"

namespace nectar::coll {

class CollectiveEngine : public proto::DatalinkClient {
 public:
  explicit CollectiveEngine(proto::Datalink& dl);

  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  core::CabRuntime& runtime() { return dl_.runtime(); }
  int node_id() const { return dl_.node_id(); }

  // --- group management ------------------------------------------------------

  /// Install a group this node is a member of. Every member installs the
  /// same spec (members, root, algorithm); collective calls must then be
  /// issued in the same order on every member.
  void join_group(GroupSpec spec);
  bool has_group(std::uint16_t id) const { return groups_.count(id) > 0; }
  /// After a failure, re-arm the group under a new (strictly larger) epoch:
  /// clears the failed state and all buffered per-seq state. Messages
  /// stamped with the old epoch are counted and dropped on arrival.
  void reform(std::uint16_t id, std::uint16_t new_epoch);

  // --- collective calls (blocking, CAB thread context) ----------------------

  /// Returns false (with last_error() set) if the group failed or times out.
  bool barrier(std::uint16_t group);
  /// Root: transmit `data` to every member. Member: receive into `data`
  /// (filled up to min(data.size(), root's length)). Completes at the root
  /// only once every member has confirmed delivery.
  bool bcast(std::uint16_t group, std::span<std::uint8_t> data);
  /// Combine every member's `contribution` under `op` (interior tree nodes
  /// combine on-CAB as partials flow rootward); every member receives the
  /// final value in `*result`.
  bool reduce(std::uint16_t group, ReduceOp op, std::uint64_t contribution,
              std::uint64_t* result);

  const std::string& last_error() const { return last_error_; }

  // --- stats / observability ------------------------------------------------

  std::uint64_t msgs_sent() const { return msgs_sent_; }
  std::uint64_t msgs_received() const { return msgs_received_; }
  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t ops_failed() const { return ops_failed_; }
  std::uint64_t retransmits() const { return retransmits_; }
  /// Messages dropped for naming an unknown group, another epoch, a rank
  /// outside the group, or a sequence behind the live one or more than one
  /// ahead of it.
  std::uint64_t stale_drops() const { return stale_drops_; }
  /// Messages dropped on arrival because CollHeader::parse rejected them.
  std::uint64_t malformed_drops() const { return malformed_drops_; }

  /// Per-op completion latency (entry to release) observed on this node.
  obs::LatencyHistogram& barrier_latency() { return barrier_lat_; }
  obs::LatencyHistogram& bcast_latency() { return bcast_lat_; }
  obs::LatencyHistogram& reduce_latency() { return reduce_lat_; }

  // --- DatalinkClient --------------------------------------------------------

  std::size_t header_bytes() const override { return CollHeader::kSize; }
  core::Mailbox& input_mailbox() override { return input_; }
  void end_of_data(core::Message m, std::uint8_t src_node) override;

 private:
  /// Which collective the local thread is blocked in.
  enum class OpKind : std::uint8_t { None, Barrier, Bcast, Reduce };

  /// Inbound state buffered per sequence number. Peers may run one
  /// collective ahead (their release arrived before ours), so state for
  /// seq and seq+1 coexists; entries below the current seq are pruned when
  /// an op completes.
  struct SeqState {
    std::vector<std::uint64_t> rank_mask;  ///< tree arrivals / reduce-ups / bcast acks
    std::uint64_t rounds = 0;              ///< dissemination: bit r = round r received
    std::uint64_t partial = 0;             ///< combined reduce partial from children
    bool partial_valid = false;
    std::uint8_t rop = 0;                  ///< ReduceOp the partial was combined under
    bool released = false;                 ///< Release / ReduceResult seen
    std::uint64_t result = 0;              ///< value carried by ReduceResult
    std::vector<std::uint8_t> bcast_data;  ///< BcastData payload (host-side copy)
    bool bcast_valid = false;
  };

  /// The local thread's outstanding op.
  struct OpWait {
    OpKind kind = OpKind::None;
    core::Thread* waiter = nullptr;
    bool done = false;
    bool ok = false;
    bool sent_up = false;  ///< tree: Arrive/ReduceUp already forwarded to parent
    ReduceOp rop = ReduceOp::Sum;
    std::uint64_t contribution = 0;
    std::uint64_t result = 0;
    std::span<std::uint8_t> user_data;  ///< bcast caller buffer
    int round = 0;                      ///< dissemination round in progress
    sim::SimTime started = 0;
    core::Cpu::TimerId timeout_timer = 0;
    core::Cpu::TimerId retransmit_timer = 0;
  };

  struct Group {
    GroupSpec spec;
    int my_rank = -1;
    std::uint32_t seq = 1;  ///< sequence of the op in progress / up next
    bool failed = false;
    std::string error;  ///< why the group failed (also mirrored in last_error_)
    OpWait op;
    std::map<std::uint32_t, SeqState> pending;
    // Completed-op memory, to answer a straggler's stale message for the
    // last finished sequence without keeping full history.
    std::uint32_t last_done_seq = 0;
    OpKind last_kind = OpKind::None;
    std::uint64_t last_value = 0;
  };

  // rank-bitmask helpers over SeqState::rank_mask
  static void mask_set(std::vector<std::uint64_t>& m, int bit, int n);
  static bool mask_test(const std::vector<std::uint64_t>& m, int bit);
  static bool mask_has_all(const std::vector<std::uint64_t>& m, const std::vector<int>& ranks);

  Group& group_or_throw(std::uint16_t id);
  SeqState& pending(Group& g, std::uint32_t seq);

  /// Blocking tail every collective shares: wait for completion, cancel
  /// timers, record latency, prune buffered state, advance seq. Returns
  /// op.ok. Caller holds the interrupt mask.
  bool finish_wait(Group& g, obs::LatencyHistogram& hist);
  void arm_timers(Group& g);
  void complete_op(Group& g);                       // success path (interrupt or thread ctx)
  void fail_op(Group& g, const std::string& what);  // timeout/failed path

  // per-algorithm progress (called at op start and on each arrival)
  void progress_tree(Group& g);
  void advance_dissem(Group& g);
  void start_dissem_round(Group& g, int round);
  void deliver_buffered_bcast(Group& g, SeqState& s);
  void retransmit_tick(std::uint16_t gid);
  void timeout_fire(std::uint16_t gid);
  std::string missing_ranks(const Group& g) const;

  // message I/O
  void send_msg(Group& g, std::uint32_t seq, MsgKind kind, int dst_rank, int round = 0,
                std::uint64_t value = 0, std::uint8_t rop = 0, bool is_retransmit = false);
  /// Root fan-out: one multicast over the group's HUB tree (or a unicast
  /// sweep when no tree was installed). `payload`/`len` only for BcastData.
  void send_fanout(Group& g, MsgKind kind, std::uint64_t value, std::uint8_t rop,
                   hw::CabAddr payload = 0, std::size_t len = 0);
  /// Head-sample one message to `dst_node` (-1: the multicast tree); a
  /// sampled message's trace opens with its "tx.coll" stage here.
  obs::TraceContext start_trace(MsgKind kind, int dst_node, std::uint64_t seq);
  void handle_msg(const CollHeader& h, const core::Message& m);
  void handle_stale(Group& g, const CollHeader& h);

  proto::Datalink& dl_;
  core::Mailbox& input_;
  std::map<std::uint16_t, Group> groups_;
  std::string last_error_;

  std::uint64_t msgs_sent_ = 0;
  std::uint64_t msgs_received_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t ops_failed_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t stale_drops_ = 0;
  std::uint64_t malformed_drops_ = 0;

  obs::LatencyHistogram barrier_lat_;
  obs::LatencyHistogram bcast_lat_;
  obs::LatencyHistogram reduce_lat_;

  // Scratch CAB-memory buffer holding an in-flight bcast payload at the
  // root (kept for retransmits; released when the op completes).
  core::Message bcast_scratch_{};
  bool bcast_scratch_valid_ = false;

  // Last member: probes read the counters above.
  obs::Registration metrics_reg_;
};

}  // namespace nectar::coll
