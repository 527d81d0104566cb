#pragma once

// Host-level reference implementation of the collectives — the comparison
// baseline for the CAB-resident engine (ISSUE 8, after the paper's §6 host
// vs CAB measurements).
//
// Every protocol action here happens in a *host process*: collective
// messages arrive as ordinary point-to-point datagrams in a host-visible
// mailbox, so each one costs the host a driver interrupt, a process wakeup,
// and VME programmed I/O to read the header out of CAB memory; each send is
// composed in host memory, copied across the VME bus into a send-request
// mailbox, and handed to a CAB proxy thread that issues the datagram (the
// §4.2 TCP send-request pattern). Fan-outs are unicast sweeps — a host has
// no way to hand the HUB crossbar a distribution tree, which is exactly the
// offload bench_collectives measures.
//
// The baseline is deliberately fault-free: no retransmit timers, no epochs
// (runs compare latency under loss-free conditions; fault tolerance is the
// CAB engine's job). Messages are still absorbed idempotently so the
// one-collective skew between members is handled the same way the engine
// handles it.
//
// Convention: every member constructs its HostCollective in the same global
// order (like protocol stacks), so the receive mailbox gets the same per-CAB
// index on every node and peers can address it as (node, my own rx index).

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "coll/group.hpp"
#include "coll/wire.hpp"
#include "nectarine/nectarine.hpp"
#include "obs/latency.hpp"

namespace nectar::coll {

class HostCollective {
 public:
  /// `nin` is this node's host-side Nectarine (its driver names the host and
  /// CAB); `datagram` is the same node's datagram protocol. `spec.mcast`,
  /// `spec.timeout` and `spec.retransmit` are ignored — see file comment.
  HostCollective(nectarine::HostNectarine& nin, nproto::DatagramProtocol& datagram,
                 GroupSpec spec);

  HostCollective(const HostCollective&) = delete;
  HostCollective& operator=(const HostCollective&) = delete;

  // Blocking collective calls; run from a host process on this node's host
  // CPU. Always succeed (fault-free baseline), returning like the engine's
  // API so driver code can treat both uniformly.
  bool barrier();
  bool bcast(std::span<std::uint8_t> data);
  bool reduce(ReduceOp op, std::uint64_t contribution, std::uint64_t* result);

  int my_rank() const { return my_rank_; }
  std::uint16_t group_id() const { return spec_.id; }
  const GroupSpec& spec() const { return spec_; }
  std::uint64_t msgs_sent() const { return msgs_sent_; }
  std::uint64_t msgs_received() const { return msgs_received_; }
  std::uint64_t ops_completed() const { return ops_completed_; }
  /// Messages dropped on arrival because CollHeader::parse rejected them,
  /// or because their sequence runs more than one ahead of the live one.
  std::uint64_t malformed_drops() const { return malformed_drops_; }

  obs::LatencyHistogram& barrier_latency() { return barrier_lat_; }
  obs::LatencyHistogram& bcast_latency() { return bcast_lat_; }
  obs::LatencyHistogram& reduce_latency() { return reduce_lat_; }

 private:
  struct SeqState {
    std::vector<std::uint64_t> rank_mask;  ///< arrivals / reduce-ups / bcast acks
    std::uint64_t rounds = 0;              ///< dissemination round bits
    std::uint64_t partial = 0;
    bool partial_valid = false;
    bool released = false;
    std::uint64_t result = 0;
    std::vector<std::uint8_t> bcast_data;
    bool bcast_valid = false;
  };

  SeqState& state(std::uint32_t seq);
  void finish_op(std::uint32_t seq, sim::SimTime started, obs::LatencyHistogram& hist);
  /// Block the host process until one collective message has been received
  /// and folded into the per-seq state.
  void recv_one();
  /// Compose (host memory), copy across the VME bus, and hand to the CAB
  /// proxy thread for transmission. `payload` only for BcastData.
  void send_to(int dst_rank, MsgKind kind, int round = 0, std::uint64_t value = 0,
               std::uint8_t rop = 0, std::span<const std::uint8_t> payload = {});

  static void mask_set(std::vector<std::uint64_t>& m, int bit);
  static bool mask_test(const std::vector<std::uint64_t>& m, int bit);
  bool have_all_children(std::uint32_t seq);

  nectarine::HostNectarine& nin_;
  nproto::DatagramProtocol& datagram_;
  GroupSpec spec_;
  int my_rank_ = -1;

  nectarine::HostNectarine::HostMailbox rx_;  ///< inbound collective datagrams
  std::uint32_t rx_index_ = 0;                ///< same index on every member (see above)
  nectarine::HostNectarine::HostMailbox tx_;  ///< host -> CAB send requests

  std::uint32_t seq_ = 1;
  std::map<std::uint32_t, SeqState> pending_;

  std::uint64_t msgs_sent_ = 0;
  std::uint64_t msgs_received_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t malformed_drops_ = 0;

  obs::LatencyHistogram barrier_lat_;
  obs::LatencyHistogram bcast_lat_;
  obs::LatencyHistogram reduce_lat_;
};

}  // namespace nectar::coll
