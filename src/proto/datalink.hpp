#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/mailbox.hpp"
#include "core/runtime.hpp"
#include "obs/span.hpp"
#include "proto/headerbuf.hpp"
#include "proto/headers.hpp"
#include "sim/action.hpp"

namespace nectar::proto {

/// A transport protocol registered with the datalink layer.
///
/// Receive flow (paper §4.1): when a packet arrives over the fiber, the
/// datalink layer reads the datalink header at interrupt time and initiates
/// DMA into the protocol's input mailbox. Once the protocol header has
/// arrived it issues a *start-of-data* upcall (so useful work — e.g. the IP
/// header sanity check — overlaps the rest of the reception), and when the
/// whole packet is in memory an *end-of-data* upcall.
class DatalinkClient {
 public:
  virtual ~DatalinkClient() = default;

  /// Protocol header bytes guaranteed to be in memory before start_of_data.
  virtual std::size_t header_bytes() const = 0;

  /// Mailbox packets for this protocol are received into.
  virtual core::Mailbox& input_mailbox() = 0;

  /// Interrupt context; the first header_bytes() of `m` are valid, the rest
  /// of the packet is still streaming in.
  virtual void start_of_data(const core::Message& m, std::uint8_t src_node) {
    (void)m;
    (void)src_node;
  }

  /// Interrupt context; the full packet is in memory. The implementation
  /// must either publish `m` (end_put / enqueue) or release it.
  virtual void end_of_data(core::Message m, std::uint8_t src_node) = 0;
};

/// Nectar datalink layer: framing, packet-type dispatch, source-route lookup,
/// and the interrupt-time receive path described in §4.1.
class Datalink {
 public:
  /// Maximum datalink payload (protocol headers + data) per packet.
  static constexpr std::size_t kMaxPayload = 16 * 1024;

  explicit Datalink(core::CabRuntime& rt);

  Datalink(const Datalink&) = delete;
  Datalink& operator=(const Datalink&) = delete;

  core::CabRuntime& runtime() { return rt_; }
  int node_id() const { return rt_.node_id(); }

  // --- routing (source routes, §2.1) ---------------------------------------

  /// Install the whole route table, indexed by destination node (an empty
  /// RouteRef: no route). net::Network::install_routes hands every CAB on a
  /// HUB the same shared RouteRefs.
  void set_routes(std::vector<hw::RouteRef> table) { routes_ = std::move(table); }
  /// Replace the installed table's route to `dst_node` (at runtime:
  /// failover); std::out_of_range for a node outside the table. Accepts an
  /// already-interned RouteRef, a raw byte vector, or an initializer list;
  /// in-flight frames keep the route they were sent with.
  void set_route(int dst_node, hw::RouteRef route);
  /// Interned shared route (frames reference it instead of copying); throws
  /// std::logic_error when none is installed.
  const hw::RouteRef& route_ref(int dst_node) const;

  // --- protocol registration --------------------------------------------------

  void register_client(PacketType type, DatalinkClient* client);

  // --- send path -----------------------------------------------------------------

  /// Transmit the headers composed in `hdr` (the datalink header is
  /// prepended here; pass `{}` when there are no protocol header bytes)
  /// followed by `len` bytes of payload from CAB data memory at `payload`.
  /// The header bytes are copied into the frame before this returns.
  /// `on_sent`, if given, runs in interrupt context after the last byte has
  /// left the fiber (protocols use it to free send buffers).
  /// `tctx`, when valid, identifies the causal trace this packet belongs to:
  /// a 16-byte stamp is prepended into the header buffer's headroom (between
  /// the datalink header and the protocol headers, flagged in the type byte)
  /// so the context rides the wire allocation-free, and the frame carries a
  /// mirror for the fabric's attribution hooks.
  void send(PacketType type, int dst_node, HeaderBufLease hdr, hw::CabAddr payload,
            std::size_t len, sim::InplaceAction on_sent = {}, obs::TraceContext tctx = {});

  /// Like send, but over an explicit source route instead of the installed
  /// table entry. The control plane uses this to probe alternate paths
  /// without disturbing the route live traffic takes.
  void send_via(PacketType type, const hw::RouteRef& route, HeaderBufLease hdr,
                hw::CabAddr payload, std::size_t len, sim::InplaceAction on_sent = {},
                obs::TraceContext tctx = {});

  /// Multicast send: one serialization out of this CAB, replicated by every
  /// HUB along `mcast`'s distribution tree (net::Network::mcast_ref). The
  /// CPU-side cost is a single send — the fan-out is the fabric's work,
  /// which is exactly the offload the collectives measure.
  void send_mcast(PacketType type, const hw::McastRef& mcast, HeaderBufLease hdr,
                  hw::CabAddr payload, std::size_t len, sim::InplaceAction on_sent = {},
                  obs::TraceContext tctx = {});

  // --- stats ------------------------------------------------------------------------

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t dropped_no_client() const { return dropped_no_client_; }
  std::uint64_t dropped_no_buffer() const { return dropped_no_buffer_; }
  std::uint64_t dropped_crc() const { return dropped_crc_; }
  std::uint64_t dropped_runt() const { return dropped_runt_; }

 private:
  /// The one send path, for a unicast `route` or, when valid, a multicast
  /// tree `mcast`.
  void transmit(PacketType type, const hw::RouteRef& route, const hw::McastRef& mcast,
                HeaderBufLease hdr, hw::CabAddr payload, std::size_t len,
                sim::InplaceAction on_sent, obs::TraceContext tctx);
  void process_pending();  // interrupt context
  void discard_front();    // interrupt context
  void finish_recv();      // interrupt context: the oldest receive's DMA is done
  void trace_instant(const char* label);

  core::CabRuntime& rt_;
  std::vector<hw::RouteRef> routes_;  // by destination node
  std::array<DatalinkClient*, 256> clients_{};

  // Receives whose DMA has started, oldest first. Held here, not in the DMA
  // completion and interrupt captures, so both fit their inline buffers: a
  // heap-spilled interrupt would leak if a run ends while it is suspended.
  struct Rx {
    core::Message m;
    DatalinkClient* client;
    std::uint8_t src;
    bool crc_ok = false;
  };
  std::deque<Rx> rx_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t dropped_no_client_ = 0;
  std::uint64_t dropped_no_buffer_ = 0;
  std::uint64_t dropped_crc_ = 0;
  std::uint64_t dropped_runt_ = 0;

  obs::Histogram* packet_bytes_ = nullptr;  // registry-owned send-size histogram
  obs::Registration metrics_reg_;
};

}  // namespace nectar::proto
