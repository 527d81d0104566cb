#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "core/mailbox.hpp"
#include "proto/datalink.hpp"
#include "proto/headers.hpp"

namespace nectar::nproto {

/// Nectar reliable message protocol (paper §4): "a simple stop-and-wait
/// protocol". One message outstanding per destination node; the receiver
/// acknowledges each message; the sender retransmits on timeout. No software
/// checksum — it "relies on the CRC implemented by the CAB hardware" (§6.2),
/// which is why RMP reaches ~90 Mbit/s CAB-to-CAB where TCP pays the per-byte
/// checksum tax (Fig. 7).
///
/// Retransmissions and window stalls go to the CAB's event log as
/// "rmp.retransmit" / "rmp.window_stall", detail "peer=<n> seq=<outstanding>".
class Rmp : public proto::DatalinkClient {
 public:
  /// Stop-and-wait retransmission interval (no RTT estimation in the paper's
  /// simple protocol).
  static constexpr sim::SimTime kRetransmitInterval = sim::msec(5);

  explicit Rmp(proto::Datalink& dl);

  Rmp(const Rmp&) = delete;
  Rmp& operator=(const Rmp&) = delete;

  core::CabRuntime& runtime() { return dl_.runtime(); }

  /// Small headers a layer above RMP may prepend per message (the session
  /// layer's channel frame header rides here). Bounded so Pending can hold
  /// the bytes inline — no allocation per message.
  static constexpr std::size_t kMaxPrefix = 16;

  /// Queue `data` for reliable delivery to the mailbox `dst`. Messages to
  /// one node are delivered exactly once, in order. The data area is
  /// released when acknowledged if `free_when_acked`. `on_acked` (optional,
  /// interrupt context) fires when the acknowledgment arrives.
  ///
  /// `prefix` (≤ kMaxPrefix bytes) is an upper-layer header prepended to the
  /// payload on the wire: the receiver's mailbox sees one contiguous
  /// [prefix][data] message. The bytes are copied into the send queue entry
  /// and re-composed through the HeaderBuf headroom path on every
  /// (re)transmission, so retries carry the same header without the caller
  /// staging it into CAB memory.
  void send(core::MailboxAddr dst, core::Message data, bool free_when_acked = true,
            std::function<void()> on_acked = {}, obs::TraceContext tctx = {},
            std::span<const std::uint8_t> prefix = {});

  /// Block the calling thread until every queued message to `node` has been
  /// acknowledged.
  void wait_acked(int node);

  /// Block until fewer than `n` messages are queued toward `node` — bulk
  /// senders pace themselves against CAB buffer memory with this.
  void wait_queue_below(int node, std::size_t n);

  /// Messages queued (including the outstanding one) toward `node`.
  std::size_t queued_to(int node) const;

  // --- DatalinkClient ----------------------------------------------------------

  std::size_t header_bytes() const override { return proto::NectarHeader::kSize; }
  core::Mailbox& input_mailbox() override { return input_; }
  void end_of_data(core::Message m, std::uint8_t src_node) override;

  // --- stats -----------------------------------------------------------------------

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t duplicates_dropped() const { return dups_; }
  std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  static constexpr std::uint8_t kFlagData = 0;
  static constexpr std::uint8_t kFlagAck = 1;

  struct Pending {
    core::Message msg;
    std::uint32_t dst_index;  // destination mailbox on the remote node
    bool free_when_acked;
    std::function<void()> on_acked;
    obs::TraceContext ctx{};                       // causal trace the message belongs to
    std::array<std::uint8_t, kMaxPrefix> prefix{};  // upper-layer header bytes
    std::uint8_t prefix_len = 0;
  };
  struct SendChannel {
    std::uint16_t next_seq = 0;       // seq of the head-of-line message
    std::deque<Pending> queue;        // head is the outstanding message
    bool outstanding = false;         // head transmitted, awaiting ACK
    core::Cpu::TimerId timer = 0;
    bool timer_set = false;
    std::vector<core::Thread*> drain_waiters;
  };
  struct RecvChannel {
    std::uint16_t expected_seq = 0;
  };

  void transmit_head(int node);         // (re)send the outstanding message
  void handle_ack(int node, std::uint16_t seq);
  void on_timeout(int node);
  void send_ack(int node, std::uint16_t seq);
  void log(const char* kind, int peer, std::uint16_t seq);

  proto::Datalink& dl_;
  core::Mailbox& input_;
  std::map<int, SendChannel> send_channels_;
  std::map<int, RecvChannel> recv_channels_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t dups_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t dropped_no_mailbox_ = 0;

  // Last member: probes read the counters above, so they must unhook first.
  obs::Registration metrics_reg_;
};

}  // namespace nectar::nproto
