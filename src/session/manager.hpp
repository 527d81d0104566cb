#pragma once

// SessionManager: thousands of logical channels multiplexed over a handful
// of trunk connections (docs/SESSIONS.md). One instance per CAB owns the
// node's trunks — RMP connections to peer CABs — and runs, per trunk, a
// pumper thread that batches session frames into trunk messages and a
// reader thread that demultiplexes inbound frames.
//
// The shape follows the s3tp split the ROADMAP points at: connection
// management (channel lifecycle, id reuse with generation tags, trunk
// failure detection) is separated from buffering (per-channel staging
// bounded by send_window, per-channel credits bounded by the receiver), and
// the scheduler — strict priority across classes, deficit round-robin
// within one — decides which channel's bytes ride the next trunk message.
// A channel with no credit is simply not scheduled, which is the whole
// no-head-of-line-blocking argument: a stalled receiver starves exactly one
// channel, never its siblings on the same trunk.
//
// When a batch would carry a single DATA frame, the frame header instead
// rides the Rmp prefix path — composed through the proto::HeaderBuf
// headroom, zero allocations, retransmission-safe.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mailbox.hpp"
#include "core/runtime.hpp"
#include "nproto/rmp.hpp"
#include "obs/metrics.hpp"
#include "session/wire.hpp"

namespace nectar::session {

/// Per-manager tuning. Defaults are sized for tens of thousands of small
/// -message channels per node over single-digit trunks.
struct SessionConfig {
  std::uint32_t initial_credit = 32;   ///< messages the receiver grants at OPEN_ACK
  std::uint32_t send_window = 32;      ///< staged messages per channel before backpressure
  std::uint32_t max_batch = 4096;      ///< frame bytes per trunk message
  std::uint32_t max_channels = 60000;  ///< inbound admission cap per trunk
  /// How long the pumper lingers after waking with work before composing a
  /// batch. Producers run below the trunk's interrupt processing, so without
  /// this window a lone staged frame ships immediately, the per-message
  /// interrupt cost saturates the CPU, and producers never get to stage the
  /// backlog that would have amortized it (the 1-frame/msg lockstep). To
  /// actually break the lockstep the window must exceed the per-message CPU
  /// burn (~300us on a CAB), so mass-open workloads want ~1ms; the small
  /// default only trades a little latency for burst coalescing.
  sim::SimTime aggregation = sim::usec(20);
  sim::SimTime fail_timeout = sim::msec(25);  ///< no-progress window before a trunk fails

  /// Consumed messages per CREDIT frame: half the initial grant.
  std::uint32_t refresh() const { return initial_credit > 1 ? initial_credit / 2 : 1; }
};

/// Outcome of try_send: Backpressure is the send-window stall surfaced to
/// the app (account it as shed, not loss — nothing was accepted).
enum class SendResult : std::uint8_t { Ok, Backpressure, NotOpen, Failed };

enum class ChannelState : std::uint8_t {
  Opening,    ///< OPEN queued/sent, awaiting OPEN_ACK
  Open,       ///< data flows under credit
  Draining,   ///< close requested, staged data still queued
  CloseSent,  ///< CLOSE on the wire, awaiting CLOSE_ACK
  Closed,     ///< orderly end; wire id recycled (generation bumped)
  Failed,     ///< trunk death or peer reset — loud, attributable
  Refused,    ///< OPEN_NAK: peer admission control said no
};

class SessionManager {
 public:
  using ChannelHandle = std::uint32_t;
  static constexpr ChannelHandle kNoHandle = 0xffffffffu;
  static constexpr int kClasses = 4;  ///< strict-priority levels (0 = highest)

  /// `node` is this CAB's node id (for gauges and attribution); `rmp` carries
  /// every trunk.
  SessionManager(core::CabRuntime& rt, int node, nproto::Rmp& rmp, SessionConfig cfg = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // --- trunks ---------------------------------------------------------------

  /// Create the local endpoint of an RMP trunk to `peer_node`: allocates the
  /// trunk's receive mailbox and returns the trunk index. No threads run
  /// until connect_rmp_trunk.
  int add_rmp_trunk(int peer_node);
  /// This trunk's receive-mailbox address — hand it to the peer manager.
  core::MailboxAddr trunk_local_address(int trunk) const;
  /// Complete the trunk: frames to `peer_rx` start flowing (forks the
  /// trunk's pumper and reader threads).
  void connect_rmp_trunk(int trunk, core::MailboxAddr peer_rx);
  /// Wire one RMP trunk between two managers; returns (a's trunk, b's trunk).
  static std::pair<int, int> connect_rmp_pair(SessionManager& a, SessionManager& b);

  int trunk_count() const { return static_cast<int>(trunks_.size()); }
  bool trunk_failed(int trunk) const;

  // --- channels (initiator side) -------------------------------------------

  /// Open a logical channel on `trunk`. Returns immediately with a handle in
  /// state Opening; data may be staged at once and flows when the OPEN_ACK
  /// grants credit. Returns kNoHandle only if the trunk's 16-bit id space is
  /// exhausted or the trunk already failed (counted as refused).
  ChannelHandle open_channel(int trunk, std::uint8_t priority = 0, std::uint8_t weight = 1);

  /// Stage one message on the channel. Backpressure when send_window
  /// messages are already staged — nothing is consumed.
  SendResult try_send(ChannelHandle h, std::span<const std::uint8_t> payload);

  /// Orderly close: CLOSE rides behind the staged data; the id is recycled
  /// (generation+1) when the CLOSE_ACK lands.
  void close_channel(ChannelHandle h);

  ChannelState state(ChannelHandle h) const;
  std::uint16_t wire_id(ChannelHandle h) const;

  // --- delivery / notifications --------------------------------------------

  /// Inbound DATA: (trunk, wire channel id, generation, payload). The span
  /// is valid only during the call. Runs on the trunk reader thread.
  std::function<void(int, std::uint16_t, std::uint8_t, std::span<const std::uint8_t>)> on_deliver;
  /// OPEN outcome for a channel this node initiated.
  std::function<void(ChannelHandle, bool accepted)> on_open_result;
  /// Orderly close completed (CLOSE_ACK seen).
  std::function<void(ChannelHandle)> on_closed;
  /// Loud failure: trunk death or peer reset, with attribution text.
  std::function<void(ChannelHandle, const std::string& reason)> on_channel_failed;

  // --- receiver-side controls ----------------------------------------------

  /// Withhold CREDIT frames for one inbound channel (scenario stall
  /// scripting: a frozen channel exhausts its sender's credit and must not
  /// disturb its trunk siblings). Unfreezing flushes the withheld credit.
  void freeze_inbound_credit(int trunk, std::uint16_t channel, bool frozen);

  // --- stats ----------------------------------------------------------------

  std::uint64_t channels_opened() const { return opened_; }
  std::uint64_t channels_refused() const { return refused_; }
  std::uint64_t channels_closed() const { return closed_; }
  std::uint64_t channels_failed() const { return failed_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t credit_stalls() const { return credit_stalls_; }
  std::uint64_t gen_mismatch_drops() const { return gen_mismatch_drops_; }
  std::uint64_t proto_errors() const { return proto_errors_; }
  std::uint64_t trunk_failures() const { return trunk_failures_; }
  std::uint64_t trunk_tx_msgs(int trunk) const;
  std::uint64_t trunk_tx_frames(int trunk) const;
  std::uint64_t trunk_tx_fast(int trunk) const;

  const SessionConfig& config() const { return cfg_; }
  core::CabRuntime& runtime() { return rt_; }
  int node() const { return node_; }

 private:
  struct Staged {
    std::vector<std::uint8_t> bytes;
    bool is_close = false;  // CLOSE marker: ordered behind data, needs no credit
  };

  struct SendChannel {
    int trunk = 0;
    std::uint16_t id = 0;
    std::uint8_t gen = 0;
    std::uint8_t priority = 0;
    std::uint8_t weight = 1;
    ChannelState st = ChannelState::Opening;
    std::uint16_t next_seq = 0;
    std::uint32_t credit = 0;
    std::uint32_t deficit = 0;
    bool in_ready = false;
    bool stall_counted = false;
    std::uint32_t pend_head = 0;       // index of the first unsent Staged
    std::vector<Staged> pending;
  };

  struct RecvChannel {
    bool in_use = false;
    std::uint8_t gen = 0;
    std::uint16_t expected_seq = 0;
    std::uint32_t consumed = 0;  // deliveries since the last CREDIT
    bool frozen = false;
  };

  struct PlannedFrame {
    FrameHeader h;
    std::vector<std::uint8_t> payload;
  };

  struct Trunk {
    int peer = -1;
    bool failed = false;
    core::Mailbox* rx = nullptr;    // trunk receive mailbox
    core::MailboxAddr peer_addr{};  // peer's trunk receive mailbox

    // Initiator-side wire-id allocation (dense; generation bumps on reuse).
    std::uint32_t next_id = 0;
    std::vector<std::uint16_t> free_ids;
    std::vector<std::uint8_t> gen_of;
    std::vector<ChannelHandle> handle_of;  // wire id -> live handle
    std::uint32_t outbound_live = 0;

    std::vector<RecvChannel> inbound;  // indexed by peer's wire id
    std::uint32_t inbound_live = 0;

    std::array<std::deque<ChannelHandle>, kClasses> ready;
    std::deque<FrameHeader> control;  // OPEN/ACK/NAK/CLOSE_ACK/CREDIT/RESET
    core::Thread* pumper = nullptr;
    bool pumper_idle = false;

    bool watchdog_set = false;
    std::uint64_t acked_msgs = 0;       // trunk messages acknowledged
    std::uint64_t progress_marker = 0;  // watchdog snapshot
    int stuck_ticks = 0;

    std::uint64_t tx_msgs = 0;
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_fast = 0;  // single-frame sends via the Rmp prefix path
    std::uint64_t rx_frames = 0;
    std::uint64_t credit_stalls = 0;
  };

  Trunk& trunk_at(int i) { return *trunks_.at(static_cast<std::size_t>(i)); }
  const Trunk& trunk_at(int i) const { return *trunks_.at(static_cast<std::size_t>(i)); }
  SendChannel& chan(ChannelHandle h) { return channels_.at(h); }
  const SendChannel& chan(ChannelHandle h) const { return channels_.at(h); }

  void start_trunk_threads(int trunk);
  void pump_loop(int trunk);
  void reader_loop(int trunk);
  bool trunk_has_work(const Trunk& t) const;
  void wake_pumper(Trunk& t);

  /// Select the next batch under the interrupt mask (scheduler, credit and
  /// seq bookkeeping); emit it outside the mask (charges, staging, send).
  std::vector<PlannedFrame> plan_batch(Trunk& t);
  void emit_batch(int trunk);
  bool channel_ready(const SendChannel& c) const;
  void enqueue_ready(Trunk& t, ChannelHandle h);
  void queue_control(Trunk& t, const FrameHeader& h);

  void handle_frames(int trunk, std::span<const std::uint8_t> bytes);
  void handle_frame(int trunk, const FrameHeader& h, std::span<const std::uint8_t> payload);
  void handle_open(int trunk, const FrameHeader& h);
  void handle_data(int trunk, const FrameHeader& h, std::span<const std::uint8_t> payload);

  void arm_watchdog(int trunk);
  void watchdog_tick(int trunk);
  void fail_trunk(int trunk, const std::string& reason);
  void release_wire_id(Trunk& t, std::uint16_t id);

  core::CabRuntime& rt_;
  int node_;
  nproto::Rmp& rmp_;
  SessionConfig cfg_;
  core::Mailbox& scratch_;  // stages trunk messages; frees delivered ones

  std::vector<std::unique_ptr<Trunk>> trunks_;
  std::vector<SendChannel> channels_;  // dense; handles are indexes, never reused

  std::uint64_t opened_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t credit_stalls_ = 0;
  std::uint64_t gen_mismatch_drops_ = 0;
  std::uint64_t proto_errors_ = 0;
  std::uint64_t trunk_failures_ = 0;

  // Last member: probes read the trunks and counters above.
  obs::Registration metrics_reg_;
};

}  // namespace nectar::session
