#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "proto/ip.hpp"

namespace nectar::proto {

class Tcp;

/// A persistent listening socket (see Tcp::open_listener): every SYN to its
/// port spawns a new connection, queued for Tcp::accept().
struct TcpListener {
  std::uint16_t port = 0;
  bool open = false;
  std::deque<class TcpConnection*> ready;  // established, not yet accepted
  std::uint64_t accepted = 0;
};

/// One TCP connection endpoint.
///
/// Structured like the paper's implementation (§4.2): all input processing
/// runs in the TCP input thread (never at interrupt time, so shared state is
/// protected by thread-level mutual exclusion rather than interrupt
/// masking); senders either place requests in the send-request mailbox
/// (serviced by the TCP send thread) or, if CAB-resident, call send()
/// directly. Received payload is handed to the user by deleting the headers
/// (zero-copy adjust) and enqueueing into the connection's receive mailbox.
class TcpConnection {
 public:
  enum class State : std::uint8_t {
    Closed,
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
  };

  State state() const { return state_; }
  std::uint32_t id() const { return id_; }
  std::uint16_t local_port() const { return local_port_; }
  std::uint16_t remote_port() const { return remote_port_; }
  IpAddr remote_addr() const { return remote_addr_; }

  /// User-visible stream: payload messages appear here in order. A
  /// zero-length message marks end-of-stream (peer sent FIN).
  core::Mailbox& receive_mailbox() { return *receive_; }

  bool established() const { return state_ == State::Established; }
  bool closed() const { return state_ == State::Closed; }
  bool remote_closed() const { return remote_closed_; }
  bool reset() const { return was_reset_; }

  /// Bytes queued for transmission but not yet acknowledged.
  std::uint32_t unacked_bytes() const { return snd_end_ - snd_una_; }
  std::uint32_t peer_window() const { return snd_wnd_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t fast_retransmits() const { return fast_retx_; }
  sim::SimTime srtt() const { return srtt_; }
  /// Congestion window (meaningful when congestion control is enabled).
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }

 private:
  friend class Tcp;

  struct SendItem {
    core::Message msg;
    std::uint32_t seq_lo;  // sequence number of msg byte 0
    bool free_when_acked;
    obs::TraceContext ctx{};  // causal trace the queued data belongs to
  };

  Tcp* tcp_ = nullptr;
  std::uint32_t id_ = 0;
  State state_ = State::Closed;
  std::uint16_t local_port_ = 0;
  std::uint16_t remote_port_ = 0;
  IpAddr remote_addr_ = 0;
  core::Mailbox* receive_ = nullptr;

  // Send sequence space (RFC 793 names).
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_end_ = 0;  // sequence number just past all queued data
  std::uint32_t snd_wnd_ = 0;  // peer's advertised window
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::deque<SendItem> send_queue_;

  // Receive sequence space.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, core::Message> out_of_order_;  // seq -> payload msg

  // Retransmission (Jacobson/Karn).
  sim::SimTime srtt_ = 0;
  sim::SimTime rttvar_ = 0;
  sim::SimTime rto_;
  core::Cpu::TimerId retx_timer_ = 0;
  bool retx_timer_set_ = false;
  std::map<std::uint32_t, sim::SimTime> rtt_samples_;  // seq_end -> send time
  std::uint64_t retransmissions_ = 0;

  // Congestion control (extension; see TcpConfig::congestion_control).
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  int dup_acks_ = 0;
  std::uint64_t fast_retx_ = 0;

  bool remote_closed_ = false;
  bool was_reset_ = false;
  TcpListener* spawned_by_ = nullptr;  // queued there on ESTABLISHED
  core::Cpu::TimerId time_wait_timer_ = 0;

  // Window-update bookkeeping (receiver side).
  std::uint16_t last_advertised_wnd_ = 0;
  bool wnd_update_pending_ = false;
};

/// Configuration: `software_checksum` toggles the per-byte checksum work
/// whose cost dominates the TCP-vs-RMP gap in Fig. 7 ("TCP w/o checksum").
struct TcpConfig {
  bool software_checksum = true;
  /// EXTENSION (not in the 1990 stack; off by default to keep the paper's
  /// calibration): Van Jacobson congestion control — slow start, congestion
  /// avoidance, and fast retransmit after three duplicate ACKs. Matters on
  /// lossy or congested paths; a quiet Nectar LAN never notices it.
  bool congestion_control = false;
};

/// TCP on the CAB (paper §4.2).
class Tcp {
 public:
  using Config = TcpConfig;

  explicit Tcp(Ip& ip, Config config = Config{});

  Tcp(const Tcp&) = delete;
  Tcp& operator=(const Tcp&) = delete;

  core::CabRuntime& runtime() { return ip_.runtime(); }
  const Config& config() const { return config_; }

  // --- user interface -------------------------------------------------------

  /// Active open; returns immediately in SYN_SENT. Use wait_established().
  TcpConnection* connect(std::uint16_t local_port, IpAddr dst, std::uint16_t dst_port);

  /// Passive open: the next SYN to `port` completes the handshake.
  /// (Single-shot, as the paper's measurement programs used; a long-lived
  /// server accepting many clients uses open_listener/accept.)
  TcpConnection* listen(std::uint16_t port);

  /// Open a persistent listener on `port`.
  TcpListener* open_listener(std::uint16_t port);
  /// Block until a connection is established on `l`; returns it.
  TcpConnection* accept(TcpListener* l);
  /// Stop accepting: further SYNs to the port are refused with RST.
  void close_listener(TcpListener* l);

  /// Block the calling thread until the connection leaves the opening
  /// states. Returns true if it reached ESTABLISHED.
  bool wait_established(TcpConnection* c);

  /// Queue `data` on the connection; transmitted under the sliding window,
  /// segmented to the MSS. The message is freed when fully acknowledged if
  /// `free_when_acked`. Callable from any CAB thread (§4.2: "CAB-resident
  /// senders can do this directly without involving the TCP send thread").
  /// `tctx`, when valid, attributes the queued data (every segment carrying
  /// it, including retransmissions) to that causal trace.
  void send(TcpConnection* c, core::Message data, bool free_when_acked = true,
            obs::TraceContext tctx = {});

  /// Graceful close (FIN after all queued data).
  void close(TcpConnection* c);

  /// Block until all queued data is acknowledged.
  void wait_drained(TcpConnection* c);

  /// Block until fewer than `max_unacked` bytes are queued-but-unacked —
  /// how a well-behaved bulk sender paces itself against CAB buffer memory.
  void wait_send_window(TcpConnection* c, std::uint32_t max_unacked);

  /// The send-request mailbox (§4.2): each message is a 12-byte request
  /// header (connection id, flags, external address+length) optionally
  /// followed by inline payload; the TCP send thread services it.
  core::Mailbox& send_request_mailbox() { return send_req_; }
  static constexpr std::uint32_t kSendReqInline = 1;  ///< payload follows the header

  TcpConnection* find(std::uint32_t id);

  // --- stats -------------------------------------------------------------------

  std::uint64_t segments_sent() const { return segs_sent_; }
  std::uint64_t segments_received() const { return segs_rcvd_; }
  std::uint64_t bad_checksums() const { return bad_checksum_; }
  std::uint64_t resets_sent() const { return rst_sent_; }
  std::size_t mss() const { return mss_; }

  /// All connections ever created (including closed ones), for reporting.
  const std::map<std::uint32_t, std::unique_ptr<TcpConnection>>& connections() const {
    return connections_;
  }

 private:
  friend class TcpConnection;

  void input_loop();
  void send_request_loop();
  void process_segment(core::Message m);

  /// Timers fire at interrupt level but must not touch TCP state (§4.2: TCP
  /// state is protected by thread-level mutual exclusion, not interrupt
  /// masking) — so a timer just drops a small marker message into the input
  /// mailbox and the input thread does the work under the lock.
  void post_timer_marker(std::uint32_t conn_id, std::uint32_t kind);
  void handle_timer_marker(std::uint32_t conn_id, std::uint32_t kind);
  static constexpr std::uint32_t kTimerRetransmit = 1;
  static constexpr std::uint32_t kTimerTimeWait = 2;
  /// Not a timer: posted when the user consumed receive buffering and the
  /// reopened window should be announced with a pure ACK (window update).
  static constexpr std::uint32_t kWindowUpdate = 3;

  TcpConnection* make_connection(std::uint16_t local_port);
  TcpConnection* lookup(IpAddr raddr, std::uint16_t rport, std::uint16_t lport);
  void destroy(TcpConnection* c);

  // Segment transmission.
  void emit(TcpConnection* c, std::uint8_t flags, std::uint32_t seq, hw::CabAddr payload,
            std::size_t len, obs::TraceContext tctx = {});
  void send_rst(IpAddr dst, std::uint16_t dst_port, std::uint16_t src_port, std::uint32_t seq,
                std::uint32_t ack, bool with_ack);
  void try_transmit(TcpConnection* c);
  void maybe_send_fin(TcpConnection* c);
  std::uint16_t advertised_window(TcpConnection* c) const;

  // Congestion control helpers (no-ops unless enabled).
  std::uint32_t effective_window(TcpConnection* c) const;
  void cc_init(TcpConnection* c);
  void cc_on_new_ack(TcpConnection* c, std::uint32_t acked_bytes);
  void cc_on_loss(TcpConnection* c, bool fast);
  void retransmit_head(TcpConnection* c);

  // Timers.
  void arm_retransmit(TcpConnection* c);
  void cancel_retransmit(TcpConnection* c);
  void on_retransmit_timeout(std::uint32_t conn_id);
  void rtt_sample(TcpConnection* c, sim::SimTime rtt);

  // Input-side helpers.
  void handle_ack(TcpConnection* c, const TcpHeader& th);
  void deliver_payload(TcpConnection* c, core::Message payload, std::uint32_t seq);
  void drain_out_of_order(TcpConnection* c);
  void enter_established(TcpConnection* c);
  void enter_time_wait(TcpConnection* c);
  /// cwnd and ssthresh as Chrome-trace counters (while tracing) at a new ACK
  /// or a transition; a transition's `kind` also goes to the event log.
  void window_point(TcpConnection* c, const char* kind = nullptr);
  void wake_state_waiters(TcpConnection* c);
  void deliver_eof(TcpConnection* c);

  Ip& ip_;
  Config config_;
  /// §4.2: "This allows shared data structures to be protected with mutual
  /// exclusion locks rather than by disabling interrupts." Guards all
  /// connection state; taken by user calls and the input thread alike.
  core::Mutex lock_;
  core::CondVar state_cv_;  ///< broadcast on any connection state change
  core::Mailbox& input_;
  core::Mailbox& send_req_;
  std::size_t mss_;
  std::map<std::uint32_t, std::unique_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, std::unique_ptr<TcpListener>> listeners_;
  std::uint32_t next_conn_id_ = 1;
  std::uint32_t next_iss_ = 1000;

  std::uint64_t segs_sent_ = 0;
  std::uint64_t segs_rcvd_ = 0;
  std::uint64_t bad_checksum_ = 0;
  std::uint64_t rst_sent_ = 0;

  // Last member: probes read the counters above, so they must unhook first.
  obs::Registration metrics_reg_;
};

}  // namespace nectar::proto
