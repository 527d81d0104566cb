#pragma once

// Workload generators: synthetic traffic over the real protocol stacks
// (UDP, TCP, Nectar datagram / RMP / request-response) on every node of a
// scenario topology. Two shapes:
//
//   open    Poisson arrivals at `users * rate` messages/sec per flow — an
//           aggregate of many independent users, offered regardless of
//           whether the network keeps up. Senders shed (count, don't block)
//           when back-pressure guards trip, so an overloaded run measures
//           loss instead of deadlocking the generator.
//   closed  `users` concurrent user threads per flow, each looping
//           send -> wait-for-completion -> exponential think time. Load is
//           self-limiting, the classic interactive-terminal model.
//
// Flows pair node i with node (i + stride) % N. Every message carries a
// 16-byte header [u32 src-node][u32 seq][u64 send-time-ns]; the receiver
// computes one-way delay from the global simulation clock into the
// workload's log-bucketed latency histogram (request-response measures
// client-side round-trip instead). TCP is a byte stream that the receiver
// reads one segment at a time, so the server splits the stream by message
// length, looked up by the (src, seq) of each header, and counts each
// message once, when its last byte arrives. All randomness (sizes,
// interarrivals, think times) derives from the scenario master seed and the
// flow/user name, so a run is exactly reproducible.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/system.hpp"
#include "obs/causal.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "scenario/config.hpp"
#include "sim/random.hpp"

namespace nectar::scenario {

enum class Proto { Udp, Tcp, Datagram, Rmp, ReqResp };
enum class Mode { Open, Closed };

inline constexpr Named<Proto> kProtos[] = {
    {Proto::Udp, "udp"}, {Proto::Tcp, "tcp"}, {Proto::Datagram, "datagram"},
    {Proto::Rmp, "rmp"}, {Proto::ReqResp, "reqresp"},
};
inline constexpr Named<Mode> kModes[] = {{Mode::Open, "open"}, {Mode::Closed, "closed"}};

/// The measurement stamp at the head of every workload and session message,
/// little-endian [u32 source][u32 seq][u64 send time, ns]; also the minimum
/// payload size.
struct Stamp {
  static constexpr std::uint32_t kBytes = 16;
  std::uint32_t src = 0;
  std::uint32_t seq = 0;
  std::uint64_t sent_ns = 0;

  void write(std::uint8_t* p) const;
  static Stamp read(const std::uint8_t* p);
};

/// An exponential interval of mean `mean_ns`, capped at ~104 days so the
/// cast to SimTime stays defined.
sim::SimTime exp_draw(sim::Random& rng, double mean_ns);

struct WorkloadSpec {
  std::string name = "wl";
  Proto proto = Proto::Udp;
  Mode mode = Mode::Closed;
  int users = 1;                  ///< users per flow (open: rate multiplier)
  double rate = 100.0;            ///< open: messages/sec per user
  sim::SimTime think = 0;         ///< closed: mean think time between sends
  std::uint32_t size_min = 64;    ///< payload bytes, uniform in [min, max]
  std::uint32_t size_max = 64;
  int stride = 1;                 ///< node i sends to (i + stride) % N
  std::uint16_t port = 0;         ///< UDP/TCP port (0: engine auto-assigns)
};

/// Per-flow counters. `shed` counts offered messages the open-loop
/// generator discarded at the source because a back-pressure guard tripped
/// (TCP unacked bytes, RMP queue depth, buffer heap exhaustion, or an RPC
/// still outstanding); `errors` counts failed RPCs and refused connections.
struct FlowStats {
  int src = -1;
  int dst = -1;
  std::uint64_t sent = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  obs::LatencyHistogram latency;  ///< per-flow; workload/report views merge()
};

class Workload {
 public:
  /// Open-loop TCP guard: shed while more than this is queued-unacked.
  static constexpr std::uint32_t kTcpShedBytes = 256 * 1024;
  /// Open-loop RMP guard: shed while this many messages are queued.
  static constexpr std::size_t kRmpShedQueue = 64;

  Workload(net::Network& net, std::vector<net::NodeStack*> stacks, WorkloadSpec spec,
           std::uint64_t master_seed);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Create sinks/listeners and fork server + client threads. Call once,
  /// before the simulation runs.
  void install();

  const WorkloadSpec& spec() const { return spec_; }
  const std::vector<FlowStats>& flows() const { return flows_; }
  /// Workload-wide latency view: the per-flow histograms merged. The fixed
  /// bucket layout makes the merge lossless — percentiles of the merged
  /// histogram equal percentiles over the union of samples' buckets.
  obs::LatencyHistogram latency() const;

  std::uint64_t sent() const;
  std::uint64_t delivered() const;
  std::uint64_t delivered_bytes() const;
  std::uint64_t shed() const;
  std::uint64_t errors() const;

  /// Delivered payload megabits per second over `duration`.
  double goodput_mbps(sim::SimTime duration) const;
  /// Jain's fairness index over per-flow delivered bytes (1.0 = equal).
  double fairness() const;

  /// Sums over this workload's TCP connections (0 for other protocols).
  std::uint64_t tcp_retransmissions() const;
  std::uint64_t tcp_fast_retransmits() const;

  /// Report the aggregate flow counters as probes under (node -1,
  /// "workload"), named "<spec name>.sent" / ".delivered" /
  /// ".delivered_bytes" / ".shed" / ".errors". Sampled on a cadence these
  /// give per-interval offered load and goodput; the telemetry layer calls
  /// this when a scenario enables [telemetry].
  void register_metrics(obs::Registration& reg) const;

 private:
  struct Flow {
    int src = -1;
    int dst = -1;
    core::MailboxAddr sink{};               // datagram / rmp / reqresp service
    proto::TcpConnection* conn = nullptr;   // tcp
    bool rpc_outstanding = false;           // open-loop reqresp guard
  };

  /// A TCP server connection's place in its byte stream: of the message in
  /// progress, the header bytes read so far, its length, and the bytes
  /// still to come.
  struct TcpStream {
    std::uint8_t hdr[Stamp::kBytes];
    std::uint32_t have = 0;
    std::uint32_t len = 0;
    std::uint32_t left = 0;
  };

  /// One TCP flow's staged messages the server has not reached yet: length
  /// by seq. The length cannot ride in the payload (a TCP checksum of 0
  /// skips verification, so payload bytes change timing), and users sharing
  /// the connection interleave, so the server looks each message up by the
  /// seq in its header. Client and server may run on different shard
  /// threads.
  struct TcpLengths {
    std::mutex mu;
    std::unordered_map<std::uint32_t, std::uint32_t> by_seq;
  };

  net::NodeStack& stack(int node) { return *stacks_[static_cast<std::size_t>(node)]; }
  core::CabRuntime& runtime(int node) { return net_.runtime(node); }

  std::uint64_t flow_seed(std::size_t flow, const char* role, int user) const;
  std::uint32_t pick_size(sim::Random& rng) const;

  /// Stage a message with the measurement header in `scratch`; nullopt when
  /// the buffer heap is exhausted (open-loop shed). When a tracer is active,
  /// `tctx` (if non-null) receives the head-sampling decision for this
  /// message — the trace starts here, at the send instant, with a "tx.app"
  /// stage open.
  std::optional<core::Message> stage(int node, core::Mailbox& scratch, std::size_t flow,
                                     std::uint32_t size, bool blocking,
                                     obs::TraceContext* tctx = nullptr);
  /// Receiver side: read the header of `m` (already payload-adjusted),
  /// observe latency, credit the sending flow. Safe on short/foreign
  /// payloads (ignored).
  void observe_delivery(int node, const core::Message& m);
  /// TCP receiver side: advance `rx` over one received chunk, crediting
  /// every message whose last byte it holds.
  void consume_tcp(int node, TcpStream& rx, const core::Message& chunk);
  /// Remove and return the length of TCP message (src, seq); throws
  /// std::logic_error when no flow staged it (the stream lost its framing).
  std::uint32_t take_tcp_length(std::uint32_t src, std::uint32_t seq);
  /// Credit one delivered message of `bytes` stamped `s`; `data` is an
  /// address in the received buffer (trace lookup).
  void credit(int node, const Stamp& s, std::uint32_t bytes, hw::CabAddr data);

  void install_servers();
  void install_clients();
  void server_reader_loop(int node, core::Mailbox& mb);
  void udp_server(int node);
  void tcp_server(int node);
  void reqresp_server(int node, core::Mailbox& svc);
  void closed_user_loop(std::size_t flow, int user);
  void open_flow_loop(std::size_t flow);
  bool open_send_once(std::size_t flow, core::Mailbox& scratch, sim::Random& rng);
  /// Hand staged message `m` (`size` bytes, staged in `scratch`) to the
  /// flow's protocol. A closed-loop user (`wait`) blocks until it completes;
  /// an open-loop source returns at once, an RPC running on its own thread.
  void send(std::size_t flow, core::Message m, std::uint32_t size, obs::TraceContext tctx,
            core::Mailbox& scratch, bool wait);
  /// One RPC: the client-side round trip is the message's latency.
  void call_rpc(std::size_t flow, core::Message req, std::uint32_t size, obs::TraceContext tctx,
                core::Mailbox& scratch);

  net::Network& net_;
  std::vector<net::NodeStack*> stacks_;
  WorkloadSpec spec_;
  std::uint64_t master_seed_;
  std::vector<Flow> flow_defs_;
  std::vector<FlowStats> flows_;
  std::vector<int> flow_of_src_;  // node -> flow index, -1 if none
  std::vector<TcpLengths> tcp_lengths_;  // per flow, TCP workloads only
};

}  // namespace nectar::scenario
