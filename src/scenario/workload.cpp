#include "scenario/workload.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "proto/headers.hpp"

namespace nectar::scenario {

namespace {

void pack32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t unpack32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Stamp::write(std::uint8_t* p) const {
  pack32(p, src);
  pack32(p + 4, seq);
  pack32(p + 8, static_cast<std::uint32_t>(sent_ns));
  pack32(p + 12, static_cast<std::uint32_t>(sent_ns >> 32));
}

Stamp Stamp::read(const std::uint8_t* p) {
  return Stamp{unpack32(p), unpack32(p + 4),
               static_cast<std::uint64_t>(unpack32(p + 8)) |
                   (static_cast<std::uint64_t>(unpack32(p + 12)) << 32)};
}

sim::SimTime exp_draw(sim::Random& rng, double mean_ns) {
  double t = -std::log(1.0 - rng.next_double()) * mean_ns;
  if (t < 0.0) t = 0.0;
  if (t > 9.0e15) t = 9.0e15;
  return static_cast<sim::SimTime>(t);
}

Workload::Workload(net::Network& net, std::vector<net::NodeStack*> stacks, WorkloadSpec spec,
                   std::uint64_t master_seed)
    : net_(net), stacks_(std::move(stacks)), spec_(std::move(spec)), master_seed_(master_seed) {
  int n = net_.cab_count();
  if (spec_.users < 1) throw std::invalid_argument("workload '" + spec_.name + "': users >= 1");
  if (spec_.size_min > spec_.size_max) {
    throw std::invalid_argument("workload '" + spec_.name + "': size_min > size_max");
  }
  if (spec_.mode == Mode::Open && spec_.rate <= 0.0) {
    throw std::invalid_argument("workload '" + spec_.name + "': open mode needs rate > 0");
  }
  // Flows pair i -> (i + stride) % n: a permutation, so every node serves
  // exactly one flow and drives exactly one.
  int stride = spec_.stride % n;
  if (stride < 0) stride += n;
  flow_of_src_.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    int dst = (i + stride) % n;
    if (dst == i) continue;
    flow_of_src_[static_cast<std::size_t>(i)] = static_cast<int>(flow_defs_.size());
    Flow f;
    f.src = i;
    f.dst = dst;
    flow_defs_.push_back(f);
    FlowStats st;
    st.src = i;
    st.dst = dst;
    flows_.push_back(st);
  }
  if (flow_defs_.empty()) {
    throw std::invalid_argument("workload '" + spec_.name +
                                "': stride pairs every node with itself");
  }
  if (spec_.proto == Proto::Tcp) tcp_lengths_ = std::vector<TcpLengths>(flow_defs_.size());
}

std::uint64_t Workload::flow_seed(std::size_t flow, const char* role, int user) const {
  return sim::derive_seed(master_seed_, "wl/" + spec_.name + "/f" + std::to_string(flow) + "/" +
                                            role + std::to_string(user));
}

std::uint32_t Workload::pick_size(sim::Random& rng) const {
  auto v = static_cast<std::uint32_t>(
      rng.next_range(static_cast<std::int64_t>(spec_.size_min),
                     static_cast<std::int64_t>(spec_.size_max)));
  return v < Stamp::kBytes ? Stamp::kBytes : v;
}

std::optional<core::Message> Workload::stage(int node, core::Mailbox& scratch, std::size_t flow,
                                             std::uint32_t size, bool blocking,
                                             obs::TraceContext* tctx) {
  if (size < Stamp::kBytes) size = Stamp::kBytes;
  std::optional<core::Message> m;
  if (blocking) {
    m = scratch.begin_put(size);
  } else {
    m = scratch.begin_put_try(size);
    if (!m) return std::nullopt;
  }
  FlowStats& st = flows_[flow];
  if (tctx != nullptr) {
    if (auto* ct = obs::CausalTracer::active()) {
      const Flow& f = flow_defs_[flow];
      *tctx = ct->maybe_start(spec_.name, f.src, f.dst, st.sent);
      obs::stage(*tctx, "tx.app", f.src);
    }
  }
  std::uint8_t hdr[Stamp::kBytes];
  Stamp{static_cast<std::uint32_t>(flow_defs_[flow].src), static_cast<std::uint32_t>(st.sent),
        static_cast<std::uint64_t>(runtime(node).engine().now())}
      .write(hdr);
  net_.cab(node).memory().write(m->data, hdr);
  if (spec_.proto == Proto::Tcp) {
    TcpLengths& t = tcp_lengths_[flow];
    std::lock_guard<std::mutex> g(t.mu);
    t.by_seq.emplace(static_cast<std::uint32_t>(st.sent), m->len);
  }
  ++st.sent;
  st.sent_bytes += m->len;
  return m;
}

void Workload::observe_delivery(int node, const core::Message& m) {
  if (m.len < Stamp::kBytes) return;
  std::uint8_t hdr[Stamp::kBytes];
  net_.cab(node).memory().read(m.data, hdr);
  credit(node, Stamp::read(hdr), m.len, m.data);
}

void Workload::consume_tcp(int node, TcpStream& rx, const core::Message& chunk) {
  hw::CabAddr at = chunk.data;
  std::uint32_t n = chunk.len;
  while (n > 0) {
    std::uint32_t take;
    if (rx.have < Stamp::kBytes) {
      take = std::min(n, Stamp::kBytes - rx.have);
      net_.cab(node).memory().read(at, std::span<std::uint8_t>(rx.hdr + rx.have, take));
      rx.have += take;
      if (rx.have == Stamp::kBytes) {
        const Stamp s = Stamp::read(rx.hdr);
        rx.len = take_tcp_length(s.src, s.seq);
        rx.left = rx.len - Stamp::kBytes;
      }
    } else {
      take = std::min(n, rx.left);
      rx.left -= take;
    }
    at += take;
    n -= take;
    if (rx.have == Stamp::kBytes && rx.left == 0) {
      credit(node, Stamp::read(rx.hdr), rx.len, chunk.data);
      rx.have = 0;
    }
  }
}

std::uint32_t Workload::take_tcp_length(std::uint32_t src, std::uint32_t seq) {
  if (src < flow_of_src_.size() && flow_of_src_[src] >= 0) {
    TcpLengths& t = tcp_lengths_[static_cast<std::size_t>(flow_of_src_[src])];
    std::lock_guard<std::mutex> g(t.mu);
    auto it = t.by_seq.find(seq);
    if (it != t.by_seq.end()) {
      std::uint32_t len = it->second;
      t.by_seq.erase(it);
      return len;
    }
  }
  throw std::logic_error("workload '" + spec_.name + "': TCP message " + std::to_string(src) +
                         "/" + std::to_string(seq) + " was never staged");
}

void Workload::credit(int node, const Stamp& s, std::uint32_t bytes, hw::CabAddr data) {
  if (s.src >= flow_of_src_.size()) return;
  int fi = flow_of_src_[s.src];
  if (fi < 0) return;
  sim::SimTime now = runtime(node).engine().now();
  auto sent_ns = static_cast<sim::SimTime>(s.sent_ns);
  // A timestamp of 0 or from the future means this is not one of our
  // headers (a foreign payload).
  if (sent_ns <= 0 || sent_ns > now) return;
  FlowStats& st = flows_[static_cast<std::size_t>(fi)];
  st.latency.observe(now - sent_ns);
  ++st.delivered;
  st.delivered_bytes += bytes;
  // The receive buffer was tagged at datalink rx; header stripping only
  // moved the data pointer forward, so containment lookup still hits.
  obs::finish(obs::trace_at(node, data));
}

void Workload::install() {
  if ((spec_.proto == Proto::Udp || spec_.proto == Proto::Tcp) && spec_.port == 0) {
    throw std::invalid_argument("workload '" + spec_.name + "': udp/tcp needs a port");
  }
  install_servers();
  install_clients();
}

// --- servers ---------------------------------------------------------------------

void Workload::server_reader_loop(int node, core::Mailbox& mb) {
  for (;;) {
    core::Message m = mb.begin_get();
    observe_delivery(node, m);
    mb.end_get(m);
  }
}

void Workload::udp_server(int node) {
  core::Mailbox& rx = runtime(node).create_mailbox("wl/" + spec_.name + "/udp");
  stack(node).udp.bind(spec_.port, &rx);
  runtime(node).fork_system("wl/" + spec_.name + "/srv", [this, node, &rx] {
    for (;;) {
      core::Message m = rx.begin_get();
      observe_delivery(node, proto::Udp::payload_of(m));
      rx.end_get(m);
    }
  });
}

void Workload::tcp_server(int node) {
  runtime(node).fork_system("wl/" + spec_.name + "/acc", [this, node] {
    // Opened from thread context (Mutex is a thread-level primitive); the
    // accept thread runs at t=0, ahead of any SYN's wire latency.
    proto::TcpListener* l = stack(node).tcp.open_listener(spec_.port);
    for (;;) {
      proto::TcpConnection* c = stack(node).tcp.accept(l);
      runtime(node).fork_system("wl/" + spec_.name + "/srv", [this, node, c] {
        TcpStream rx;
        for (;;) {
          core::Message m = c->receive_mailbox().begin_get();
          if (m.len == 0) {  // peer closed
            c->receive_mailbox().end_get(m);
            return;
          }
          consume_tcp(node, rx, m);
          c->receive_mailbox().end_get(m);
        }
      });
    }
  });
}

void Workload::reqresp_server(int node, core::Mailbox& svc) {
  runtime(node).fork_system("wl/" + spec_.name + "/srv", [this, node, &svc] {
    core::Mailbox& rsp_arena = runtime(node).create_mailbox("wl/" + spec_.name + "/rsp");
    for (;;) {
      core::Message req = svc.begin_get();
      auto info = nproto::ReqResp::parse_request(runtime(node), req);
      core::Message payload = nproto::ReqResp::payload_of(req);
      svc.end_get(payload);
      // The client measures round-trip time itself; the reply only has to
      // exist.
      core::Message reply = rsp_arena.begin_put(Stamp::kBytes);
      stack(node).reqresp.respond(info, reply);
    }
  });
}

void Workload::install_servers() {
  for (Flow& f : flow_defs_) {
    switch (spec_.proto) {
      case Proto::Udp:
        udp_server(f.dst);
        break;
      case Proto::Tcp:
        tcp_server(f.dst);
        break;
      case Proto::Datagram:
      case Proto::Rmp: {
        core::Mailbox& sink = runtime(f.dst).create_mailbox("wl/" + spec_.name + "/sink");
        f.sink = sink.address();
        int node = f.dst;
        runtime(node).fork_system("wl/" + spec_.name + "/srv",
                                  [this, node, &sink] { server_reader_loop(node, sink); });
        break;
      }
      case Proto::ReqResp: {
        core::Mailbox& svc = runtime(f.dst).create_mailbox("wl/" + spec_.name + "/svc");
        f.sink = svc.address();
        reqresp_server(f.dst, svc);
        break;
      }
    }
  }
}

// --- clients ---------------------------------------------------------------------

void Workload::closed_user_loop(std::size_t flow, int user) {
  Flow& f = flow_defs_[flow];
  core::CabRuntime& rt = runtime(f.src);
  sim::Random rng(flow_seed(flow, "closed", user));
  core::Mailbox& scratch =
      rt.create_mailbox("wl/" + spec_.name + "/u" + std::to_string(user));
  // Fire-and-forget protocols have no completion to wait on; a floor on the
  // think time keeps the loop from spinning at one simulation instant.
  sim::SimTime think = spec_.think;
  if ((spec_.proto == Proto::Udp || spec_.proto == Proto::Datagram) && think < sim::usec(1)) {
    think = sim::usec(1);
  }
  for (;;) {
    std::uint32_t size = pick_size(rng);
    obs::TraceContext tctx;
    std::optional<core::Message> m = stage(f.src, scratch, flow, size, /*blocking=*/true, &tctx);
    send(flow, *m, size, tctx, scratch, /*wait=*/true);
    if (think > 0) rt.cpu().sleep_for(exp_draw(rng, static_cast<double>(think)));
  }
}

bool Workload::open_send_once(std::size_t flow, core::Mailbox& scratch, sim::Random& rng) {
  Flow& f = flow_defs_[flow];
  FlowStats& st = flows_[flow];
  // Back-pressure guards: an open-loop source sheds instead of blocking, so
  // overload shows up as loss at the edge rather than a stuck generator.
  switch (spec_.proto) {
    case Proto::Tcp:
      if (f.conn == nullptr || !f.conn->established() ||
          f.conn->unacked_bytes() > kTcpShedBytes) {
        ++st.shed;
        return false;
      }
      break;
    case Proto::Rmp:
      if (stack(f.src).rmp.queued_to(f.dst) >= kRmpShedQueue) {
        ++st.shed;
        return false;
      }
      break;
    case Proto::ReqResp:
      if (f.rpc_outstanding) {
        ++st.shed;
        return false;
      }
      break;
    default:
      break;
  }
  std::uint32_t size = pick_size(rng);
  obs::TraceContext tctx;
  std::optional<core::Message> m = stage(f.src, scratch, flow, size, /*blocking=*/false, &tctx);
  if (!m) {
    ++st.shed;  // buffer heap exhausted
    return false;
  }
  send(flow, *m, size, tctx, scratch, /*wait=*/false);
  return true;
}

void Workload::send(std::size_t flow, core::Message m, std::uint32_t size, obs::TraceContext tctx,
                    core::Mailbox& scratch, bool wait) {
  Flow& f = flow_defs_[flow];
  net::NodeStack& s = stack(f.src);
  switch (spec_.proto) {
    case Proto::Udp:
      s.udp.send(spec_.port, proto::ip_of_node(f.dst), spec_.port, m, true, tctx);
      break;
    case Proto::Tcp:
      s.tcp.send(f.conn, m, true, tctx);
      if (wait) s.tcp.wait_drained(f.conn);
      break;
    case Proto::Datagram:
      s.datagram.send(f.sink, m, true, 0, tctx);
      break;
    case Proto::Rmp:
      s.rmp.send(f.sink, m, true, {}, tctx);
      if (wait) s.rmp.wait_acked(f.dst);
      break;
    case Proto::ReqResp:
      if (wait) {
        call_rpc(flow, m, size, tctx, scratch);
        break;
      }
      f.rpc_outstanding = true;
      runtime(f.src).fork_app("wl/" + spec_.name + "/rpc",
                              [this, flow, m, size, tctx, &scratch] {
                                call_rpc(flow, m, size, tctx, scratch);
                                flow_defs_[flow].rpc_outstanding = false;
                              });
      break;
  }
}

void Workload::call_rpc(std::size_t flow, core::Message req, std::uint32_t size,
                        obs::TraceContext tctx, core::Mailbox& scratch) {
  const Flow& f = flow_defs_[flow];
  FlowStats& st = flows_[flow];
  core::CabRuntime& rt = runtime(f.src);
  sim::SimTime t0 = rt.engine().now();
  try {
    core::Message rsp = stack(f.src).reqresp.call(f.sink, req, true, tctx);
    st.latency.observe(rt.engine().now() - t0);
    ++st.delivered;
    st.delivered_bytes += size;
    scratch.end_get(rsp);
    // RPC latency is the client-side round trip; close the trace here
    // rather than at a receive-side observe_delivery.
    obs::finish(tctx);
  } catch (const std::runtime_error&) {
    ++st.errors;
  }
}

void Workload::open_flow_loop(std::size_t flow) {
  Flow& f = flow_defs_[flow];
  FlowStats& st = flows_[flow];
  core::CabRuntime& rt = runtime(f.src);
  sim::Random rng(flow_seed(flow, "open", 0));
  core::Mailbox& scratch = rt.create_mailbox("wl/" + spec_.name + "/gen");
  if (spec_.proto == Proto::Tcp) {
    f.conn = stack(f.src).tcp.connect(static_cast<std::uint16_t>(spec_.port + 1),
                                      proto::ip_of_node(f.dst), spec_.port);
    if (!stack(f.src).tcp.wait_established(f.conn)) {
      ++st.errors;
      return;
    }
  }
  // `users` independent Poisson sources aggregate to one Poisson process.
  double mean_ns = 1e9 / (spec_.rate * spec_.users);
  for (;;) {
    rt.cpu().sleep_for(exp_draw(rng, mean_ns));
    open_send_once(flow, scratch, rng);
  }
}

void Workload::install_clients() {
  for (std::size_t i = 0; i < flow_defs_.size(); ++i) {
    Flow& f = flow_defs_[i];
    if (spec_.mode == Mode::Open) {
      runtime(f.src).fork_app("wl/" + spec_.name + "/gen", [this, i] { open_flow_loop(i); });
      continue;
    }
    if (spec_.proto == Proto::Tcp) {
      // One connection per flow, shared by every user thread; the driver
      // establishes it, then spawns the users.
      runtime(f.src).fork_app("wl/" + spec_.name + "/drv", [this, i] {
        Flow& fl = flow_defs_[i];
        core::CabRuntime& rt = runtime(fl.src);
        fl.conn = stack(fl.src).tcp.connect(static_cast<std::uint16_t>(spec_.port + 1),
                                            proto::ip_of_node(fl.dst), spec_.port);
        if (!stack(fl.src).tcp.wait_established(fl.conn)) {
          ++flows_[i].errors;
          return;
        }
        for (int u = 0; u < spec_.users; ++u) {
          rt.fork_app("wl/" + spec_.name + "/u" + std::to_string(u),
                      [this, i, u] { closed_user_loop(i, u); });
        }
      });
    } else {
      for (int u = 0; u < spec_.users; ++u) {
        runtime(f.src).fork_app("wl/" + spec_.name + "/u" + std::to_string(u),
                                [this, i, u] { closed_user_loop(i, u); });
      }
    }
  }
}

// --- aggregates ------------------------------------------------------------------

obs::LatencyHistogram Workload::latency() const {
  obs::LatencyHistogram merged;
  for (const FlowStats& f : flows_) merged.merge(f.latency);
  return merged;
}

std::uint64_t Workload::sent() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows_) n += f.sent;
  return n;
}

std::uint64_t Workload::delivered() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows_) n += f.delivered;
  return n;
}

std::uint64_t Workload::delivered_bytes() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows_) n += f.delivered_bytes;
  return n;
}

std::uint64_t Workload::shed() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows_) n += f.shed;
  return n;
}

std::uint64_t Workload::errors() const {
  std::uint64_t n = 0;
  for (const FlowStats& f : flows_) n += f.errors;
  return n;
}

std::uint64_t Workload::tcp_retransmissions() const {
  std::uint64_t n = 0;
  for (const Flow& f : flow_defs_) {
    if (f.conn != nullptr) n += f.conn->retransmissions();
  }
  return n;
}

std::uint64_t Workload::tcp_fast_retransmits() const {
  std::uint64_t n = 0;
  for (const Flow& f : flow_defs_) {
    if (f.conn != nullptr) n += f.conn->fast_retransmits();
  }
  return n;
}

double Workload::goodput_mbps(sim::SimTime duration) const {
  if (duration <= 0) return 0.0;
  double bits = static_cast<double>(delivered_bytes()) * 8.0;
  double secs = static_cast<double>(duration) / static_cast<double>(sim::kSecond);
  return bits / secs / 1e6;
}

void Workload::register_metrics(obs::Registration& reg) const {
  const std::string prefix = spec_.name + ".";
  reg.probe(-1, "workload", prefix + "sent",
            [this] { return static_cast<std::int64_t>(sent()); });
  reg.probe(-1, "workload", prefix + "delivered",
            [this] { return static_cast<std::int64_t>(delivered()); });
  reg.probe(-1, "workload", prefix + "delivered_bytes",
            [this] { return static_cast<std::int64_t>(delivered_bytes()); });
  reg.probe(-1, "workload", prefix + "shed",
            [this] { return static_cast<std::int64_t>(shed()); });
  reg.probe(-1, "workload", prefix + "errors",
            [this] { return static_cast<std::int64_t>(errors()); });
}

double Workload::fairness() const {
  double sum = 0.0, sq = 0.0;
  for (const FlowStats& f : flows_) {
    auto x = static_cast<double>(f.delivered_bytes);
    sum += x;
    sq += x * x;
  }
  if (sq <= 0.0) return 1.0;
  double n = static_cast<double>(flows_.size());
  return (sum * sum) / (n * sq);
}

}  // namespace nectar::scenario
