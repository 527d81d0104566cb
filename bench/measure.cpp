#include "measure.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

namespace nectar::bench {

namespace {

constexpr std::uint16_t kTcpPort = 80;
constexpr std::uint16_t kTcpClientPort = 5000;
constexpr std::uint16_t kUdpEchoPort = 7;
constexpr std::uint16_t kUdpClientPort = 9000;

/// What a host kernel's server process reports back: that it is up, and
/// where it serves. The process outlives the kernel's frame, so the two
/// share this rather than the process writing to the kernel's locals.
struct Server {
  bool up = false;
  core::MailboxAddr at{};
};

/// Run the engine for 1 ms, by which a host kernel's server must be up, and
/// return where it serves.
core::MailboxAddr wait_until_up(HostPair& p, const Server& server) {
  p.sys.net().run_until(sim::msec(1));
  if (!server.up) throw std::runtime_error("measure: host server not up after 1 ms");
  return server.at;
}

}  // namespace

int fig7_messages(std::size_t size) {
  if (size <= 64) return 1500;
  if (size <= 1024) return 800;
  return 400;
}

int fig8_messages(std::size_t size) {
  if (size <= 64) return 600;
  if (size <= 1024) return 300;
  return 150;
}

void cab_tcp_stream(net::NectarSystem& sys, Stream& s, std::size_t size, int n,
                    std::uint32_t window) {
  s.bytes = static_cast<std::uint64_t>(n) * size;
  sys.runtime(1).fork_app("server", [&sys, &s] {
    proto::TcpConnection* c = sys.stack(1).tcp.listen(kTcpPort);
    sys.stack(1).tcp.wait_established(c);
    std::uint64_t got = 0;
    while (got < s.bytes) {
      core::Message m = c->receive_mailbox().begin_get();
      if (s.t0 < 0) s.t0 = sys.engine().now();
      got += m.len;
      c->receive_mailbox().end_get(m);
    }
    s.t1 = sys.engine().now();
  });
  sys.runtime(0).fork_app("client", [&sys, &s, size, n, window] {
    sys.runtime(0).cpu().sleep_for(sim::usec(100));
    s.conn = sys.stack(0).tcp.connect(kTcpClientPort, proto::ip_of_node(1), kTcpPort);
    sys.stack(0).tcp.wait_established(s.conn);
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    for (int i = 0; i < n; ++i) {
      sys.stack(0).tcp.wait_send_window(s.conn, window);
      core::Message m = scratch.begin_put(static_cast<std::uint32_t>(size));
      sys.stack(0).tcp.send(s.conn, m);
    }
  });
}

void cab_rmp_stream(net::NectarSystem& sys, Stream& s, std::size_t size) {
  const int n = fig7_messages(size);
  s.bytes = static_cast<std::uint64_t>(n) * size;
  core::Mailbox* sink = &sys.runtime(1).create_mailbox("sink");
  sys.runtime(1).fork_system("recv", [&sys, &s, sink, n] {
    for (int i = 0; i < n; ++i) {
      core::Message m = sink->begin_get();
      if (i == 0) s.t0 = std::max<sim::SimTime>(sys.engine().now() - sim::usec(80), 0);
      sink->end_get(m);
    }
    s.t1 = sys.engine().now();
  });
  sys.runtime(0).fork_system("send", [&sys, sink, size, n] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    for (int i = 0; i < n; ++i) {
      // Pace against CAB buffer memory.
      sys.stack(0).rmp.wait_queue_below(1, 16);
      core::Message m = scratch.begin_put(static_cast<std::uint32_t>(size));
      sys.stack(0).rmp.send(sink->address(), m);
    }
  });
}

void host_tcp_stream(HostPair& p, Stream& s, std::size_t size) {
  const int n = fig8_messages(size);
  s.bytes = static_cast<std::uint64_t>(n) * size;
  auto server = std::make_shared<Server>();
  p.h1.host.run_process("server", [&p, &s, server] {
    host::HostTcpSocket sock(p.h1.nin, p.h1.sockets, p.sys.stack(1).tcp);
    server->up = true;
    if (!sock.listen(kTcpPort)) return;
    std::vector<std::uint8_t> buf(16 * 1024);
    std::uint64_t got = 0;
    while (got < s.bytes) {
      std::size_t r = sock.recv(buf);
      if (r == 0) break;
      if (s.t0 < 0) s.t0 = p.sys.engine().now();
      got += r;
    }
    s.t1 = p.sys.engine().now();
  });
  wait_until_up(p, *server);
  p.h0.host.run_process("client", [&p, size, n] {
    p.h0.host.cpu().sleep_for(sim::usec(500));
    host::HostTcpSocket sock(p.h0.nin, p.h0.sockets, p.sys.stack(0).tcp);
    if (!sock.connect(kTcpClientPort, proto::ip_of_node(1), kTcpPort)) return;
    auto data = pattern(size);
    proto::TcpConnection* c = p.sys.stack(0).tcp.find(sock.conn_id());
    for (int i = 0; i < n; ++i) {
      // Each poll of the connection state is a programmed access over the bus.
      while (c->unacked_bytes() >= kCabSendWindow) {
        p.h0.host.cpu().charge_until(p.sys.net().vme(0)->programmed_access(1));
        p.h0.host.cpu().sleep_for(sim::usec(200));
      }
      sock.send(data);
    }
  });
}

void host_rmp_stream(HostPair& p, Stream& s, std::size_t size) {
  const int n = fig8_messages(size);
  s.bytes = static_cast<std::uint64_t>(n - 1) * size;
  auto server = std::make_shared<Server>();
  p.h1.host.run_process("recv", [&p, &s, server, size, n] {
    host::HostNectarPort port(p.h1.nin, p.h1.sockets, "sink");
    server->at = port.address();
    server->up = true;
    std::vector<std::uint8_t> buf(size);
    for (int i = 0; i < n; ++i) {
      port.recv(buf);
      if (i == 0) s.t0 = p.sys.engine().now();
    }
    s.t1 = p.sys.engine().now();
  });
  const core::MailboxAddr sink = wait_until_up(p, *server);
  p.h0.host.run_process("send", [&p, sink, size, n] {
    host::HostNectarPort port(p.h0.nin, p.h0.sockets, "src");
    auto data = pattern(size);
    for (int i = 0; i < n; ++i) {
      // Each poll of the CAB's queue depth is a programmed access over the bus.
      while (p.sys.stack(0).rmp.queued_to(1) >= 8) {
        p.h0.host.cpu().charge_until(p.sys.net().vme(0)->programmed_access(1));
        p.h0.host.cpu().sleep_for(sim::usec(200));
      }
      port.send_reliable(sink, data);
    }
  });
}

void cab_round_trips(net::NectarSystem& sys, Protocol protocol, std::vector<sim::SimTime>& rtts) {
  core::Mailbox* svc = &sys.runtime(1).create_mailbox("echo");
  // A request-response reply returns from the call itself.
  core::Mailbox* reply =
      protocol == Protocol::ReqResp ? nullptr : &sys.runtime(0).create_mailbox("reply");
  if (protocol == Protocol::Udp) {
    sys.stack(1).udp.bind(kUdpEchoPort, svc);
    sys.stack(0).udp.bind(kUdpClientPort, reply);
  }

  sys.runtime(1).fork_system("echo", [&sys, protocol, svc, reply] {
    net::NodeStack& st = sys.stack(1);
    for (int i = 0; i < kRounds; ++i) {
      core::Message m = svc->begin_get();
      switch (protocol) {
        case Protocol::Datagram: {
          auto from = st.datagram.last_sender(*svc);
          st.datagram.send({from.src_node, from.src_mailbox}, m);
          break;
        }
        case Protocol::Rmp:
          st.rmp.send(reply->address(), m);
          break;
        case Protocol::ReqResp: {
          auto from = nproto::ReqResp::parse_request(sys.runtime(1), m);
          st.reqresp.respond(from, nproto::ReqResp::payload_of(m));
          break;
        }
        case Protocol::Udp: {
          auto from = st.udp.info_of(m);
          st.udp.send(kUdpEchoPort, from.src_addr, from.src_port, proto::Udp::payload_of(m));
          break;
        }
      }
    }
  });

  sys.runtime(0).fork_system("client", [&sys, protocol, svc, reply, &rtts] {
    net::NodeStack& st = sys.stack(0);
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    auto data = pattern(kRttBytes);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      core::Message m = scratch.begin_put(kRttBytes);
      sys.runtime(0).board().memory().write(m.data, data);
      core::Message r;
      switch (protocol) {
        case Protocol::Datagram:
          st.datagram.send(svc->address(), m, true, reply->address().index);
          break;
        case Protocol::Rmp:
          st.rmp.send(svc->address(), m);
          break;
        case Protocol::ReqResp:
          r = st.reqresp.call(svc->address(), m);
          break;
        case Protocol::Udp:
          st.udp.send(kUdpClientPort, proto::ip_of_node(1), kUdpEchoPort, m);
          break;
      }
      if (reply != nullptr) r = reply->begin_get();
      rtts.push_back(sys.engine().now() - t0);
      (reply != nullptr ? *reply : scratch).end_get(r);
    }
  });
}

void host_round_trips(HostPair& p, Protocol protocol, std::vector<sim::SimTime>& rtts) {
  using host::HostNectarPort;
  // Big enough for any row's message and the header in front of it.
  constexpr std::size_t kBufBytes = kRttBytes + 64;

  auto server = std::make_shared<Server>();
  p.h1.host.run_process("echo", [&p, protocol, server] {
    HostNectarPort port(p.h1.nin, p.h1.sockets, "echo");
    if (protocol == Protocol::Udp) port.bind_udp(p.sys.stack(1).udp, kUdpEchoPort);
    server->at = port.address();
    server->up = true;
    std::vector<std::uint8_t> buf(kBufBytes);
    for (int i = 0; i < kRounds; ++i) {
      if (protocol == Protocol::Udp) {
        std::size_t n = port.recv_udp(buf);
        port.send_udp(proto::ip_of_node(0), kUdpClientPort, kUdpEchoPort,
                      std::span<const std::uint8_t>(buf).first(n));
        continue;
      }
      std::size_t n = port.recv(buf);
      std::span<const std::uint8_t> msg = std::span<const std::uint8_t>(buf).first(n);
      if (protocol == Protocol::ReqResp) {
        auto from = HostNectarPort::parse_request(msg.first(HostNectarPort::kRequestHeader));
        port.respond(from, msg.subspan(HostNectarPort::kRequestHeader));
        continue;
      }
      // The client wrote its reply address into the message's first 8 bytes.
      core::MailboxAddr back{static_cast<std::int32_t>(proto::get32n(buf, 0)),
                             proto::get32n(buf, 4)};
      if (protocol == Protocol::Datagram) {
        port.send_datagram(back, msg);
      } else {
        port.send_reliable(back, msg);
      }
    }
  });
  const core::MailboxAddr svc = wait_until_up(p, *server);

  p.h0.host.run_process("client", [&p, protocol, svc, &rtts] {
    // A request-response client calls through its CAB's host-call service.
    std::optional<HostNectarPort> port;
    if (protocol != Protocol::ReqResp) port.emplace(p.h0.nin, p.h0.sockets, "client");
    if (protocol == Protocol::Udp) port->bind_udp(p.sys.stack(0).udp, kUdpClientPort);
    std::vector<std::uint8_t> msg = pattern(kRttBytes);
    if (protocol == Protocol::Datagram || protocol == Protocol::Rmp) {
      proto::put32n(msg, 0, static_cast<std::uint32_t>(port->address().node));
      proto::put32n(msg, 4, port->address().index);
    }
    std::vector<std::uint8_t> buf(kBufBytes);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = p.sys.engine().now();
      switch (protocol) {
        case Protocol::Datagram:
          port->send_datagram(svc, msg);
          port->recv(buf);
          break;
        case Protocol::Rmp:
          port->send_reliable(svc, msg);
          port->recv(buf);
          break;
        case Protocol::ReqResp:
          p.h0.nin.host_call(p.h0.services, svc, msg);
          break;
        case Protocol::Udp:
          port->send_udp(proto::ip_of_node(1), kUdpEchoPort, kUdpClientPort, msg);
          port->recv_udp(buf);
          break;
      }
      rtts.push_back(p.sys.engine().now() - t0);
    }
  });
}

}  // namespace nectar::bench
