// Table 1 (paper §6.1): round-trip latency in microseconds for the Nectar
// datagram, reliable message (RMP), and request-response protocols, plus
// UDP — between two host processes (Host-Host) and between two CAB threads
// (CAB-CAB). The paper reports datagram at 325 us host-host / 179 us CAB-CAB
// and an application-level RPC under 500 us.

#include "common.hpp"

namespace nectar::bench {
namespace {

constexpr int kRounds = 15;
constexpr std::size_t kMsgSize = 64;

// --- CAB-to-CAB round trips --------------------------------------------------

/// Echo server and ping-pong client as CAB threads; returns median RTT.
double cab_datagram_rtt() {
  net::NectarSystem sys(2);
  core::Mailbox& svc = sys.runtime(1).create_mailbox("echo");
  core::Mailbox& reply = sys.runtime(0).create_mailbox("reply");
  sys.runtime(1).fork_system("echo", [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::Message m = svc.begin_get();
      auto info = sys.stack(1).datagram.last_sender(svc);
      sys.stack(1).datagram.send({info.src_node, info.src_mailbox}, m);
    }
  });
  std::vector<sim::SimTime> rtts;
  sys.runtime(0).fork_system("client", [&] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    auto data = pattern(kMsgSize);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      sys.stack(0).datagram.send(svc.address(), stage_message(scratch, sys.runtime(0), data),
                                 true, reply.address().index);
      core::Message r = reply.begin_get();
      rtts.push_back(sys.engine().now() - t0);
      reply.end_get(r);
    }
  });
  sys.engine().run();
  return median_usec(rtts);
}

double cab_rmp_rtt() {
  net::NectarSystem sys(2);
  core::Mailbox& svc = sys.runtime(1).create_mailbox("echo");
  core::Mailbox& reply = sys.runtime(0).create_mailbox("reply");
  core::MailboxAddr reply_addr = reply.address();
  sys.runtime(1).fork_system("echo", [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::Message m = svc.begin_get();
      sys.stack(1).rmp.send(reply_addr, m);
    }
  });
  std::vector<sim::SimTime> rtts;
  sys.runtime(0).fork_system("client", [&] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    auto data = pattern(kMsgSize);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      sys.stack(0).rmp.send(svc.address(), stage_message(scratch, sys.runtime(0), data));
      core::Message r = reply.begin_get();
      rtts.push_back(sys.engine().now() - t0);
      reply.end_get(r);
    }
  });
  sys.engine().run();
  return median_usec(rtts);
}

double cab_reqresp_rtt() {
  net::NectarSystem sys(2);
  core::Mailbox& svc = sys.runtime(1).create_mailbox("service");
  sys.runtime(1).fork_system("server", [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::Message req = svc.begin_get();
      auto info = nproto::ReqResp::parse_request(sys.runtime(1), req);
      core::Message payload = nproto::ReqResp::payload_of(req);
      sys.stack(1).reqresp.respond(info, payload);  // echo the payload back
    }
  });
  std::vector<sim::SimTime> rtts;
  sys.runtime(0).fork_system("client", [&] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    auto data = pattern(kMsgSize);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      core::Message rsp =
          sys.stack(0).reqresp.call(svc.address(), stage_message(scratch, sys.runtime(0), data));
      rtts.push_back(sys.engine().now() - t0);
      scratch.end_get(rsp);
    }
  });
  sys.engine().run();
  return median_usec(rtts);
}

double cab_udp_rtt() {
  net::NectarSystem sys(2);
  core::Mailbox& server_rx = sys.runtime(1).create_mailbox("udp-srv");
  core::Mailbox& client_rx = sys.runtime(0).create_mailbox("udp-cli");
  sys.stack(1).udp.bind(7, &server_rx);
  sys.stack(0).udp.bind(9000, &client_rx);
  sys.runtime(1).fork_system("echo", [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::Message m = server_rx.begin_get();
      auto info = sys.stack(1).udp.info_of(m);
      core::Message payload = proto::Udp::payload_of(m);
      sys.stack(1).udp.send(7, info.src_addr, info.src_port, payload);
    }
  });
  std::vector<sim::SimTime> rtts;
  sys.runtime(0).fork_system("client", [&] {
    core::Mailbox& scratch = sys.runtime(0).create_mailbox("scratch");
    auto data = pattern(kMsgSize);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = sys.engine().now();
      sys.stack(0).udp.send(9000, proto::ip_of_node(1), 7,
                            stage_message(scratch, sys.runtime(0), data));
      core::Message r = client_rx.begin_get();
      rtts.push_back(sys.engine().now() - t0);
      client_rx.end_get(r);
    }
  });
  sys.engine().run();
  return median_usec(rtts);
}

// --- Host-to-host round trips -----------------------------------------------------

struct HostPair {
  net::NectarSystem sys{2, /*with_vme=*/true};
  host::HostNode h0{sys, 0};
  host::HostNode h1{sys, 1};
};

double host_datagram_rtt(const std::string& trace_path = "") {
  HostPair p;
  if (!trace_path.empty()) p.sys.tracer().set_enabled(true);
  core::MailboxAddr svc_addr{};
  bool ready = false;
  p.h1.host.run_process("echo", [&] {
    host::HostNectarPort port(p.h1.nin, p.h1.sockets, "echo");
    svc_addr = port.address();
    ready = true;
    std::vector<std::uint8_t> buf(kMsgSize + 16);
    for (int i = 0; i < kRounds; ++i) {
      std::size_t n = port.recv(buf);
      core::MailboxAddr back{static_cast<std::int32_t>(proto::get32n(buf, 0)),
                             proto::get32n(buf, 4)};
      port.send_datagram(back, std::span<const std::uint8_t>(buf).first(n));
    }
  });
  p.sys.net().run_until(sim::msec(1));
  if (!ready) return -1;
  std::vector<sim::SimTime> rtts;
  p.h0.host.run_process("client", [&] {
    host::HostNectarPort port(p.h0.nin, p.h0.sockets, "client");
    std::vector<std::uint8_t> msg = pattern(kMsgSize);
    proto::put32n(msg, 0, static_cast<std::uint32_t>(port.address().node));
    proto::put32n(msg, 4, port.address().index);
    std::vector<std::uint8_t> buf(kMsgSize + 16);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = p.sys.engine().now();
      port.send_datagram(svc_addr, msg);
      port.recv(buf);
      rtts.push_back(p.sys.engine().now() - t0);
    }
  });
  p.sys.net().run_until(sim::sec(5));
  finish_trace(trace_path, p.sys.tracer());
  return median_usec(rtts);
}

double host_rmp_rtt() {
  HostPair p;
  core::MailboxAddr svc_addr{};
  bool ready = false;
  p.h1.host.run_process("echo", [&] {
    host::HostNectarPort port(p.h1.nin, p.h1.sockets, "echo");
    svc_addr = port.address();
    ready = true;
    std::vector<std::uint8_t> buf(kMsgSize + 16);
    for (int i = 0; i < kRounds; ++i) {
      std::size_t n = port.recv(buf);
      core::MailboxAddr back{static_cast<std::int32_t>(proto::get32n(buf, 0)),
                             proto::get32n(buf, 4)};
      port.send_reliable(back, std::span<const std::uint8_t>(buf).first(n));
    }
  });
  p.sys.net().run_until(sim::msec(1));
  if (!ready) return -1;
  std::vector<sim::SimTime> rtts;
  p.h0.host.run_process("client", [&] {
    host::HostNectarPort port(p.h0.nin, p.h0.sockets, "client");
    std::vector<std::uint8_t> msg = pattern(kMsgSize);
    proto::put32n(msg, 0, static_cast<std::uint32_t>(port.address().node));
    proto::put32n(msg, 4, port.address().index);
    std::vector<std::uint8_t> buf(kMsgSize + 16);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = p.sys.engine().now();
      port.send_reliable(svc_addr, msg);
      port.recv(buf);
      rtts.push_back(p.sys.engine().now() - t0);
    }
  });
  p.sys.net().run_until(sim::sec(5));
  return median_usec(rtts);
}

double host_reqresp_rtt() {
  // "RPC between application tasks executing on two Nectar hosts" (§6,
  // reported below 500 us): the client host calls through its CAB's
  // host-call service; the *server host process* receives the request from
  // the request-response service mailbox and replies.
  HostPair p;
  core::MailboxAddr svc_addr{};
  bool ready = false;
  p.h1.host.run_process("rpc-server", [&] {
    host::HostNectarPort port(p.h1.nin, p.h1.sockets, "rpc-svc");
    svc_addr = port.address();
    ready = true;
    std::vector<std::uint8_t> buf(kMsgSize + 64);
    for (int i = 0; i < kRounds; ++i) {
      std::size_t n = port.recv(buf);
      auto info = host::HostNectarPort::parse_request(
          std::span<const std::uint8_t>(buf).first(host::HostNectarPort::kRequestHeader));
      port.respond(info, std::span<const std::uint8_t>(buf).subspan(
                             host::HostNectarPort::kRequestHeader,
                             n - host::HostNectarPort::kRequestHeader));
    }
  });
  p.sys.net().run_until(sim::msec(1));
  if (!ready) return -1;
  std::vector<sim::SimTime> rtts;
  p.h0.host.run_process("client", [&] {
    auto req = pattern(kMsgSize);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = p.sys.engine().now();
      p.h0.nin.host_call(p.h0.services, svc_addr, req);
      rtts.push_back(p.sys.engine().now() - t0);
    }
  });
  p.sys.net().run_until(sim::sec(5));
  return median_usec(rtts);
}

double host_udp_rtt() {
  HostPair p;
  bool ready = false;
  p.h1.host.run_process("echo", [&] {
    host::HostNectarPort port(p.h1.nin, p.h1.sockets, "udp-echo");
    port.bind_udp(p.sys.stack(1).udp, 7);
    ready = true;
    std::vector<std::uint8_t> buf(kMsgSize + 64);
    for (int i = 0; i < kRounds; ++i) {
      std::size_t n = port.recv_udp(buf);
      port.send_udp(proto::ip_of_node(0), 9000, 7, std::span<const std::uint8_t>(buf).first(n));
    }
  });
  p.sys.net().run_until(sim::msec(1));
  if (!ready) return -1;
  std::vector<sim::SimTime> rtts;
  p.h0.host.run_process("client", [&] {
    host::HostNectarPort port(p.h0.nin, p.h0.sockets, "udp-client");
    port.bind_udp(p.sys.stack(0).udp, 9000);
    auto msg = pattern(kMsgSize);
    std::vector<std::uint8_t> buf(kMsgSize + 64);
    for (int i = 0; i < kRounds; ++i) {
      sim::SimTime t0 = p.sys.engine().now();
      port.send_udp(proto::ip_of_node(1), 7, 9000, msg);
      port.recv_udp(buf);
      rtts.push_back(p.sys.engine().now() - t0);
    }
  });
  p.sys.net().run_until(sim::sec(5));
  return median_usec(rtts);
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv, kTrace);
  print_header("Table 1: round-trip latency (usec), 64-byte messages");

  struct Row {
    const char* name;
    double host_host;
    double cab_cab;
    const char* paper;
  };
  Row rows[] = {
      {"datagram", host_datagram_rtt(opts.trace_path), cab_datagram_rtt(), "325 / 179"},
      {"reliable message (RMP)", host_rmp_rtt(), cab_rmp_rtt(), "n/a (between dg and rr)"},
      {"request-response (RPC)", host_reqresp_rtt(), cab_reqresp_rtt(), "< 500 (RPC, host-host)"},
      {"UDP", host_udp_rtt(), cab_udp_rtt(), "n/a (slowest row)"},
  };

  std::printf("%-26s %12s %12s    %s\n", "protocol", "Host-Host", "CAB-CAB", "paper (us)");
  for (const Row& r : rows) {
    std::printf("%-26s %12.1f %12.1f    %s\n", r.name, r.host_host, r.cab_cab, r.paper);
  }
  std::printf("\nShape checks: datagram is the fastest row; every Nectar-specific\n"
              "protocol beats UDP; the host-host RPC stays under 500 us.\n");

  nectar::obs::RunReport report("table1-latency");
  report.param("message_bytes", std::int64_t{64});
  report.param("rounds", std::int64_t{kRounds});
  const char* slug[] = {"datagram", "rmp", "reqresp", "udp"};
  for (std::size_t i = 0; i < 4; ++i) {
    report.add(std::string(slug[i]) + "_host_host_rtt", rows[i].host_host, "us");
    report.add(std::string(slug[i]) + "_cab_cab_rtt", rows[i].cab_cab, "us");
  }
  finish_report(opts, report);
  return 0;
}
