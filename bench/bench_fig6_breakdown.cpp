// Figure 6 (paper §6.1): breakdown of the one-way host-to-host latency for a
// 64-byte Nectar datagram. The paper reports ~163 us total, split roughly
// 40% host-CAB interface (sender + receiver), 40% CAB-to-CAB, and 20% host
// message creation/reading, with stage costs like begin_put = 8 us,
// datalink = 18 us, "pass message" = 10 us, end_get = 20 us.

#include "measure.hpp"

namespace nectar::bench {
namespace {

constexpr std::size_t kMsgSize = 64;

struct Breakdown {
  double host_create;      // building the message (begin_put + fill)
  double iface_sender;     // end_put + signal + CAB wakeup + protocol send entry
  double cab_to_cab;       // datagram protocol + datalink + wire + receive path
  double iface_receiver;   // poll detection + begin_get
  double host_read;        // reading the data + end_get
  double total;
};

Breakdown measure(const BenchOptions& opts, obs::Snapshot* metrics_out) {
  HostPair p;
  // The breakdown reads its stage boundaries back from the tracer: the host
  // marks below go on one bench track, datagram.deliver on the CAB's CPU.
  obs::Tracer& tracer = p.sys.tracer();
  tracer.set_enabled(true);
  const int host_track = tracer.track("fig6", "host");
  auto mark = [&](const char* label) { tracer.instant(host_track, label); };
  start_profile(opts, p.sys.profiler());

  core::MailboxAddr svc_addr{};
  bool ready = false;
  bool done = false;

  // Receiver host process: polls for the message (§6.1: "the host process is
  // polling for receipt of the message, so no interrupt or context switch is
  // required" on the receiving side).
  p.h1.host.run_process("receiver", [&] {
    auto hm = p.h1.nin.create_mailbox("sink");
    svc_addr = hm.mb->address();
    ready = true;
    std::vector<std::uint8_t> buf(kMsgSize);
    core::Message m = p.h1.nin.begin_get_poll(hm);
    mark("host.got-message");
    p.h1.nin.read_message(m, buf);
    mark("host.data-read");
    p.h1.nin.end_get(hm, m);
    mark("host.read-done");
    done = true;
  });
  p.sys.net().run_until(sim::msec(1));

  // Sender host process.
  p.h0.host.run_process("sender", [&] {
    host::HostNectarPort port(p.h0.nin, p.h0.sockets, "src");
    auto data = pattern(kMsgSize);
    mark("host.start");
    // HostNectarPort::send_datagram = begin_put + write + end_put; we want
    // marks between the phases, so inline the same steps here.
    nectarine::HostNectarine::HostMailbox send{&p.h0.sockets.send_mailbox(), 0, 0};
    core::Message req = p.h0.nin.begin_put(send, static_cast<std::uint32_t>(16 + data.size()));
    std::vector<std::uint8_t> hdr(16);
    proto::put32n(hdr, 0, host::SocketServer::kViaDatagram);
    proto::put32n(hdr, 4, static_cast<std::uint32_t>(svc_addr.node));
    proto::put32n(hdr, 8, svc_addr.index);
    proto::put32n(hdr, 12, port.address().index);
    mark("host.msg-built");  // descriptor ready; data still to cross the bus
    p.h0.nin.write_message(req, hdr);
    p.h0.nin.driver().copy_to_cab(data, req.data + 16);
    mark("host.data-copied");
    p.h0.nin.end_put(send, req);
    mark("host.end_put-done");
  });
  p.sys.net().run_until(sim::sec(1));
  if (!done) throw std::runtime_error("fig6: message never delivered");

  // Time of the first mark with this label; a missing mark would silently
  // skew the breakdown, so it fails the run.
  auto mark_time = [&](const char* label) {
    const obs::Tracer::Event* e = tracer.find(label);
    if (e == nullptr) throw std::runtime_error(std::string("fig6: no ") + label + " mark");
    return e->ts;
  };
  Breakdown b{};
  sim::SimTime t0 = mark_time("host.start");
  sim::SimTime built = mark_time("host.msg-built");
  sim::SimTime copied = mark_time("host.data-copied");
  sim::SimTime posted = mark_time("host.end_put-done");
  sim::SimTime dg_deliver = mark_time("datagram.deliver");
  sim::SimTime got = mark_time("host.got-message");
  sim::SimTime data_read = mark_time("host.data-read");
  sim::SimTime read_done = mark_time("host.read-done");

  // Attribution: everything between the host's End_Put returning and the
  // message landing in the destination mailbox on the far CAB is CAB work +
  // wire (the "CAB-to-CAB latency" of §6.1); the interface buckets are the
  // host-side VME manipulation plus the receiver's poll/Begin_Get.
  b.host_create = sim::to_usec(built - t0);
  b.iface_sender = sim::to_usec(posted - built);  // VME data copy + end_put/signal
  b.cab_to_cab = sim::to_usec(dg_deliver - posted);
  b.iface_receiver = sim::to_usec(data_read - dg_deliver);  // poll + begin_get + VME copy
  b.host_read = sim::to_usec(read_done - data_read);
  (void)copied;
  (void)got;
  b.total = sim::to_usec(read_done - t0);
  finish_trace(opts.trace_path, tracer);
  finish_profile(opts, p.sys.profiler());
  if (metrics_out != nullptr) *metrics_out = p.sys.metrics().snapshot();
  return b;
}

}  // namespace
}  // namespace nectar::bench

int main(int argc, char** argv) {
  using namespace nectar::bench;
  BenchOptions opts = parse_options(argc, argv, kTrace | kProfile);
  print_header("Figure 6: one-way host-to-host datagram latency breakdown (64 bytes)");

  nectar::obs::Snapshot metrics;
  Breakdown b = measure(opts, &metrics);
  std::printf("%-46s %8.1f us\n", "host: create message (begin_put)", b.host_create);
  std::printf("%-46s %8.1f us\n", "host-CAB iface, sender (VME copy+end_put+signal)", b.iface_sender);
  std::printf("%-46s %8.1f us\n", "CAB-to-CAB (wakeup + protocol + wire + deliver)", b.cab_to_cab);
  std::printf("%-46s %8.1f us\n", "host-CAB iface, receiver (poll+begin_get+VME copy)", b.iface_receiver);
  std::printf("%-46s %8.1f us\n", "host: release message (end_get)", b.host_read);
  std::printf("%-46s %8.1f us   (paper: ~163 us)\n", "TOTAL one-way", b.total);

  double iface = b.iface_sender + b.iface_receiver;
  double host = b.host_create + b.host_read;
  std::printf("\nBuckets (paper: ~40%% interface / ~40%% CAB-to-CAB / ~20%% host):\n");
  std::printf("  host-CAB interface : %5.1f us  (%4.1f%%)\n", iface, 100 * iface / b.total);
  std::printf("  CAB-to-CAB         : %5.1f us  (%4.1f%%)\n", b.cab_to_cab,
              100 * b.cab_to_cab / b.total);
  std::printf("  host processing    : %5.1f us  (%4.1f%%)\n", host, 100 * host / b.total);

  nectar::obs::RunReport report("fig6-breakdown");
  report.param("message_bytes", static_cast<std::int64_t>(kMsgSize));
  report.add("host_create", b.host_create, "us");
  report.add("iface_sender", b.iface_sender, "us");
  report.add("cab_to_cab", b.cab_to_cab, "us");
  report.add("iface_receiver", b.iface_receiver, "us");
  report.add("host_read", b.host_read, "us");
  report.add("total_one_way", b.total, "us");
  report.attach_metrics(metrics);
  finish_report(opts, report);
  return 0;
}
