#include "nproto/reqresp.hpp"

#include <stdexcept>

#include "core/cpu.hpp"
#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::nproto {

namespace costs = sim::costs;

ReqResp::ReqResp(proto::Datalink& dl)
    : dl_(dl),
      input_(dl.runtime().create_mailbox("reqresp-input")),
      metrics_reg_(dl.runtime().metrics()) {
  dl_.register_client(proto::PacketType::ReqResp, this);

  int node = dl_.node_id();
  metrics_reg_.probe(node, "reqresp", "calls_sent",
                     [this] { return static_cast<std::int64_t>(calls_); });
  metrics_reg_.probe(node, "reqresp", "requests_delivered",
                     [this] { return static_cast<std::int64_t>(requests_delivered_); });
  metrics_reg_.probe(node, "reqresp", "responses_sent",
                     [this] { return static_cast<std::int64_t>(responses_sent_); });
  metrics_reg_.probe(node, "reqresp", "retries",
                     [this] { return static_cast<std::int64_t>(retries_); });
  metrics_reg_.probe(node, "reqresp", "duplicate_requests",
                     [this] { return static_cast<std::int64_t>(dup_requests_); });
}

ReqResp::RequestInfo ReqResp::parse_request(core::CabRuntime& rt, const core::Message& m) {
  proto::NectarHeader h =
      proto::NectarHeader::parse(rt.board().memory().view(m.data, proto::NectarHeader::kSize));
  RequestInfo info;
  info.client_node = h.src_node;
  info.reply_mailbox = h.src_mailbox;
  info.xid = h.seq;
  return info;
}

core::Message ReqResp::payload_of(core::Message m) {
  return core::Mailbox::adjust_prefix(m, proto::NectarHeader::kSize);
}

void ReqResp::transmit_request(std::uint16_t xid) {
  OutstandingCall& oc = calls_out_.at(xid);
  proto::NectarHeader h;
  h.dst_mailbox = oc.dst_mailbox;
  h.src_mailbox = 0;
  h.src_node = static_cast<std::uint8_t>(dl_.node_id());
  h.flags = kFlagRequest;
  h.seq = xid;
  h.length = static_cast<std::uint16_t>(oc.req_len);
  proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
  h.serialize(hdr->push_front(proto::NectarHeader::kSize));
  dl_.send(proto::PacketType::ReqResp, oc.dst_node, std::move(hdr), oc.req_payload, oc.req_len, {},
           oc.ctx);

  core::Cpu& cpu = runtime().cpu();
  if (oc.timer_set) cpu.cancel_timer(oc.timer);
  oc.timer_set = true;
  oc.timer = cpu.set_timer(runtime().engine().now() + kRetryInterval,
                           [this, xid] { on_call_timeout(xid); });
}

void ReqResp::on_call_timeout(std::uint16_t xid) {
  auto it = calls_out_.find(xid);
  if (it == calls_out_.end() || it->second.done) return;
  OutstandingCall& oc = it->second;
  if (!oc.timer_set) return;
  oc.timer_set = false;
  if (--oc.retries_left <= 0) {
    oc.failed = true;
    oc.done = true;
    if (oc.waiter != nullptr) oc.waiter->cpu().wake(oc.waiter);
    return;
  }
  ++retries_;
  obs::annotate(oc.ctx, "rpc.retry");
  obs::stage(oc.ctx, "tx.rpc", dl_.node_id());
  transmit_request(xid);
}

core::Message ReqResp::call(core::MailboxAddr dst, core::Message request, bool free_request,
                            obs::TraceContext tctx) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("reqresp/call");
  cpu.charge(costs::kNectarProtoSend);
  runtime().trace_mark("reqresp.call");
  obs::stage(tctx, "tx.rpc", dl_.node_id());

  core::InterruptGuard g(cpu);
  std::uint16_t xid = next_xid_++;
  OutstandingCall& oc = calls_out_[xid];
  oc.waiter = cpu.current_thread();
  oc.req_payload = request.data;
  oc.req_len = request.len;
  oc.dst_mailbox = dst.index;
  oc.dst_node = dst.node;
  oc.ctx = tctx;
  ++calls_;
  transmit_request(xid);

  while (!oc.done) cpu.block_unmasked();

  // The request buffer stayed alive for retransmissions; release it now.
  if (free_request) input_.end_get(request);
  bool failed = oc.failed;
  core::Message response = oc.response;
  if (oc.timer_set) cpu.cancel_timer(oc.timer);
  calls_out_.erase(xid);
  if (failed) throw std::runtime_error("ReqResp::call: no response after retries");
  runtime().trace_mark("reqresp.return");
  return response;
}

void ReqResp::transmit_response(int client_node, std::uint16_t xid, std::uint32_t reply_mailbox,
                                const core::Message& reply, obs::TraceContext tctx) {
  proto::NectarHeader h;
  h.dst_mailbox = reply_mailbox;
  h.src_node = static_cast<std::uint8_t>(dl_.node_id());
  h.flags = kFlagResponse;
  h.seq = xid;
  h.length = static_cast<std::uint16_t>(reply.len);
  proto::HeaderBufLease hdr = proto::HeaderBufLease::acquire();
  h.serialize(hdr->push_front(proto::NectarHeader::kSize));
  ++responses_sent_;
  dl_.send(proto::PacketType::ReqResp, client_node, std::move(hdr), reply.data, reply.len, {},
           tctx);
}

void ReqResp::respond(const RequestInfo& info, core::Message reply) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("reqresp/respond");
  cpu.charge(costs::kNectarProtoSend);
  core::InterruptGuard g(cpu);
  ServerCache& sc = server_cache_[info.client_node];
  if (sc.have_response) input_.end_get(sc.response);  // drop the stale cached reply
  sc.response = reply;
  sc.have_response = true;
  sc.in_progress = false;
  sc.reply_mailbox = info.reply_mailbox;
  obs::stage(sc.ctx, "tx.rpc", dl_.node_id());
  transmit_response(info.client_node, info.xid, info.reply_mailbox, reply, sc.ctx);
}

void ReqResp::end_of_data(core::Message m, std::uint8_t src_node) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("reqresp/recv");
  cpu.charge(costs::kNectarProtoRecv);
  obs::TraceContext rctx = obs::trace_at(dl_.node_id(), m.data);
  obs::stage(rctx, "rx.rpc", dl_.node_id());
  if (m.len < proto::NectarHeader::kSize) {
    input_.end_get(m);
    return;
  }
  proto::NectarHeader h = proto::NectarHeader::parse(
      runtime().board().memory().view(m.data, proto::NectarHeader::kSize));

  if (h.flags == kFlagResponse) {
    auto it = calls_out_.find(h.seq);
    if (it == calls_out_.end() || it->second.done) {
      input_.end_get(m);  // response for a finished/unknown call
      return;
    }
    OutstandingCall& oc = it->second;
    if (oc.timer_set) {
      cpu.cancel_timer(oc.timer);
      oc.timer_set = false;
    }
    oc.response = core::Mailbox::adjust_prefix(m, proto::NectarHeader::kSize);
    oc.done = true;
    // The caller is still blocked; the time until it runs again is a
    // scheduling wait, same as a mailbox dequeue.
    obs::stage(rctx, "mbox.wait", dl_.node_id());
    if (oc.waiter != nullptr) oc.waiter->cpu().wake(oc.waiter);
    return;
  }

  // Request path.
  ServerCache& sc = server_cache_[src_node];
  if (sc.last_xid == h.seq && (sc.have_response || sc.in_progress)) {
    // Duplicate (response or execution in flight): at-most-once semantics.
    ++dup_requests_;
    input_.end_get(m);
    if (sc.have_response) transmit_response(src_node, h.seq, sc.reply_mailbox, sc.response);
    return;
  }
  // New request: retire the previous cached response.
  if (sc.have_response) {
    input_.end_get(sc.response);
    sc.have_response = false;
  }
  sc.last_xid = h.seq;
  sc.in_progress = true;
  sc.reply_mailbox = h.src_mailbox;
  sc.ctx = rctx;  // the reply continues the request's trace

  core::Mailbox* service = runtime().find_mailbox(h.dst_mailbox);
  if (service == nullptr) {
    input_.end_get(m);
    sc.in_progress = false;
    return;
  }
  ++requests_delivered_;
  runtime().trace_mark("reqresp.request-delivered");
  obs::stage(rctx, "mbox.wait", dl_.node_id());
  // Header kept: the server parses it to address the reply.
  input_.enqueue(m, *service);
}

}  // namespace nectar::nproto
