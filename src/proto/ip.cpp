#include "proto/ip.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "proto/checksum.hpp"
#include "sim/costs.hpp"

namespace nectar::proto {

namespace costs = sim::costs;

Ip::Ip(Datalink& dl, IpAddr my_addr, std::size_t mtu)
    : dl_(dl),
      my_addr_(my_addr),
      mtu_(mtu),
      input_(dl.runtime().create_mailbox("ip-input")),
      metrics_reg_(dl.runtime().metrics()) {
  if (mtu_ <= IpHeader::kSize + 8) throw std::invalid_argument("Ip: MTU too small");
  dl_.register_client(PacketType::Ip, this);

  int node = dl_.node_id();
  metrics_reg_.probe(node, "ip", "datagrams_sent",
                     [this] { return static_cast<std::int64_t>(sent_); });
  metrics_reg_.probe(node, "ip", "fragments_sent",
                     [this] { return static_cast<std::int64_t>(frag_sent_); });
  metrics_reg_.probe(node, "ip", "datagrams_delivered",
                     [this] { return static_cast<std::int64_t>(delivered_); });
  metrics_reg_.probe(node, "ip", "datagrams_reassembled",
                     [this] { return static_cast<std::int64_t>(reassembled_); });
  metrics_reg_.probe(node, "ip", "dropped_bad_header",
                     [this] { return static_cast<std::int64_t>(dropped_bad_header_); });
  metrics_reg_.probe(node, "ip", "dropped_no_protocol",
                     [this] { return static_cast<std::int64_t>(dropped_no_protocol_); });
  metrics_reg_.probe(node, "ip", "reassembly_timeouts",
                     [this] { return static_cast<std::int64_t>(reass_timeouts_); });
}

void Ip::register_protocol(std::uint8_t protocol, core::Mailbox* input) {
  protocols_[protocol] = input;
}

void Ip::add_host_route(IpAddr addr, int node) { host_routes_[addr] = node; }

int Ip::node_for(IpAddr dst) const {
  auto it = host_routes_.find(dst);
  if (it != host_routes_.end()) return it->second;
  if ((dst >> 24) == 10) return node_of_ip(dst);  // the simulation's address plan
  throw std::logic_error("Ip: no route to " + ip_to_string(dst));
}

// --- output ---------------------------------------------------------------------

void Ip::output(const OutputInfo& info, HeaderBufLease proto_header, hw::CabAddr payload,
                std::size_t len, sim::InplaceAction on_sent, obs::TraceContext tctx) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("ip/output");
  cpu.charge(costs::kIpOutput);
  obs::stage(tctx, "tx.ip", dl_.node_id());

  IpAddr src = info.src != 0 ? info.src : my_addr_;
  int dst_node = node_for(info.dst);
  std::size_t proto_len = proto_header.size();
  std::size_t total = proto_len + len;
  std::size_t max_payload = (mtu_ - IpHeader::kSize) & ~std::size_t{7};
  std::uint16_t id = next_id_++;
  ++sent_;
  dl_.runtime().trace_mark("ip.output");

  auto make_header = [&](std::size_t off, std::size_t chunk, bool more) {
    IpHeader h;
    h.tos = info.tos;
    h.total_len = static_cast<std::uint16_t>(IpHeader::kSize + chunk);
    h.id = id;
    h.more_fragments = more;
    h.frag_offset = static_cast<std::uint16_t>(off / 8);
    h.ttl = info.ttl;
    h.protocol = info.protocol;
    h.src = src;
    h.dst = info.dst;
    return h;
  };

  if (total <= max_payload) {
    // Common case: a single datagram. Prepend the IP header into the
    // transport's composition buffer — [IP hdr][proto hdr] are contiguous.
    make_header(0, total, false).serialize(proto_header.ensure().push_front(IpHeader::kSize));
    dl_.send(PacketType::Ip, dst_node, std::move(proto_header), payload, len, std::move(on_sent),
             tctx);
    return;
  }

  // Fragmentation: offsets are in the combined (proto_header ++ payload)
  // byte space. Only the first fragment can contain proto_header bytes
  // (transport headers are far smaller than one fragment).
  if (proto_len >= max_payload) {
    throw std::logic_error("Ip::output: transport header exceeds fragment size");
  }
  std::size_t nfrags = (total + max_payload - 1) / max_payload;
  auto remaining = std::make_shared<std::size_t>(nfrags);
  auto shared_done = std::make_shared<sim::InplaceAction>(std::move(on_sent));
  for (std::size_t off = 0; off < total; off += max_payload) {
    std::size_t chunk = std::min(max_payload, total - off);
    bool more = off + chunk < total;
    HeaderBufLease hdr;
    hw::CabAddr mem = payload;
    std::size_t mem_len = chunk;
    if (off == 0) {
      hdr = std::move(proto_header);  // first fragment carries the transport header
      mem_len = chunk - proto_len;
    } else {
      mem += static_cast<hw::CabAddr>(off - proto_len);
    }
    make_header(off, chunk, more).serialize(hdr.ensure().push_front(IpHeader::kSize));
    ++frag_sent_;
    dl_.send(
        PacketType::Ip, dst_node, std::move(hdr), mem, mem_len,
        [remaining, shared_done] {
          if (--*remaining == 0 && *shared_done) (*shared_done)();
        },
        tctx);
  }
}

void Ip::output_msg(const OutputInfo& info, HeaderBufLease proto_header, core::Message data,
                    bool free_when_sent, obs::TraceContext tctx) {
  core::Mailbox& storage = input_;
  if (free_when_sent) {
    output(
        info, std::move(proto_header), data.data, data.len,
        [&storage, data] { storage.end_get(data); }, tctx);
  } else {
    output(info, std::move(proto_header), data.data, data.len, {}, tctx);
  }
}

// --- input ------------------------------------------------------------------------

void Ip::start_of_data(const core::Message& m, std::uint8_t src_node) {
  (void)src_node;
  core::Cpu& cpu = runtime().cpu();
  // §4.1: "IP uses this opportunity to perform a sanity check of the IP
  // header (including computation of the IP header checksum)" while the
  // rest of the packet streams in.
  obs::CostScope scope("ip/input");
  cpu.charge(costs::kIpInputHeader);
  {
    obs::CostScope cksum("ip/checksum");
    cpu.charge(checksum_cost(IpHeader::kSize));
  }
  bool ok = false;
  if (m.len >= IpHeader::kSize) {
    auto hdr_bytes = runtime().board().memory().view(m.data, IpHeader::kSize);
    if (IpHeader::checksum_ok(hdr_bytes)) {
      IpHeader h = IpHeader::parse(hdr_bytes);
      ok = h.total_len == m.len && h.ttl != 0;  // not truncated/padded/expired
    }
  }
  pending_header_ok_[m.data] = ok;
}

void Ip::end_of_data(core::Message m, std::uint8_t src_node) {
  (void)src_node;
  auto it = pending_header_ok_.find(m.data);
  bool ok = it != pending_header_ok_.end() && it->second;
  if (it != pending_header_ok_.end()) pending_header_ok_.erase(it);
  obs::TraceContext rctx = obs::trace_at(dl_.node_id(), m.data);
  if (!ok) {
    ++dropped_bad_header_;
    obs::annotate(rctx, "drop.ip_header");
    obs::stage(rctx, "loss.wait", dl_.node_id());
    release(std::move(m));
    return;
  }
  obs::stage(rctx, "rx.ip", dl_.node_id());
  IpHeader h = IpHeader::parse(runtime().board().memory().view(m.data, IpHeader::kSize));
  if (h.more_fragments || h.frag_offset != 0) {
    handle_fragment(std::move(m), h);
    return;
  }
  deliver(std::move(m), h);
}

void Ip::deliver(core::Message m, const IpHeader& hdr) {
  auto it = protocols_.find(hdr.protocol);
  if (it == protocols_.end()) {
    ++dropped_no_protocol_;
    if (icmp_error_ && hdr.src != my_addr_) {
      icmp_error_(/*protocol unreachable*/ 2, std::move(m));
    } else {
      release(std::move(m));
    }
    return;
  }
  ++delivered_;
  dl_.runtime().trace_mark("ip.deliver");
  obs::stage(obs::trace_at(dl_.node_id(), m.data), "mbox.wait", dl_.node_id());
  // §4.1: "This transfer uses the mailbox Enqueue operation, so no data is
  // copied." The IP header stays attached; transports strip it themselves.
  input_.enqueue(m, *it->second);
}

void Ip::handle_fragment(core::Message m, const IpHeader& hdr) {
  core::Cpu& cpu = runtime().cpu();
  obs::CostScope scope("ip/reassembly");
  cpu.charge(costs::kIpReassembly);

  ReassemblyKey key{hdr.src, hdr.dst, hdr.id, hdr.protocol};
  Reassembly& r = reassembly_[key];
  if (r.fragments.empty()) {
    r.timer = cpu.set_timer(runtime().engine().now() + kReassemblyTimeout, [this, key] {
      auto it = reassembly_.find(key);
      if (it == reassembly_.end()) return;
      ++reass_timeouts_;
      for (Fragment& f : it->second.fragments) release(std::move(f.msg));
      reassembly_.erase(it);
    });
  }

  std::uint16_t payload_len = static_cast<std::uint16_t>(hdr.total_len - IpHeader::kSize);
  std::uint16_t offset = static_cast<std::uint16_t>(hdr.frag_offset * 8);
  r.fragments.push_back({std::move(m), offset, payload_len});
  if (!hdr.more_fragments) r.total_payload = offset + payload_len;

  if (r.total_payload < 0) return;
  // Complete when every byte of [0, total) is covered.
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ranges;
  ranges.reserve(r.fragments.size());
  for (const Fragment& f : r.fragments) ranges.emplace_back(f.offset, f.len);
  std::sort(ranges.begin(), ranges.end());
  std::uint32_t covered = 0;
  for (auto [off, len] : ranges) {
    if (off > covered) return;  // hole
    covered = std::max(covered, static_cast<std::uint32_t>(off) + len);
  }
  if (covered < static_cast<std::uint32_t>(r.total_payload)) return;

  Reassembly done = std::move(r);
  reassembly_.erase(key);
  cpu.cancel_timer(done.timer);
  finish_reassembly(key, done, hdr);
}

void Ip::finish_reassembly(const ReassemblyKey& key, Reassembly& r, const IpHeader& last_hdr) {
  core::Cpu& cpu = runtime().cpu();
  hw::CabMemory& mem = runtime().board().memory();
  std::size_t total = static_cast<std::size_t>(r.total_payload);

  auto combined = input_.begin_put_try(static_cast<std::uint32_t>(IpHeader::kSize + total));
  if (!combined.has_value()) {
    // No buffer space: drop the whole datagram (it was never published).
    for (Fragment& f : r.fragments) release(std::move(f.msg));
    ++dropped_no_protocol_;
    return;
  }

  // Synthesize the unfragmented header, then copy payloads into place.
  IpHeader h = last_hdr;
  h.more_fragments = false;
  h.frag_offset = 0;
  h.total_len = static_cast<std::uint16_t>(IpHeader::kSize + total);
  std::array<std::uint8_t, IpHeader::kSize> hdr_bytes{};
  h.serialize(hdr_bytes);
  mem.write(combined->data, hdr_bytes);

  // The reassembled datagram lives at a fresh address: carry the completing
  // fragment's trace over to it (read before the copies free the fragments)
  // so downstream lookups keep working.
  obs::TraceContext rctx = obs::trace_at(dl_.node_id(), r.fragments.back().msg.data);
  for (Fragment& f : r.fragments) {
    obs::CostScope copy("ip/copy");
    cpu.charge(static_cast<sim::SimTime>(f.len) * costs::kCabCopyPerByte);
    // Straight from the fragment's buffer: it and the reassembled one are
    // distinct live allocations, so the copy cannot overlap.
    mem.write(combined->data + IpHeader::kSize + f.offset,
              mem.view(f.msg.data + IpHeader::kSize, f.len));
    release(std::move(f.msg));
  }
  ++reassembled_;
  (void)key;
  obs::tag(dl_.node_id(), combined->data, combined->len, rctx);
  deliver(*combined, h);
}

}  // namespace nectar::proto
