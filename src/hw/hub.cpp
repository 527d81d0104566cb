#include "hw/hub.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/metrics.hpp"

namespace nectar::hw {

Hub::Hub(sim::Engine& engine, std::string name, int num_ports, double bits_per_sec,
         sim::SimTime setup)
    : engine_(engine), name_(std::move(name)), rate_(bits_per_sec), setup_(setup) {
  if (num_ports <= 0) throw std::invalid_argument("Hub: need at least one port");
  inputs_.reserve(static_cast<std::size_t>(num_ports));
  for (int i = 0; i < num_ports; ++i) inputs_.push_back(std::make_unique<InputPort>(*this, i));
  outputs_.resize(static_cast<std::size_t>(num_ports));
}

FrameSink* Hub::input(int port) {
  if (port < 0 || port >= num_ports()) throw std::out_of_range("Hub::input: bad port");
  return inputs_[static_cast<std::size_t>(port)].get();
}

void Hub::attach_output(int port, FrameSink* sink, sim::SimTime propagation, bool defer_offer) {
  if (port < 0 || port >= num_ports()) throw std::out_of_range("Hub::attach_output: bad port");
  OutputPort& out = outputs_[static_cast<std::size_t>(port)];
  out.sink = sink;
  out.propagation = propagation;
  out.defer_offer = defer_offer;
  sink->set_drain_notify([this, port] { on_output_drain(port); });
}

void Hub::attach_output_remote(int port, FrameSink* sink, sim::SimTime propagation,
                               sim::Engine& remote, std::uint64_t cross_key) {
  if (port < 0 || port >= num_ports())
    throw std::out_of_range("Hub::attach_output_remote: bad port");
  if (propagation <= 0)
    throw std::invalid_argument(
        "Hub::attach_output_remote: cross-shard propagation must be positive (it is the "
        "synchronization lookahead)");
  OutputPort& out = outputs_[static_cast<std::size_t>(port)];
  out.sink = sink;
  out.propagation = propagation;
  out.remote = &remote;
  out.cross_key = cross_key;
  // No drain notify: HUB inputs always accept, so a remote trunk never
  // blocks and needs no cross-shard backpressure callback.
}

bool Hub::open_circuit(int in, int out) {
  if (in < 0 || in >= num_ports() || out < 0 || out >= num_ports()) {
    throw std::out_of_range("Hub::open_circuit: bad port");
  }
  OutputPort& o = outputs_[static_cast<std::size_t>(out)];
  if (o.reserved_by.has_value()) return false;
  o.reserved_by = in;
  return true;
}

void Hub::close_circuit(int in) {
  for (OutputPort& o : outputs_) {
    if (o.reserved_by == in) {
      o.reserved_by.reset();
      try_forward(static_cast<int>(&o - outputs_.data()));
    }
  }
}

std::optional<int> Hub::circuit_output(int in) const {
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    if (outputs_[i].reserved_by == in) return static_cast<int>(i);
  }
  return std::nullopt;
}

void Hub::set_port_blackout(int port, bool on) {
  if (port < 0 || port >= num_ports()) throw std::out_of_range("Hub::set_port_blackout: bad port");
  OutputPort& o = outputs_[static_cast<std::size_t>(port)];
  o.blackout = on;
  if (on) {
    // Frames already queued (or held by back-pressure) at a dead port are
    // lost; frames mid-delivery keep their scheduled events and complete.
    blackout_drops_ += o.queue.size();
    blackout_pre_ += o.queue.size();  // never reached frames_switched_
    o.blackout_drops += o.queue.size();
    for (const QueuedFrame& qf : o.queue) {
      obs::annotate(qf.frame.trace, "drop.blackout");
      obs::stage(qf.frame.trace, "loss.wait", name_, port);
    }
    o.queue.clear();
    if (o.blocked.has_value()) {
      o.blocked.reset();
      o.blocked_time += engine_.now() - o.blocked_since;
      ++blackout_drops_;
      ++blackout_post_;  // already counted in frames_switched_
      ++o.blackout_drops;
    }
  }
}

bool Hub::port_blackout(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).blackout;
}

std::size_t Hub::output_queue_depth(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).queue.size();
}

std::size_t Hub::output_queue_highwater(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).highwater;
}

sim::SimTime Hub::output_busy_time(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).busy_time;
}

bool Hub::InputPort::offer(Frame&& f, sim::SimTime first, sim::SimTime last) {
  // HUB input stages always accept; contention is resolved at the output
  // port queues (virtual cut-through buffering).
  hub_.route_frame(index_, std::move(f), first, last);
  return true;
}

void Hub::route_frame(int in_port, Frame&& f, sim::SimTime first, sim::SimTime last) {
  ++frames_in_;
  if (f.mcast.valid()) {
    // Multicast frames carry no route bytes; the tree node names every
    // output this HUB must copy the frame to.
    replicate_mcast(in_port, std::move(f), first, last);
    return;
  }
  int out;
  std::optional<int> circuit = circuit_output(in_port);
  if (f.remaining_hops() > 0) {
    out = f.next_port();
    ++f.hops_done;  // the HUB consumes one route byte (source routing)
  } else if (circuit.has_value()) {
    out = *circuit;  // established circuit: no route byte needed
  } else {
    ++route_errors_;
    obs::annotate(f.trace, "drop.route_error");
    obs::stage(f.trace, "loss.wait", name_);
    return;  // undeliverable: route exhausted and no circuit
  }
  enqueue_out(in_port, out, std::move(f), first, last);
}

void Hub::replicate_mcast(int in_port, Frame&& f, sim::SimTime first, sim::SimTime last) {
  std::int32_t tnode = f.mcast_node;
  if (tnode < 0 || static_cast<std::size_t>(tnode) >= f.mcast.tree().nodes.size()) {
    ++route_errors_;  // malformed tree reference: treat like a bad route byte
    return;
  }
  const McastTree::Node& node = f.mcast.node(tnode);
  ++mcast_in_;
  // One replica per edge, in port order. The last edge adopts the incoming
  // frame's payload buffer; earlier edges copy it (host-side copy only — on
  // the wire each replica re-serializes through its own output port).
  for (std::size_t i = 0; i < node.edges.size(); ++i) {
    const McastTree::Edge& e = node.edges[i];
    Frame r;
    if (i + 1 == node.edges.size()) {
      r.payload = std::move(f.payload);
    } else {
      r.payload = PooledBytes(f.payload.size());
      std::copy(f.payload.begin(), f.payload.end(), r.payload.begin());
    }
    r.crc = f.crc;
    r.corrupted = f.corrupted;
    r.id = f.id;
    r.src_node = f.src_node;
    r.trace = f.trace;
    if (e.child >= 0) {
      r.mcast = f.mcast;  // trunk edge: the subtree rides on
      r.mcast_node = e.child;
    }  // CAB edge: mcast left invalid — the replica arrives as unicast
    ++mcast_out_;
    if (e.port < outputs_.size()) ++outputs_[e.port].mcast_frames;
    enqueue_out(in_port, static_cast<int>(e.port), std::move(r), first, last);
  }
}

void Hub::enqueue_out(int in_port, int out, Frame&& f, sim::SimTime first, sim::SimTime last) {
  if (out < 0 || out >= num_ports() || outputs_[static_cast<std::size_t>(out)].sink == nullptr) {
    ++route_errors_;
    // A bad route byte that still names a real port is attributed to that
    // port; a byte beyond the radix has no port to charge.
    if (out >= 0 && out < num_ports()) ++outputs_[static_cast<std::size_t>(out)].route_errors;
    obs::annotate(f.trace, "drop.route_error");
    obs::stage(f.trace, "loss.wait", name_);
    return;
  }
  OutputPort& o = outputs_[static_cast<std::size_t>(out)];
  if (o.blackout) {
    ++blackout_drops_;  // dead output: the frame is silently lost
    ++blackout_pre_;
    ++o.blackout_drops;
    obs::annotate(f.trace, "drop.blackout");
    obs::stage(f.trace, "loss.wait", name_, out);
    return;
  }
  if (f.trace.valid()) ++f.trace.hop;  // one switch traversal
  obs::stage(f.trace, "hub.queue", name_, out);
  o.queue.push_back({std::move(f), first, last, in_port});
  o.highwater = std::max(o.highwater, o.queue.size());
  try_forward(out);
}

void Hub::try_forward(int out_port) {
  OutputPort& o = outputs_[static_cast<std::size_t>(out_port)];
  if (o.transmitting || o.blocked.has_value() || o.queue.empty()) return;
  // An output reserved by a circuit only carries frames from that input;
  // frames from other inputs wait until the circuit closes.
  if (o.reserved_by.has_value() && o.queue.front().in_port != *o.reserved_by) return;

  QueuedFrame qf = std::move(o.queue.front());
  o.queue.pop_front();
  o.transmitting = true;
  obs::stage(qf.frame.trace, "hub.fwd", name_, out_port);

  sim::SimTime ttime =
      sim::transmit_time(static_cast<std::int64_t>(qf.frame.wire_bytes()), rate_);
  // Virtual cut-through: forwarding can start once the first byte has
  // arrived and passed the crossbar (setup_), or once the port frees.
  sim::SimTime start = std::max(engine_.now(), qf.first_in + setup_);
  // If the port was free, the frame streams through pipelined with its
  // arrival; otherwise it re-serializes from the HUB buffer.
  sim::SimTime out_first = start;
  sim::SimTime out_last = std::max(qf.last_in + setup_, start + ttime);

  ++frames_switched_;
  ++o.frames;
  bytes_switched_ += qf.frame.wire_bytes();
  o.busy_time += out_last - out_first;

  engine_.schedule_at(out_last, [this, out_port] {
    OutputPort& p = outputs_[static_cast<std::size_t>(out_port)];
    p.transmitting = false;
    try_forward(out_port);
  });

  if (o.remote != nullptr) {
    // Shard boundary. The local path (below) schedules delivery when the
    // first byte *leaves* (out_first) and lets the sink see future byte
    // times; across shards that would put an event on the remote queue at
    // the present instant, collapsing the lookahead to zero. Instead the
    // offer itself is posted at the frame's first-byte arrival time — the
    // earliest simulated instant the remote shard can observe it — which
    // is >= now + propagation, the bound the window barrier relies on.
    FrameSink* sink = o.sink;
    sim::SimTime first = out_first + o.propagation;
    sim::SimTime last = out_last + o.propagation;
    engine_.send_cross(
        *o.remote, first,
        sim::Engine::Action([sink, first, last, fr = std::move(qf.frame)]() mutable {
          sink->offer(std::move(fr), first, last);  // HUB inputs always accept
        }),
        o.cross_key, o.cross_seq++);
    // Delivered from this HUB's perspective at post time: the remote input
    // always accepts, and counting here keeps the output-side conservation
    // sum exact between the post and the mailbox drain.
    ++frames_delivered_;
    ++o.delivered;
    return;
  }

  o.delivering.push_back(
      Delivering{std::move(qf.frame), out_first + o.propagation, out_last + o.propagation});
  // defer_offer: the sink hears about the frame when its first byte arrives
  // (matching the cross-shard path) instead of when it departs. out_first is
  // non-decreasing per port, so the Delivering FIFO order is preserved
  // either way.
  engine_.schedule_at(o.defer_offer ? out_first + o.propagation : out_first,
                      [this, out_port] { deliver_front(out_port); });
}

void Hub::deliver_front(int out_port) {
  OutputPort& p = outputs_[static_cast<std::size_t>(out_port)];
  Delivering d = std::move(p.delivering.front());
  p.delivering.pop_front();
  if (!p.sink->offer(std::move(d.frame), d.first, d.last)) {
    p.blocked.emplace(std::move(d.frame));
    p.blocked_span = d.last - d.first;
    p.blocked_since = engine_.now();
    return;
  }
  ++frames_delivered_;
  ++p.delivered;
}

void Hub::on_output_drain(int out_port) {
  OutputPort& o = outputs_[static_cast<std::size_t>(out_port)];
  if (o.blocked.has_value()) {
    Frame f = std::move(*o.blocked);
    o.blocked.reset();
    sim::SimTime first = engine_.now();
    sim::SimTime last = first + o.blocked_span;
    if (!o.sink->offer(std::move(f), first, last)) {
      o.blocked.emplace(std::move(f));
      return;
    }
    o.blocked_time += engine_.now() - o.blocked_since;
    ++frames_delivered_;
    ++o.delivered;
  }
  try_forward(out_port);
}

sim::SimTime Hub::output_blocked_time(int port) const {
  const OutputPort& o = outputs_.at(static_cast<std::size_t>(port));
  sim::SimTime t = o.blocked_time;
  if (o.blocked.has_value()) t += engine_.now() - o.blocked_since;  // still blocked
  return t;
}

std::uint64_t Hub::output_frames(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).frames;
}

std::uint64_t Hub::output_blackout_drops(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).blackout_drops;
}

std::uint64_t Hub::output_route_errors(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).route_errors;
}

std::uint64_t Hub::output_mcast_frames(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).mcast_frames;
}

std::uint64_t Hub::output_delivered(int port) const {
  return outputs_.at(static_cast<std::size_t>(port)).delivered;
}

std::uint64_t Hub::output_in_flight(int port) const {
  const OutputPort& o = outputs_.at(static_cast<std::size_t>(port));
  return o.delivering.size() + (o.blocked.has_value() ? 1 : 0);
}

void Hub::register_metrics(obs::Registration& reg) const {
  reg.probe(-1, "hub", name_ + ".frames_switched",
            [this] { return static_cast<std::int64_t>(frames_switched_); });
  reg.probe(-1, "hub", name_ + ".bytes_switched",
            [this] { return static_cast<std::int64_t>(bytes_switched_); });
  reg.probe(-1, "hub", name_ + ".route_errors",
            [this] { return static_cast<std::int64_t>(route_errors_); });
  reg.probe(-1, "hub", name_ + ".blackout_drops",
            [this] { return static_cast<std::int64_t>(blackout_drops_); });
  reg.probe(-1, "hub", name_ + ".mcast_in",
            [this] { return static_cast<std::int64_t>(mcast_in_); });
  reg.probe(-1, "hub", name_ + ".mcast_out",
            [this] { return static_cast<std::int64_t>(mcast_out_); });
  for (int p = 0; p < num_ports(); ++p) {
    if (outputs_[static_cast<std::size_t>(p)].sink == nullptr) continue;  // unused port
    std::string prefix = name_ + ".port" + std::to_string(p);
    reg.probe(-1, "hub", prefix + ".frames",
              [this, p] { return static_cast<std::int64_t>(output_frames(p)); });
    reg.probe(-1, "hub", prefix + ".busy_ns", [this, p] { return output_busy_time(p); });
    reg.probe(-1, "hub", prefix + ".blocked_ns", [this, p] { return output_blocked_time(p); });
    reg.probe(-1, "hub", prefix + ".queue_highwater",
              [this, p] { return static_cast<std::int64_t>(output_queue_highwater(p)); });
    reg.probe(-1, "hub", prefix + ".blackout_drops",
              [this, p] { return static_cast<std::int64_t>(output_blackout_drops(p)); });
    reg.probe(-1, "hub", prefix + ".route_errors",
              [this, p] { return static_cast<std::int64_t>(output_route_errors(p)); });
    reg.probe(-1, "hub", prefix + ".mcast_frames",
              [this, p] { return static_cast<std::int64_t>(output_mcast_frames(p)); });
  }
}

}  // namespace nectar::hw
