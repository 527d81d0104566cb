#include "hw/link.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/pcap.hpp"
#include "obs/tracer.hpp"

namespace nectar::hw {

FiberLink::FiberLink(sim::Engine& engine, std::string name, double bits_per_sec,
                     sim::SimTime propagation)
    : engine_(engine), name_(std::move(name)), rate_(bits_per_sec), propagation_(propagation) {}

void FiberLink::attach(FrameSink* sink) {
  sink_ = sink;
  sink_->set_drain_notify([this] { on_drain(); });
}

void FiberLink::submit(Frame&& f, SendCallback on_sent) {
  obs::stage(f.trace, "link.queue", name_);
  queue_.push_back({std::move(f), std::move(on_sent)});
  try_start();
}

void FiberLink::set_corrupt_rate(double p) {
  set_corrupt_rate(p, sim::derive_seed(fault_seed_base_, name_ + "/corrupt"));
}

void FiberLink::set_corrupt_rate(double p, std::uint64_t seed) {
  corrupt_rate_ = p;
  corrupt_rng_ = sim::Random(seed);
}

void FiberLink::set_drop_rate(double p) {
  set_drop_rate(p, sim::derive_seed(fault_seed_base_, name_ + "/drop"));
}

void FiberLink::set_drop_rate(double p, std::uint64_t seed) {
  drop_rate_ = p;
  drop_rng_ = sim::Random(seed);
}

void FiberLink::try_start() {
  if (transmitting_ || blocked_.has_value() || queue_.empty()) return;
  if (sink_ == nullptr) throw std::logic_error("FiberLink " + name_ + ": no sink attached");
  transmitting_ = true;

  Frame f = std::move(queue_.front().frame);
  head_done_ = std::move(queue_.front().on_sent);
  queue_.pop_front();

  sim::SimTime ttime = sim::transmit_time(static_cast<std::int64_t>(f.wire_bytes()), rate_);
  sim::SimTime first = engine_.now() + propagation_;
  sim::SimTime last = first + ttime;

  ++frames_sent_;
  bytes_sent_ += f.wire_bytes();
  if (pcap_ != nullptr) pcap_->frame(engine_.now(), f.payload.bytes());
  obs::stage(f.trace, "link.tx", name_);

  // The head serializes one frame at a time, so explicit-stamp spans on the
  // wire track never overlap.
  if (obs::tracing(tracer_)) {
    tracer_->begin_at(trace_track_, "link.tx", engine_.now());
    tracer_->end_at(trace_track_, "link.tx", engine_.now() + ttime);
  }

  // The link head frees once the last byte leaves the transmitter.
  engine_.schedule_in(ttime, [this] { on_head_sent(); });

  if (down_ || scripted_drops_armed_ > 0) {
    if (!down_) --scripted_drops_armed_;
    ++frames_dropped_;
    ++frames_dropped_faulted_;  // element failure, not the random stream
    if (obs::tracing(tracer_)) tracer_->instant(trace_track_, "link.drop");
    obs::annotate(f.trace, "drop.link_down");
    obs::stage(f.trace, "loss.wait", name_);
    return;
  }

  if (drop_rate_ > 0 && drop_rng_.chance(drop_rate_)) {
    ++frames_dropped_;  // the frame evaporates mid-flight
    if (obs::tracing(tracer_)) tracer_->instant(trace_track_, "link.drop");
    obs::annotate(f.trace, "drop.link");
    obs::stage(f.trace, "loss.wait", name_);
    return;
  }

  if (corrupt_rate_ > 0 && corrupt_rng_.chance(corrupt_rate_)) {
    // Flip a payload byte; the receiving CAB's hardware CRC will catch it.
    if (!f.payload.empty()) {
      std::size_t i = corrupt_rng_.next_below(f.payload.size());
      f.payload[i] ^= 0x5A;
    }
    f.corrupted = true;
    ++frames_corrupted_;
    if (obs::tracing(tracer_)) tracer_->instant(trace_track_, "link.corrupt");
  }

  // The frame rides in the in-flight queue (first-byte order) rather than in
  // the event capture; the event only needs `this`.
  in_flight_.push_back(InFlight{std::move(f), first, last});
  engine_.schedule_at(first, [this] { deliver_front(); });
}

void FiberLink::on_head_sent() {
  transmitting_ = false;
  // Move the completion out first: it may submit the next frame.
  SendCallback done = std::move(head_done_);
  if (done) done();
  try_start();
}

void FiberLink::deliver_front() {
  InFlight fl = std::move(in_flight_.front());
  in_flight_.pop_front();
  deliver(std::move(fl.frame), fl.first, fl.last);
}

void FiberLink::deliver(Frame&& f, sim::SimTime first, sim::SimTime last) {
  // FrameSink::offer leaves the frame intact when it returns false.
  if (!sink_->offer(std::move(f), first, last)) {
    // Downstream FIFO is full: the hardware's low-level flow control stalls
    // the stream. Hold the frame and re-offer when the sink drains.
    blocked_.emplace(std::move(f));
    blocked_span_ = last - first;
    return;
  }
  ++frames_delivered_;
}

void FiberLink::attach_tracer(obs::Tracer* tracer, int track) {
  tracer_ = tracer;
  trace_track_ = track;
}

void FiberLink::register_metrics(obs::Registration& reg, int node) const {
  reg.probe(node, "link", name_ + ".frames_sent",
            [this] { return static_cast<std::int64_t>(frames_sent_); });
  reg.probe(node, "link", name_ + ".bytes_sent",
            [this] { return static_cast<std::int64_t>(bytes_sent_); });
  reg.probe(node, "link", name_ + ".frames_corrupted",
            [this] { return static_cast<std::int64_t>(frames_corrupted_); });
  reg.probe(node, "link", name_ + ".frames_dropped",
            [this] { return static_cast<std::int64_t>(frames_dropped_); });
  // frames_dropped_faulted() stays accessor-only: adding a probe here would
  // perturb the committed metrics snapshots of every bench that never faults.
}

void FiberLink::on_drain() {
  if (blocked_.has_value()) {
    Frame f = std::move(*blocked_);
    blocked_.reset();
    sim::SimTime first = engine_.now();
    sim::SimTime last = first + blocked_span_;
    if (!sink_->offer(std::move(f), first, last)) {
      blocked_.emplace(std::move(f));
      return;
    }
    ++frames_delivered_;
  }
  try_start();
}

}  // namespace nectar::hw
