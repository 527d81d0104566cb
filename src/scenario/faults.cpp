#include "scenario/faults.hpp"

#include <cstdio>
#include <stdexcept>

namespace nectar::scenario {

std::string FaultSpec::describe() const {
  std::string s = name_of(kFaultKinds, kind);
  s += "(" + target;
  if (kind == FaultKind::LinkDrop || kind == FaultKind::LinkCorrupt) {
    char buf[32];
    std::snprintf(buf, sizeof buf, ", rate=%g", rate);
    s += buf;
  }
  if (kind == FaultKind::LinkDropBurst) s += ", count=" + std::to_string(count);
  s += ")";
  return s;
}

int element_index(std::string_view name, std::string_view prefix, int count) {
  if (!name.starts_with(prefix) || name.size() == prefix.size()) return -1;
  std::int64_t v = 0;
  for (char c : name.substr(prefix.size())) {
    if (c < '0' || c > '9') return -1;
    v = v * 10 + (c - '0');
    if (v >= count) return -1;
  }
  return static_cast<int>(v);
}

FaultScheduler::FaultScheduler(net::Network& net, std::uint64_t master_seed)
    : net_(net), master_seed_(master_seed) {}

FaultScheduler::Target FaultScheduler::resolve(const FaultSpec& spec) const {
  Target t;
  std::size_t dot = spec.target.find('.');
  if (dot == std::string::npos) {
    throw std::invalid_argument("fault: bad target '" + spec.target +
                                "' (want node<i>.link|vme|cab or hub<h>.port<p>)");
  }
  std::string head = spec.target.substr(0, dot);
  std::string tail = spec.target.substr(dot + 1);
  int node = element_index(head, "node", net_.cab_count());
  int hub = element_index(head, "hub", net_.hub_count());
  if (node >= 0) {
    t.engine = &net_.engine_of_node(node);
    if (tail == "link") {
      t.link = &net_.cab(node).out_link();
    } else if (tail == "vme") {
      t.vme = net_.vme(node);
      if (t.vme == nullptr) {
        throw std::invalid_argument("fault: " + spec.target + ": node has no VME bus");
      }
    } else if (tail == "cab") {
      // Crash isolates the board both ways: its transmitter and the HUB
      // output port that feeds its inbound fiber.
      t.link = &net_.cab(node).out_link();
      t.hub = &net_.hub(net_.cab_hub(node));
      t.port = net_.cab_port(node);
    } else {
      throw std::invalid_argument("fault: bad element '" + tail + "' in '" + spec.target + "'");
    }
    return t;
  }
  if (hub >= 0) {
    int port = element_index(tail, "port", net_.hub(hub).num_ports());
    if (port < 0) throw std::invalid_argument("fault: bad port in '" + spec.target + "'");
    t.hub = &net_.hub(hub);
    t.port = port;
    t.engine = &net_.hub_engine(hub);
    return t;
  }
  throw std::invalid_argument("fault: bad target '" + spec.target + "' (want node<i> with i < " +
                              std::to_string(net_.cab_count()) + " or hub<h> with h < " +
                              std::to_string(net_.hub_count()) + ")");
}

std::size_t FaultScheduler::schedule(const FaultSpec& spec) {
  Target target = resolve(spec);  // validate before arming anything

  // Kind-specific sanity.
  if ((spec.kind == FaultKind::LinkDrop || spec.kind == FaultKind::LinkCorrupt) &&
      (spec.rate < 0.0 || spec.rate > 1.0)) {
    throw std::invalid_argument("fault: rate must be in [0,1]");
  }
  if (spec.kind == FaultKind::VmeStall && spec.duration <= 0) {
    throw std::invalid_argument("fault: vme_stall needs duration > 0");
  }
  bool wants_link = spec.kind == FaultKind::LinkDrop || spec.kind == FaultKind::LinkCorrupt ||
                    spec.kind == FaultKind::LinkDown || spec.kind == FaultKind::LinkDropBurst;
  if (wants_link && target.link == nullptr) {
    throw std::invalid_argument("fault: " + spec.describe() + " needs a node<i>.link target");
  }
  if (spec.kind == FaultKind::HubBlackout && (target.hub == nullptr || target.port < 0)) {
    throw std::invalid_argument("fault: hub_blackout needs a hub<h>.port<p> target");
  }
  if (spec.kind == FaultKind::CabCrash && target.hub == nullptr) {
    throw std::invalid_argument("fault: cab_crash needs a node<i>.cab target");
  }

  std::size_t idx = records_.size();
  FaultRecord rec;
  rec.spec = spec;
  rec.applied_at = spec.at;
  if (spec.jitter > 0) {
    sim::Random rng(sim::derive_seed(master_seed_, "fault" + std::to_string(idx) + "/jitter"));
    rec.applied_at += static_cast<sim::SimTime>(
        rng.next_below(static_cast<std::uint64_t>(spec.jitter)));
  }
  records_.push_back(rec);
  targets_.push_back(target);

  // Arm on the target's shard engine: apply/clear then run on the worker
  // thread that owns the element, racing with nothing.
  target.engine->schedule_at(rec.applied_at, [this, idx] { apply(idx); });
  bool windowed = spec.kind != FaultKind::LinkDropBurst && spec.kind != FaultKind::VmeStall;
  if (windowed && spec.duration > 0) {
    target.engine->schedule_at(rec.applied_at + spec.duration, [this, idx] { clear(idx); });
  }
  return idx;
}

std::uint64_t FaultScheduler::target_drops(std::size_t idx) const {
  const Target& t = targets_[idx];
  std::uint64_t n = 0;
  // A corrupted frame is delivered and then discarded by the receiving
  // datalink's CRC check: lost at this link all the same.
  if (t.link != nullptr) n += t.link->frames_dropped() + t.link->frames_corrupted();
  // Only the target's own output port: another fault may black out a
  // different port of the same HUB at the same time.
  if (t.hub != nullptr) n += t.hub->output_blackout_drops(t.port);
  return n;
}

void FaultScheduler::apply(std::size_t idx) {
  FaultRecord& rec = records_[idx];
  Target& t = targets_[idx];
  rec.drops_before = target_drops(idx);
  switch (rec.spec.kind) {
    case FaultKind::LinkDrop:
      t.link->set_drop_rate(rec.spec.rate);  // seed derived from master + link name
      break;
    case FaultKind::LinkCorrupt:
      t.link->set_corrupt_rate(rec.spec.rate);
      break;
    case FaultKind::LinkDown:
      t.link->set_down(true);
      break;
    case FaultKind::LinkDropBurst:
      t.link->arm_drop_next(rec.spec.count);
      break;
    case FaultKind::HubBlackout:
      t.hub->set_port_blackout(t.port, true);
      break;
    case FaultKind::VmeStall:
      t.vme->stall_for(rec.spec.duration);
      rec.cleared_at = rec.applied_at + rec.spec.duration;
      break;
    case FaultKind::CabCrash:
      t.link->set_down(true);
      t.hub->set_port_blackout(t.port, true);
      break;
  }
}

void FaultScheduler::clear(std::size_t idx) {
  FaultRecord& rec = records_[idx];
  Target& t = targets_[idx];
  switch (rec.spec.kind) {
    case FaultKind::LinkDrop:
      t.link->set_drop_rate(0.0);
      break;
    case FaultKind::LinkCorrupt:
      t.link->set_corrupt_rate(0.0);
      break;
    case FaultKind::LinkDown:
      t.link->set_down(false);
      break;
    case FaultKind::HubBlackout:
      t.hub->set_port_blackout(t.port, false);
      break;
    case FaultKind::CabCrash:
      t.link->set_down(false);
      t.hub->set_port_blackout(t.port, false);
      break;
    case FaultKind::LinkDropBurst:
    case FaultKind::VmeStall:
      return;  // no window to close
  }
  rec.cleared_at = targets_[idx].engine->now();  // clear runs on this engine
  rec.attributed_drops = target_drops(idx) - rec.drops_before;
}

void FaultScheduler::finalize() {
  // Called after the run: every shard's clock has settled to the stop time
  // (ParallelEngine::run_until ends with a per-shard run_until(t)), so
  // shard 0's now() is the run-wide end time regardless of shard count.
  for (std::size_t i = 0; i < records_.size(); ++i) {
    FaultRecord& rec = records_[i];
    if (net_.engine().now() < rec.applied_at) continue;  // never fired
    if (rec.cleared_at < 0 || rec.spec.kind == FaultKind::LinkDropBurst) {
      // Still-open window (or a burst, which has no close event): attribute
      // the target element's drops since injection. Overlapping faults on
      // the same element double-count by design — attribution answers "what
      // was lost at this element while the fault was live".
      rec.attributed_drops = target_drops(i) - rec.drops_before;
      if (rec.cleared_at < 0) rec.cleared_at = net_.engine().now();
    }
  }
}

std::uint64_t FaultScheduler::total_attributed_drops() const {
  std::uint64_t n = 0;
  for (const FaultRecord& r : records_) n += r.attributed_drops;
  return n;
}

std::uint64_t FaultScheduler::network_drops() const {
  std::uint64_t n = 0;
  for (int i = 0; i < net_.cab_count(); ++i) {
    const hw::FiberLink& l = net_.cab(i).out_link();
    n += l.frames_dropped() + l.frames_corrupted();
  }
  for (int h = 0; h < net_.hub_count(); ++h) {
    n += net_.hub(h).blackout_drops() + net_.hub(h).route_errors();
  }
  return n;
}

}  // namespace nectar::scenario
