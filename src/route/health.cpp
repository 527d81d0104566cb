#include "route/health.hpp"

#include <limits>

#include "obs/profiler.hpp"
#include "sim/random.hpp"

namespace nectar::route {

namespace {

/// Probe wire format (datagram payload, fixed size):
///   [0]      kind: 1 = request, 2 = response
///   [1]      path index being probed
///   [2..3]   prober node id (LE)
///   [4..7]   prober monitor mailbox index (LE)
///   [8..11]  sequence number (LE; unique per prober)
///   [12..19] send time on the prober's clock (LE; echoed, diagnostic)
///   [20..23] reserved
constexpr std::uint32_t kProbeBytes = 24;
constexpr std::uint8_t kProbeReq = 1;
constexpr std::uint8_t kProbeResp = 2;
/// probe_interval multiplier for Dead paths.
constexpr double kDeadBackoff = 4.0;

std::uint32_t read32(std::span<const std::uint8_t> v, std::size_t off) {
  return static_cast<std::uint32_t>(v[off]) | static_cast<std::uint32_t>(v[off + 1]) << 8 |
         static_cast<std::uint32_t>(v[off + 2]) << 16 |
         static_cast<std::uint32_t>(v[off + 3]) << 24;
}

}  // namespace

HealthMonitor::HealthMonitor(core::CabRuntime& rt, nproto::DatagramProtocol& dg,
                             const PathDb& paths, const RoutingConfig& cfg,
                             HealthListener& listener)
    : rt_(rt),
      dg_(dg),
      paths_(paths),
      cfg_(cfg),
      listener_(listener),
      mailbox_(rt.create_mailbox("route-mon")) {}

void HealthMonitor::start(const std::vector<core::MailboxAddr>& peers) {
  peers_ = &peers;
  // Desynchronize the probe phase across nodes (derived from the routing
  // seed, so runs stay reproducible) — otherwise every node bursts its whole
  // probe fan-out at the same instant.
  sim::SimTime phase = static_cast<sim::SimTime>(
      sim::derive_seed(cfg_.seed, "probe-phase/" + std::to_string(node())) %
      static_cast<std::uint64_t>(cfg_.probe_interval));
  for (int d = 0; d < paths_.node_count(); ++d) {
    if (d == node()) continue;
    int n = paths_.path_count(node(), d);
    for (int p = 0; p < n; ++p) {
      Target t;
      t.dst = d;
      t.path = p;
      t.next_send = phase;
      targets_.push_back(t);
    }
  }
  rt_.fork_system("route-mon", [this] { responder_loop(); });
  rt_.fork_system("route-probe", [this] { prober_loop(); });
}

PathState HealthMonitor::state(int dst, int path) const {
  for (const Target& t : targets_) {
    if (t.dst == dst && t.path == path) return t.state;
  }
  return PathState::Up;
}

void HealthMonitor::prober_loop() {
  core::Cpu& cpu = rt_.cpu();
  for (;;) {
    sim::SimTime now = rt_.engine().now();
    sim::SimTime next = std::numeric_limits<sim::SimTime>::max();
    for (Target& t : targets_) {
      if (t.outstanding && t.deadline <= now) handle_miss(t);
      if (!t.outstanding && t.next_send <= now) send_probe(t);
      next = std::min(next, t.outstanding ? t.deadline : t.next_send);
    }
    sim::SimTime wake =
        next == std::numeric_limits<sim::SimTime>::max() ? now + cfg_.probe_interval : next;
    // CPU charges inside the pass (probe composition, datagram send) advance
    // the sim clock; if they ran past the earliest pending event, take
    // another pass immediately instead of sleeping into the past. Progress is
    // still guaranteed: a pass that acts charges cycles, and a pass that
    // doesn't leaves every event strictly in the future.
    if (wake <= rt_.engine().now()) continue;
    cpu.sleep_until(wake);
  }
}

sim::SimTime interval_for(const RoutingConfig& cfg, PathState s) {
  if (s != PathState::Dead) return cfg.probe_interval;
  return static_cast<sim::SimTime>(static_cast<double>(cfg.probe_interval) * kDeadBackoff);
}

void HealthMonitor::send_probe(Target& t) {
  sim::SimTime now = rt_.engine().now();
  std::optional<core::Message> msg = mailbox_.begin_put_try(kProbeBytes);
  if (!msg.has_value()) {
    // Heap pressure: skip this round rather than block the prober.
    t.next_send = now + interval_for(cfg_, t.state);
    return;
  }
  obs::CostScope scope("route/probe");
  std::uint32_t seq = next_seq_++;
  std::uint8_t buf[kProbeBytes] = {};
  buf[0] = kProbeReq;
  buf[1] = static_cast<std::uint8_t>(t.path);
  buf[2] = static_cast<std::uint8_t>(node() & 0xFF);
  buf[3] = static_cast<std::uint8_t>((node() >> 8) & 0xFF);
  std::uint32_t own_mb = mailbox_.address().index;
  for (int i = 0; i < 4; ++i) buf[4 + i] = static_cast<std::uint8_t>((own_mb >> (8 * i)) & 0xFF);
  for (int i = 0; i < 4; ++i) buf[8 + i] = static_cast<std::uint8_t>((seq >> (8 * i)) & 0xFF);
  auto unow = static_cast<std::uint64_t>(now);
  for (int i = 0; i < 8; ++i) buf[12 + i] = static_cast<std::uint8_t>((unow >> (8 * i)) & 0xFF);
  rt_.board().memory().write(msg->data, buf);

  core::Mailbox& mb = mailbox_;
  core::Message m = *msg;
  dg_.send_raw_via(paths_.path(node(), t.dst, t.path), (*peers_)[static_cast<std::size_t>(t.dst)],
                   m.data, kProbeBytes, [&mb, m] { mb.end_get(m); }, own_mb);
  ++probes_sent_;
  t.outstanding = true;
  t.seq = seq;
  t.sent_at = now;
  t.deadline = now + cfg_.probe_timeout;
  outstanding_[seq] = static_cast<std::size_t>(&t - targets_.data());
}

void HealthMonitor::handle_miss(Target& t) {
  outstanding_.erase(t.seq);
  t.outstanding = false;
  ++probe_timeouts_;
  if (t.misses == 0) t.first_miss_sent_at = t.sent_at;
  ++t.misses;
  t.successes = 0;
  if (t.state != PathState::Dead && t.misses >= cfg_.dead_after) {
    t.state = PathState::Dead;
    listener_.on_path_dead(node(), t.dst, t.path, t.first_miss_sent_at);
  }
  t.next_send = t.sent_at + interval_for(cfg_, t.state);
}

void HealthMonitor::handle_success(Target& t) {
  t.outstanding = false;
  ++probe_replies_;
  t.misses = 0;
  if (t.state == PathState::Dead) {
    ++t.successes;
    if (t.successes >= cfg_.recover_after) {
      t.state = PathState::Up;
      t.successes = 0;
      listener_.on_path_recovered(node(), t.dst, t.path);
    }
  }
  t.next_send = t.sent_at + interval_for(cfg_, t.state);
}

void HealthMonitor::responder_loop() {
  for (;;) {
    core::Message m = mailbox_.begin_get();
    obs::CostScope scope("route/respond");
    if (m.len < kProbeBytes) {
      mailbox_.end_get(m);
      continue;
    }
    std::span<const std::uint8_t> v = rt_.board().memory().view(m.data, kProbeBytes);
    std::uint8_t kind = v[0];
    int path = v[1];
    int orig = static_cast<int>(v[2]) | static_cast<int>(v[3]) << 8;
    std::uint32_t orig_mb = read32(v, 4);
    std::uint32_t seq = read32(v, 8);

    if (kind == kProbeReq) {
      // Echo back over the exact reverse of the probed path (PathDb reverse
      // symmetry: our path i to the prober IS the probed path backwards), so
      // the round trip exercises one path and nothing else.
      if (orig >= 0 && orig < paths_.node_count() && orig != node() &&
          path < paths_.path_count(node(), orig)) {
        rt_.board().memory().write8(m.data, kProbeResp);
        core::Mailbox& mb = mailbox_;
        dg_.send_raw_via(paths_.path(node(), orig, path),
                         core::MailboxAddr{orig, orig_mb}, m.data, m.len,
                         [&mb, m] { mb.end_get(m); }, mailbox_.address().index);
      } else {
        mailbox_.end_get(m);
      }
    } else if (kind == kProbeResp) {
      auto it = outstanding_.find(seq);
      if (it != outstanding_.end()) {
        Target& t = targets_[it->second];
        outstanding_.erase(it);
        if (t.outstanding && t.seq == seq) handle_success(t);
      }
      mailbox_.end_get(m);
    } else {
      mailbox_.end_get(m);
    }
  }
}

}  // namespace nectar::route
