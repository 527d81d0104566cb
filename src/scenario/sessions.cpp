#include "scenario/sessions.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "scenario/workload.hpp"
#include "sim/random.hpp"

namespace nectar::scenario {

namespace {

// A driver fiber may first get the CPU after its absolute start time has
// already passed (startup charges advance the clock); sleeping into the past
// throws, so absolute waits clamp to "now or later".
void sleep_until_at_least(core::CabRuntime& rt, sim::SimTime t) {
  if (t > rt.engine().now()) rt.cpu().sleep_until(t);
}

}  // namespace

SessionDriver::SessionDriver(net::Network& net, std::vector<net::NodeStack*> stacks,
                             const SessionsSpec& spec, std::uint64_t master_seed)
    : net_(net),
      stacks_(std::move(stacks)),
      spec_(spec),
      master_seed_(master_seed),
      node_count_(net.cab_count()) {
  if (node_count_ < 2) throw std::runtime_error("[sessions] needs at least 2 nodes");
  if (dst_of(0) == 0) {
    throw std::runtime_error("[sessions] stride " + std::to_string(spec_.stride) +
                             " maps nodes onto themselves with " + std::to_string(node_count_) +
                             " nodes");
  }

  stats_.assign(static_cast<std::size_t>(node_count_) * static_cast<std::size_t>(spec_.channels),
                ChannelStat{});
  probes_.assign(
      static_cast<std::size_t>(node_count_) * static_cast<std::size_t>(spec_.probe_channels),
      obs::LatencyHistogram{});

  nodes_.reserve(static_cast<std::size_t>(node_count_));
  for (int i = 0; i < node_count_; ++i) {
    auto n = std::make_unique<NodeState>();
    n->mgr = std::make_unique<session::SessionManager>(
        net_.runtime(i), i, stacks_[static_cast<std::size_t>(i)]->rmp, spec_);
    n->chans.assign(static_cast<std::size_t>(spec_.channels), Channel{});
    nodes_.push_back(std::move(n));
  }

  build_rmp_trunks();
  for (int i = 0; i < node_count_; ++i) install_callbacks(i);

  for (int i = 0; i < node_count_; ++i) {
    net_.runtime(i).fork_app("sess-open", [this, i] { open_all(i); });
    if (spec_.rate > 0.0) {
      net_.runtime(i).fork_app("sess-gen", [this, i] { generator_loop(i); });
    }
    if (spec_.churn_rate > 0.0) {
      net_.runtime(i).fork_app("sess-churn", [this, i] { churn_loop(i); });
    }
    if (spec_.stall_at > 0 && spec_.stall_channels > 0) {
      net_.runtime(i).fork_system("sess-stall", [this, i] { stall_loop(i); });
    }
  }
}

void SessionDriver::build_rmp_trunks() {
  for (int i = 0; i < node_count_; ++i) {
    int dst = dst_of(i);
    for (std::int64_t k = 0; k < spec_.trunks; ++k) {
      auto [ti, tj] = session::SessionManager::connect_rmp_pair(*ns(i).mgr, *ns(dst).mgr);
      ns(i).out_trunks.push_back(ti);
      ns(dst).in_trunks.push_back(tj);
    }
  }
}

void SessionDriver::install_callbacks(int node) {
  session::SessionManager& mgr = *ns(node).mgr;
  mgr.on_open_result = [this, node](session::SessionManager::ChannelHandle h, bool accepted) {
    NodeState& n = ns(node);
    if (h >= n.chan_of_handle.size()) return;
    std::uint32_t c = n.chan_of_handle[h];
    Channel& ch = n.chans[c];
    if (ch.handle != h) return;  // superseded by churn reopen
    if (accepted) {
      n.open_lat.observe(runtime(node).engine().now() - ch.open_sent);
    } else {
      ch.handle = session::SessionManager::kNoHandle;
    }
  };
  mgr.on_channel_failed = [this, node](session::SessionManager::ChannelHandle h,
                                       const std::string&) {
    NodeState& n = ns(node);
    if (h >= n.chan_of_handle.size()) return;
    std::uint32_t c = n.chan_of_handle[h];
    if (n.chans[c].handle != h) return;
    n.chans[c].handle = session::SessionManager::kNoHandle;
    ++stats_[global_channel(node, c)].fails;
  };
  mgr.on_deliver = [this, node](int, std::uint16_t, std::uint8_t,
                                std::span<const std::uint8_t> payload) {
    if (payload.size() < Stamp::kBytes) return;
    const Stamp stamp = Stamp::read(payload.data());
    const std::uint32_t gid = stamp.src;
    if (gid >= stats_.size()) return;
    auto sent_ns = static_cast<sim::SimTime>(stamp.sent_ns);
    sim::SimTime now = runtime(node).engine().now();
    if (sent_ns <= 0 || sent_ns > now) return;
    ChannelStat& st = stats_[gid];
    ++st.delivered;
    auto lat = static_cast<std::uint64_t>(now - sent_ns);
    st.lat_sum += lat;
    st.lat_max = std::max(st.lat_max, lat);
    ns(node).data_lat.observe(now - sent_ns);
    if (spec_.probe_channels > 0) {
      auto sender = gid / static_cast<std::uint32_t>(spec_.channels);
      auto c = gid % static_cast<std::uint32_t>(spec_.channels);
      if (c < static_cast<std::uint32_t>(spec_.probe_channels)) {
        probes_[sender * static_cast<std::uint32_t>(spec_.probe_channels) + c].observe(now -
                                                                                       sent_ns);
      }
    }
  };
}

void SessionDriver::open_all(int node) {
  for (std::int64_t c = 0; c < spec_.channels; ++c) {
    open_one(node, static_cast<std::uint32_t>(c));
  }
}

void SessionDriver::open_one(int node, std::uint32_t c) {
  NodeState& n = ns(node);
  int trunk = n.out_trunks[c % static_cast<std::uint32_t>(spec_.trunks)];
  Channel& ch = n.chans[c];
  ch.open_sent = runtime(node).engine().now();
  ch.handle = n.mgr->open_channel(trunk);
  ++n.opens_initiated;
  if (ch.handle == session::SessionManager::kNoHandle) return;
  if (ch.handle >= n.chan_of_handle.size()) n.chan_of_handle.resize(ch.handle + 1, 0);
  n.chan_of_handle[ch.handle] = c;
  ++stats_[global_channel(node, c)].opens;
}

void SessionDriver::generator_loop(int node) {
  core::CabRuntime& rt = runtime(node);
  sim::Random rng(sim::derive_seed(master_seed_, "sess/gen/" + std::to_string(node)));
  sleep_until_at_least(rt, spec_.warmup);
  const double mean_ns = 1.0e9 / spec_.rate;
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(spec_.size), 0);
  NodeState& n = ns(node);
  std::uint32_t cursor = 0;
  while (true) {
    rt.cpu().sleep_for(exp_draw(rng, mean_ns));
    std::uint32_t c = cursor;
    cursor = (cursor + 1) % static_cast<std::uint32_t>(spec_.channels);
    ChannelStat& st = stats_[global_channel(node, c)];
    Channel& ch = n.chans[c];
    if (ch.handle == session::SessionManager::kNoHandle) {
      ++st.shed;
      continue;
    }
    Stamp{global_channel(node, c), static_cast<std::uint32_t>(st.sent),
          static_cast<std::uint64_t>(rt.engine().now())}
        .write(payload.data());
    switch (n.mgr->try_send(ch.handle, payload)) {
      case session::SendResult::Ok:
        ++st.sent;
        break;
      case session::SendResult::Backpressure:
      case session::SendResult::NotOpen:
        ++st.shed;  // admission/window stall: nothing was taken, not a loss
        break;
      case session::SendResult::Failed:
        ++st.shed;
        ch.handle = session::SessionManager::kNoHandle;
        break;
    }
  }
}

void SessionDriver::churn_loop(int node) {
  core::CabRuntime& rt = runtime(node);
  sim::Random rng(sim::derive_seed(master_seed_, "sess/churn/" + std::to_string(node)));
  sleep_until_at_least(rt, std::max(spec_.churn_start, spec_.warmup));
  const double mean_ns = 1.0e9 / spec_.churn_rate;
  const sim::SimTime end = spec_.churn_duration > 0
                               ? spec_.churn_start + spec_.churn_duration
                               : std::numeric_limits<sim::SimTime>::max();
  NodeState& n = ns(node);
  while (rt.engine().now() < end) {
    rt.cpu().sleep_for(exp_draw(rng, mean_ns));
    auto c = static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint64_t>(spec_.channels)));
    Channel& ch = n.chans[c];
    if (ch.handle != session::SessionManager::kNoHandle &&
        n.mgr->state(ch.handle) == session::ChannelState::Open) {
      n.mgr->close_channel(ch.handle);
    }
    open_one(node, c);  // immediate reopen: ids recycle under live traffic
    ++n.churn_cycles;
  }
}

void SessionDriver::stall_loop(int node) {
  core::CabRuntime& rt = runtime(node);
  sleep_until_at_least(rt, spec_.stall_at);
  NodeState& n = ns(node);
  if (n.in_trunks.empty()) return;
  for (std::int64_t id = 0; id < spec_.stall_channels; ++id) {
    n.mgr->freeze_inbound_credit(n.in_trunks[0], static_cast<std::uint16_t>(id), true);
  }
  rt.cpu().sleep_for(spec_.stall_duration);
  for (std::int64_t id = 0; id < spec_.stall_channels; ++id) {
    n.mgr->freeze_inbound_credit(n.in_trunks[0], static_cast<std::uint16_t>(id), false);
  }
}

bool SessionDriver::stalled_channel(std::int64_t c) const {
  // Opens are issued in channel order, so channel c rides trunk c % trunks
  // as wire id c / trunks; the stall freezes wire ids [0, stall_channels) of
  // trunk 0. Only meaningful without churn (fairness also requires opens==1).
  if (spec_.stall_at <= 0 || spec_.stall_channels <= 0) return false;
  return c % spec_.trunks == 0 && c / spec_.trunks < spec_.stall_channels;
}

std::uint64_t SessionDriver::data_sent() const {
  std::uint64_t v = 0;
  for (const ChannelStat& s : stats_) v += s.sent;
  return v;
}

std::uint64_t SessionDriver::data_delivered() const {
  std::uint64_t v = 0;
  for (const ChannelStat& s : stats_) v += s.delivered;
  return v;
}

std::uint64_t SessionDriver::data_shed() const {
  std::uint64_t v = 0;
  for (const ChannelStat& s : stats_) v += s.shed;
  return v;
}

std::uint64_t SessionDriver::churn_cycles() const {
  std::uint64_t v = 0;
  for (const auto& n : nodes_) v += n->churn_cycles;
  return v;
}

double SessionDriver::fairness() const {
  // Jain's index over per-channel delivered counts of clean channels:
  // opened exactly once, never failed, outside the scripted stall set.
  double sum = 0.0, sumsq = 0.0;
  std::uint64_t n = 0;
  for (int node = 0; node < node_count_; ++node) {
    for (std::int64_t c = 0; c < spec_.channels; ++c) {
      const ChannelStat& s = stats_[global_channel(node, static_cast<std::uint32_t>(c))];
      if (s.opens != 1 || s.fails != 0 || stalled_channel(c)) continue;
      auto x = static_cast<double>(s.delivered);
      sum += x;
      sumsq += x * x;
      ++n;
    }
  }
  if (n == 0 || sumsq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sumsq);
}

void SessionDriver::report_into(obs::RunReport& rep) {
  std::uint64_t opened = 0, refused = 0, closed = 0, failed = 0, frames_tx = 0, frames_rx = 0;
  std::uint64_t stalls = 0, gen_drops = 0, proto_errs = 0, trunk_fail = 0;
  std::uint64_t tx_msgs = 0, tx_frames = 0, tx_fast = 0;
  obs::LatencyHistogram open_lat, data_lat;
  std::uint64_t opens_initiated = 0;
  for (const auto& np : nodes_) {
    session::SessionManager& m = *np->mgr;
    opened += m.channels_opened();
    refused += m.channels_refused();
    closed += m.channels_closed();
    failed += m.channels_failed();
    frames_tx += m.frames_sent();
    frames_rx += m.frames_delivered();
    stalls += m.credit_stalls();
    gen_drops += m.gen_mismatch_drops();
    proto_errs += m.proto_errors();
    trunk_fail += m.trunk_failures();
    for (int t = 0; t < m.trunk_count(); ++t) {
      tx_msgs += m.trunk_tx_msgs(t);
      tx_frames += m.trunk_tx_frames(t);
      tx_fast += m.trunk_tx_fast(t);
    }
    open_lat.merge(np->open_lat);
    data_lat.merge(np->data_lat);
    opens_initiated += np->opens_initiated;
  }
  rep.add("session.channels_per_node", static_cast<double>(spec_.channels), "count");
  rep.add("session.trunks_per_node", static_cast<double>(spec_.trunks), "count");
  rep.add("session.opens_initiated", static_cast<double>(opens_initiated), "count");
  rep.add("session.opened", static_cast<double>(opened), "count");
  rep.add("session.refused", static_cast<double>(refused), "count");
  rep.add("session.closed", static_cast<double>(closed), "count");
  rep.add("session.failed", static_cast<double>(failed), "count");
  rep.add("session.trunk_failures", static_cast<double>(trunk_fail), "count");
  rep.add("session.credit_stalls", static_cast<double>(stalls), "count");
  rep.add("session.gen_mismatch_drops", static_cast<double>(gen_drops), "count");
  rep.add("session.proto_errors", static_cast<double>(proto_errs), "count");
  rep.add("session.frames.sent", static_cast<double>(frames_tx), "count");
  rep.add("session.frames.delivered", static_cast<double>(frames_rx), "count");
  rep.add("session.trunk.tx_msgs", static_cast<double>(tx_msgs), "count");
  rep.add("session.trunk.tx_frames", static_cast<double>(tx_frames), "count");
  rep.add("session.trunk.tx_fast", static_cast<double>(tx_fast), "count");
  rep.add("session.trunk.frames_per_msg",
          tx_msgs != 0 ? static_cast<double>(tx_frames) / static_cast<double>(tx_msgs) : 0.0,
          "ratio");
  rep.add("session.open.count", static_cast<double>(open_lat.count()), "count");
  rep.add("session.open.mean", open_lat.mean() / sim::kMicrosecond, "us");
  rep.add("session.open.p50", open_lat.p50() / sim::kMicrosecond, "us");
  rep.add("session.open.p99", open_lat.p99() / sim::kMicrosecond, "us");
  rep.add("session.data.sent", static_cast<double>(data_sent()), "count");
  rep.add("session.data.delivered", static_cast<double>(data_delivered()), "count");
  rep.add("session.data.shed", static_cast<double>(data_shed()), "count");
  rep.add("session.data.count", static_cast<double>(data_lat.count()), "count");
  rep.add("session.data.mean", data_lat.mean() / sim::kMicrosecond, "us");
  rep.add("session.data.p50", data_lat.p50() / sim::kMicrosecond, "us");
  rep.add("session.data.p90", data_lat.p90() / sim::kMicrosecond, "us");
  rep.add("session.data.p99", data_lat.p99() / sim::kMicrosecond, "us");
  rep.add("session.data.p999", data_lat.p999() / sim::kMicrosecond, "us");
  rep.add("session.fairness", fairness(), "jain");
  rep.add("session.churn.cycles", static_cast<double>(churn_cycles()), "count");
  // Per-probe-channel SLO rows (channel index c on every node, merged):
  // exact per-channel percentiles for the channels under test.
  for (std::int64_t c = 0; c < spec_.probe_channels; ++c) {
    obs::LatencyHistogram h;
    for (int node = 0; node < node_count_; ++node) {
      h.merge(probes_[static_cast<std::size_t>(node) * static_cast<std::size_t>(
                                                           spec_.probe_channels) +
                      static_cast<std::size_t>(c)]);
    }
    std::string p = "session.probe" + std::to_string(c) + ".";
    rep.add(p + "count", static_cast<double>(h.count()), "count");
    rep.add(p + "p50", h.p50() / sim::kMicrosecond, "us");
    rep.add(p + "p99", h.p99() / sim::kMicrosecond, "us");
  }
}

}  // namespace nectar::scenario
