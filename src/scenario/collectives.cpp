#include "scenario/collectives.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace nectar::scenario {

CollectiveDriver::CollectiveDriver(net::Network& net, std::vector<net::NodeStack*> stacks,
                                   const CollectivesSpec& spec)
    : net_(net), stacks_(std::move(stacks)), spec_(spec) {
  const int n = net_.cab_count();
  iters_done_.assign(static_cast<std::size_t>(n), 0);
  data_errors_.assign(static_cast<std::size_t>(n), 0);
  const coll::GroupSpec gspec = make_group_spec();

  if (spec_.mode == CollectivesSpec::Mode::Cab) {
    cab_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      CabNode& cn = cab_[static_cast<std::size_t>(i)];
      net::NodeStack& st = *stacks_.at(static_cast<std::size_t>(i));
      cn.engine = std::make_unique<coll::CollectiveEngine>(net_.datalink(i));
      cn.engine->join_group(gspec);
      cn.nin = std::make_unique<nectarine::CabNectarine>(net_.runtime(i), st.datagram, st.rmp,
                                                         st.reqresp);
      cn.nin->attach_collectives(cn.engine.get());
    }
    for (int i = 0; i < n; ++i) {
      net_.runtime(i).fork_app("coll-worker", [this, i] { worker_loop(i); });
    }
  } else {
    if (net_.runtime(0).board().vme() == nullptr) {
      throw std::invalid_argument(
          "collectives: mode=host needs a VME backplane ([topology] with_vme=true)");
    }
    host_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      HostNode& hn = host_[static_cast<std::size_t>(i)];
      // engine_of_node: under a sharded run the host CPU must live on the
      // shard that simulates its node.
      hn.host = std::make_unique<host::Host>(net_.engine_of_node(i),
                                             "host" + std::to_string(i));
      hn.driver = std::make_unique<host::CabDriver>(*hn.host, net_.runtime(i));
      hn.nin = std::make_unique<nectarine::HostNectarine>(*hn.driver);
      hn.hc = std::make_unique<coll::HostCollective>(
          *hn.nin, stacks_.at(static_cast<std::size_t>(i))->datagram, gspec);
      hn.nin->attach_collectives(hn.hc.get());
    }
    for (int i = 0; i < n; ++i) {
      host_[static_cast<std::size_t>(i)].host->run_process("coll-worker",
                                                           [this, i] { worker_loop(i); });
    }
  }
}

coll::CollectiveEngine* CollectiveDriver::engine(int node) {
  return cab_.empty() ? nullptr : cab_.at(static_cast<std::size_t>(node)).engine.get();
}

coll::HostCollective* CollectiveDriver::host(int node) {
  return host_.empty() ? nullptr : host_.at(static_cast<std::size_t>(node)).hc.get();
}

coll::GroupSpec CollectiveDriver::make_group_spec() const {
  coll::GroupSpec g;
  g.id = kGroupId;
  g.members.resize(static_cast<std::size_t>(net_.cab_count()));
  std::iota(g.members.begin(), g.members.end(), 0);
  g.root_rank = 0;
  g.algorithm = spec_.algorithm;
  g.timeout = spec_.timeout;
  g.retransmit = spec_.retransmit;
  // The CAB engine hands the HUB a distribution tree for its releases.
  if (spec_.mode == CollectivesSpec::Mode::Cab && g.members.size() > 1) {
    g.mcast = net_.mcast_ref(g.members[static_cast<std::size_t>(g.root_rank)], g.members);
  }
  return g;
}

std::uint8_t CollectiveDriver::pattern_byte(std::int64_t iter, std::size_t offset) {
  return static_cast<std::uint8_t>((iter * 131 + static_cast<std::int64_t>(offset) * 7 + 3) &
                                   0xff);
}

std::uint64_t CollectiveDriver::contribution_of(int rank, std::int64_t iter) const {
  return (static_cast<std::uint64_t>(rank) + 1) * (static_cast<std::uint64_t>(iter) + 1);
}

std::uint64_t CollectiveDriver::expected_reduce(std::int64_t iter) const {
  std::uint64_t acc = contribution_of(0, iter);
  for (int r = 1; r < net_.cab_count(); ++r) {
    acc = coll::combine(spec_.reduce, acc, contribution_of(r, iter));
  }
  return acc;
}

bool CollectiveDriver::run_one(int node, std::int64_t iter, std::vector<std::uint8_t>& buf) {
  const int rank = node;  // members are 0..n-1 in node order
  const std::size_t slot = static_cast<std::size_t>(node);
  bool ok = true;
  switch (spec_.op) {
    case Op::Barrier:
      ok = cab_.empty() ? host_[slot].nin->coll_barrier(kGroupId)
                        : cab_[slot].nin->coll_barrier(kGroupId);
      break;
    case Op::Bcast: {
      if (rank == 0) {
        for (std::size_t j = 0; j < buf.size(); ++j) buf[j] = pattern_byte(iter, j);
      } else {
        std::fill(buf.begin(), buf.end(), 0);
      }
      ok = cab_.empty() ? host_[slot].nin->coll_bcast(kGroupId, buf)
                        : cab_[slot].nin->coll_bcast(kGroupId, buf);
      if (ok && rank != 0) {
        for (std::size_t j = 0; j < buf.size(); ++j) {
          if (buf[j] != pattern_byte(iter, j)) {
            ++data_errors_[slot];
            break;
          }
        }
      }
      break;
    }
    case Op::Reduce: {
      std::uint64_t result = 0;
      std::uint64_t mine = contribution_of(rank, iter);
      ok = cab_.empty() ? host_[slot].nin->coll_reduce(kGroupId, spec_.reduce, mine, &result)
                        : cab_[slot].nin->coll_reduce(kGroupId, spec_.reduce, mine, &result);
      if (ok && result != expected_reduce(iter)) ++data_errors_[slot];
      break;
    }
  }
  return ok;
}

void CollectiveDriver::worker_loop(int node) {
  std::vector<std::uint8_t> buf(spec_.op == Op::Bcast ? 64 : 0);  // bcast payload bytes
  core::Cpu& cpu = cab_.empty() ? host_[static_cast<std::size_t>(node)].host->cpu()
                                : net_.runtime(node).cpu();
  for (std::int64_t it = 0; spec_.iterations == 0 || it < spec_.iterations; ++it) {
    // A failed op means the group failed (timeout already reported loudly);
    // stop instead of spinning on a dead group.
    if (!run_one(node, it, buf)) break;
    ++iters_done_[static_cast<std::size_t>(node)];
    if (spec_.interval > 0) cpu.sleep_for(spec_.interval);
  }
}

std::uint64_t CollectiveDriver::rounds_completed() const {
  std::uint64_t lo = iters_done_.empty() ? 0 : iters_done_[0];
  for (std::uint64_t v : iters_done_) lo = std::min(lo, v);
  return lo;
}

std::uint64_t CollectiveDriver::data_errors() const {
  std::uint64_t sum = 0;
  for (std::uint64_t v : data_errors_) sum += v;
  return sum;
}

void CollectiveDriver::report_into(obs::RunReport& rep) {
  std::uint64_t sent = 0, received = 0, completed = 0, failed = 0, retx = 0, stale = 0;
  obs::LatencyHistogram lat;
  for (std::size_t i = 0; i < cab_.size(); ++i) {
    coll::CollectiveEngine& e = *cab_[i].engine;
    sent += e.msgs_sent();
    received += e.msgs_received();
    completed += e.ops_completed();
    failed += e.ops_failed();
    retx += e.retransmits();
    stale += e.stale_drops();
    lat.merge(spec_.op == Op::Barrier ? e.barrier_latency()
              : spec_.op == Op::Bcast ? e.bcast_latency()
                                      : e.reduce_latency());
  }
  for (std::size_t i = 0; i < host_.size(); ++i) {
    coll::HostCollective& h = *host_[i].hc;
    sent += h.msgs_sent();
    received += h.msgs_received();
    completed += h.ops_completed();
    lat.merge(spec_.op == Op::Barrier ? h.barrier_latency()
              : spec_.op == Op::Bcast ? h.bcast_latency()
                                      : h.reduce_latency());
  }
  rep.add("coll.rounds", static_cast<double>(rounds_completed()), "count");
  rep.add("coll.ops_completed", static_cast<double>(completed), "count");
  rep.add("coll.ops_failed", static_cast<double>(failed), "count");
  rep.add("coll.msgs_sent", static_cast<double>(sent), "count");
  rep.add("coll.msgs_received", static_cast<double>(received), "count");
  rep.add("coll.retransmits", static_cast<double>(retx), "count");
  rep.add("coll.stale_drops", static_cast<double>(stale), "count");
  rep.add("coll.data_errors", static_cast<double>(data_errors()), "count");
  rep.add("coll.latency.count", static_cast<double>(lat.count()), "count");
  rep.add("coll.mean", lat.mean() / sim::kMicrosecond, "us");
  rep.add("coll.p50", lat.p50() / sim::kMicrosecond, "us");
  rep.add("coll.p90", lat.p90() / sim::kMicrosecond, "us");
  rep.add("coll.p99", lat.p99() / sim::kMicrosecond, "us");
  rep.add("coll.p999", lat.p999() / sim::kMicrosecond, "us");
  std::uint64_t mc_in = 0, mc_out = 0;
  for (int h = 0; h < net_.hub_count(); ++h) {
    mc_in += net_.hub(h).mcast_in();
    mc_out += net_.hub(h).mcast_out();
  }
  rep.add("coll.hub_mcast_in", static_cast<double>(mc_in), "frames");
  rep.add("coll.hub_mcast_out", static_cast<double>(mc_out), "frames");
}

}  // namespace nectar::scenario
