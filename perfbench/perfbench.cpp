// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference BENCH_scenario.json] [--trace-out FILE] [--git-rev REV]
//
// It generates the workload's scenario config from the seed and drives it
// through the public scenario API only: Config::parse_string ->
// ScenarioSpec::from_config -> Scenario -> run() -> report(). Every layer is
// measured from outside: wall clocks around those calls, public counters read
// after run(), and unit costs timed by calling a layer's public functions.
// Nothing is added inside the simulator.
//
// --trace 0 repeats the workload until S seconds are spent and reports the
// end-to-end metrics (host-time medians over the repetitions, simulated-time
// values that must repeat exactly). --trace 1 runs it once untraced and once
// traced, keeps spans (name, start, end, parent) in memory, reads the public
// counters and writes everything to --trace-out at the end; it reports the
// per-layer metrics. Every run is checked; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.

#include <dlfcn.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/crc.hpp"
#include "hw/pool.hpp"
#include "obs/json.hpp"
#include "proto/checksum.hpp"
#include "proto/headerbuf.hpp"
#include "scenario/engine.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

// --- fiber switch count -----------------------------------------------------------
//
// sim::Fiber has no public switch counter, so perfbench counts at the
// layer's lower boundary: it interposes libc's swapcontext (one call per
// resume and one per suspend) and forwards to the real one. It counts only
// while a traced repetition runs.

namespace {
std::atomic<bool> g_count_switches{false};
std::atomic<std::uint64_t> g_switches{0};
}  // namespace

extern "C" int swapcontext(ucontext_t* from, const ucontext_t* to) {
  using Fn = int (*)(ucontext_t*, const ucontext_t*);
  static const Fn real = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "swapcontext"));
  if (real == nullptr) std::abort();
  if (g_count_switches.load(std::memory_order_relaxed)) {
    g_switches.fetch_add(1, std::memory_order_relaxed);
  }
  return real(from, to);
}

namespace {

using namespace nectar;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shortest text that reads back as the same double.
std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// --- workloads ------------------------------------------------------------------
//
// Each workload is a scenario config template; "{seed}" and "{shards}" are
// filled in per run. The seed is the only input that varies: it reaches every
// random stream of the run (arrivals, sizes, think times, loss patterns).

struct WorkloadDef {
  const char* name;
  const char* config;
  /// Shard count of the traced run's parallel comparison (0: none). The
  /// measured runs use one shard: on a VM whose vCPUs the host overcommits,
  /// a run whose threads meet at ~38k barriers ranges over 4x in wall time.
  int parallel_shards;
};

// The ROADMAP reference soak (bench_scenario_soak): at seed 1990 its report
// must reproduce BENCH_scenario.json row for row.
constexpr const char* kSoak64 = R"(
[scenario]
name = soak64
seed = {seed}
duration = 2s

[topology]
kind = fat_tree
nodes = 64
hub_ports = 16
spines = 2

[parallel]
shards = {shards}

[workload]
name = tcp-closed
proto = tcp
mode = closed
users = 2
think = 5ms
size_min = 512
size_max = 4096
stride = 9

[workload]
name = rmp-open
proto = rmp
mode = open
users = 200
rate = 1
size_min = 128
size_max = 1024
stride = 17

[fault]
kind = link_drop_burst
target = node5.link
at = 800ms
count = 50

[fault]
kind = hub_blackout
target = hub0.port3
at = 1s
duration = 100ms

[fault]
kind = cab_crash
target = node9.cab
at = 1200ms
duration = 200ms
)";

// Per-byte work: 4 KB TCP messages, 8-15 KB RMP messages (near the 16 KB
// frame limit) and 12 KB UDP datagrams that fragment in two at the IP layer
// (9 KB MTU), all closed-loop, with software checksums on. Few events per
// byte. TCP messages stay at 4 KB: the scenario engine finds message
// boundaries by the header at the start of each receive chunk, and larger
// TCP messages split across chunks and get miscounted (delivered > sent).
// UDP thinks 10 ms between datagrams: faster fragmenting UDP starves TCP
// into retransmission.
constexpr const char* kBulk8 = R"(
[scenario]
name = bulk8
seed = {seed}
duration = 3s
software_checksum = yes

[topology]
kind = star
nodes = 8

[parallel]
shards = {shards}

[workload]
name = tcp-bulk
proto = tcp
mode = closed
users = 1
think = 200us
size = 4096
stride = 1

[workload]
name = rmp-bulk
proto = rmp
mode = closed
users = 1
think = 200us
size_min = 8192
size_max = 15360
stride = 2

[workload]
name = udp-bulk
proto = udp
mode = closed
users = 1
think = 10ms
size = 12288
stride = 3
)";

// Per-event work: ~10k session channels per node over 6 RMP trunks, 64 B
// frames, an open/close churn storm, a closed-loop 64 B request/response
// population and an 8-member CAB barrier group beside it. Bytes are
// negligible. The storm stays 60 ms long: a data send that lands on a
// channel mid-reopen is shed, and a longer storm sheds on some seeds.
constexpr const char* kChanstorm8 = R"(
[scenario]
name = chanstorm8
seed = {seed}
duration = 1500ms

[topology]
kind = fat_tree
nodes = 8
hub_ports = 16
spines = 4

[parallel]
shards = {shards}

[sessions]
enabled = true
trunks = 6
channels = 10000
rate = 2000
size = 64
warmup = 60ms
aggregation = 1ms
churn_rate = 1000
churn_start = 120ms
churn_duration = 60ms

[workload]
name = rr-closed
proto = reqresp
mode = closed
users = 4
think = 100us
size = 64
stride = 3

[collectives]
enabled = true
mode = cab
op = barrier
algorithm = tree
interval = 500us
)";

// The sharded fabric: bench_parallel's cross-leaf UDP and RMP traffic on a
// 512-node, 4-spine fat tree, on the conservative-parallel engine. It has no
// barrier group: beside this traffic one makes the report depend on the
// shard count, which the delivered-count gate would refuse.
constexpr const char* kFabric512 = R"(
[scenario]
name = fabric512
seed = {seed}
duration = 200ms

[topology]
kind = fat_tree
nodes = 512
hub_ports = 16
spines = 4
trunk_propagation = 5us
route_spread = yes

[parallel]
shards = {shards}
partition = block

[workload]
name = udp-cross
proto = udp
mode = open
users = 50
rate = 2
size_min = 64
size_max = 1024
stride = 12

[workload]
name = rmp-cross
proto = rmp
mode = closed
users = 1
think = 10ms
size = 256
stride = 24
)";

constexpr WorkloadDef kWorkloads[] = {
    {"soak64", kSoak64, 0},
    {"bulk8", kBulk8, 0},
    {"chanstorm8", kChanstorm8, 0},
    {"fabric512", kFabric512, 4},
};

constexpr std::uint64_t kReferenceSeed = 1990;

std::string config_text(const WorkloadDef& wl, std::uint64_t seed, int shards) {
  std::string text = wl.config;
  auto fill = [&](const std::string& key, const std::string& value) {
    for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at)) {
      text.replace(at, key.size(), value);
    }
  };
  fill("{seed}", std::to_string(seed));
  fill("{shards}", std::to_string(shards));
  return text;
}

// --- spans ------------------------------------------------------------------------

// Spans kept in memory and written out when the benchmark ends. A null
// Spans* turns every Span guard into a no-op, which is the untraced path.
class Spans {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0, end_s = 0.0;
    int parent = -1;
  };

  int open(std::string name) {
    records_.push_back({std::move(name), seconds_since(epoch_), 0.0,
                        stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    records_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
    stack_.pop_back();
  }
  const std::vector<Record>& records() const { return records_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Spans* spans, std::string name)
      : spans_(spans), id_(spans != nullptr ? spans->open(std::move(name)) : -1) {}
  ~Span() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  int id_;
};

// --- one repetition ----------------------------------------------------------------

using Rows = std::map<std::string, double>;

/// The report's rows, through the JSON the report already serializes.
Rows rows_of(const obs::RunReport& rep) {
  Rows out;
  obs::json::Value doc = obs::json::Value::parse(rep.to_json_string());
  const obs::json::Value* results = doc.find("results");
  for (std::size_t i = 0; results != nullptr && i < results->size(); ++i) {
    const obs::json::Value& r = results->at(i);
    out[r.find("name")->as_string()] = r.find("value")->as_double();
  }
  return out;
}

double row(const Rows& rows, const std::string& name) {
  auto it = rows.find(name);
  return it == rows.end() ? 0.0 : it->second;
}

struct HostTimes {
  double cpu_s = 0.0, sys_s = 0.0;
  static HostTimes now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
    return {s(ru.ru_utime) + s(ru.ru_stime), s(ru.ru_stime)};
  }
};

/// Public counters read after run(). Filled on traced repetitions only.
struct Counters {
  double events = 0, pool_slots = 0, heap_actions = 0, pending = 0, fiber_switches = 0;
  double windows = 0, cross_events = 0, critical_path_events = 0, work_ns = 0, wait_ns = 0;
  double cpu_s = 0, sys_s = 0;
  double context_switches = 0, interrupts = 0;
  double link_frames = 0, link_bytes = 0, hub_frames = 0;
  double pool_acquires = 0, pool_reuses = 0, hb_acquires = 0, hb_reuses = 0;
  double tcp_segments = 0, ip_fragments = 0, dl_packets = 0;
  double rmp_sent = 0, rmp_delivered = 0, rmp_retx = 0, rr_calls = 0, rr_retries = 0;
  double cksum_bytes = 0;  // payload bytes of TCP/UDP flows, checksummed at both ends
};

struct Rep {
  bool ok = false;
  std::string error;
  double parse_s = 0, build_s = 0, run_s = 0, report_s = 0;
  double duration_s = 0, session_bytes = 0;  // simulated run length, session payload size
  Rows rows;
  Counters c;
};

void read_counters(scenario::Scenario& sc, Counters& c) {
  net::Network& net = sc.net();
  sim::ParallelEngine& par = net.parallel();
  c.events = static_cast<double>(par.total_events());
  c.windows = static_cast<double>(par.windows());
  c.cross_events = static_cast<double>(par.cross_events());
  c.critical_path_events = static_cast<double>(par.critical_path_events());
  for (int s = 0; s < par.shard_count(); ++s) {
    const sim::Engine& e = par.shard(s);
    c.pool_slots += static_cast<double>(e.pool_slots());
    c.heap_actions += static_cast<double>(e.heap_actions());
    c.pending += static_cast<double>(e.pending_events());
    c.work_ns += static_cast<double>(par.shard_work_ns(s));
    c.wait_ns += static_cast<double>(par.shard_barrier_wait_ns(s));
  }
  for (int n = 0; n < sc.nodes(); ++n) {
    core::Cpu& cpu = net.runtime(n).cpu();
    c.context_switches += static_cast<double>(cpu.context_switches());
    c.interrupts += static_cast<double>(cpu.interrupts_taken());
    const hw::FiberLink& link = net.cab(n).out_link();
    c.link_frames += static_cast<double>(link.frames_sent());
    c.link_bytes += static_cast<double>(link.bytes_sent());
    net::NodeStack& st = sc.stack(n);
    c.tcp_segments += static_cast<double>(st.tcp.segments_sent());
    c.ip_fragments += static_cast<double>(st.ip.fragments_sent());
    c.dl_packets += static_cast<double>(net.datalink(n).packets_sent());
    c.rmp_sent += static_cast<double>(st.rmp.messages_sent());
    c.rmp_delivered += static_cast<double>(st.rmp.messages_delivered());
    c.rmp_retx += static_cast<double>(st.rmp.retransmissions());
    c.rr_calls += static_cast<double>(st.reqresp.calls_sent());
    c.rr_retries += static_cast<double>(st.reqresp.retries());
  }
  for (int h = 0; h < net.hub_count(); ++h) {
    c.hub_frames += static_cast<double>(net.hub(h).frames_switched());
  }
  for (const auto& w : sc.workloads()) {
    const scenario::Proto p = w->spec().proto;
    if (p == scenario::Proto::Tcp || p == scenario::Proto::Udp) {
      c.cksum_bytes += 2.0 * static_cast<double>(w->delivered_bytes());
    }
  }
}

/// One pass through the public API. Exceptions from any stage are caught
/// and recorded: a throwing run() is a failed run, not a crashed benchmark.
Rep run_rep(const std::string& text, Spans* spans, bool read) {
  Rep rep;
  Span whole(spans, "workload");
  try {
    auto t0 = Clock::now();
    std::optional<scenario::ScenarioSpec> spec;
    {
      Span s(spans, "scenario.parse");
      spec.emplace(scenario::ScenarioSpec::from_config(scenario::Config::parse_string(text)));
    }
    rep.parse_s = seconds_since(t0);
    rep.duration_s = static_cast<double>(spec->duration) / sim::kSecond;
    if (spec->sessions.enabled) rep.session_bytes = static_cast<double>(spec->sessions.size);
    t0 = Clock::now();
    std::optional<scenario::Scenario> sc;
    {
      Span s(spans, "scenario.build");
      sc.emplace(std::move(*spec));
    }
    rep.build_s = seconds_since(t0);

    hw::BufferPool& pool = hw::BufferPool::payloads();
    proto::HeaderBufPool& hb = proto::HeaderBufPool::instance();
    const double pa = static_cast<double>(pool.acquires()), pr = static_cast<double>(pool.reuses());
    const double ha = static_cast<double>(hb.acquires()), hr = static_cast<double>(hb.reuses());
    const std::uint64_t sw0 = g_switches.load();
    g_count_switches = read;
    const HostTimes h0 = HostTimes::now();
    t0 = Clock::now();
    {
      Span s(spans, "scenario.run");
      sc->run();
    }
    rep.run_s = seconds_since(t0);
    const HostTimes h1 = HostTimes::now();
    g_count_switches = false;

    t0 = Clock::now();
    {
      Span s(spans, "obs.report");
      rep.rows = rows_of(sc->report());
    }
    rep.report_s = seconds_since(t0);

    if (read) {
      Span s(spans, "counters");
      read_counters(*sc, rep.c);
      rep.c.fiber_switches = static_cast<double>(g_switches.load() - sw0) / 2.0;
      rep.c.cpu_s = h1.cpu_s - h0.cpu_s;
      rep.c.sys_s = h1.sys_s - h0.sys_s;
      rep.c.pool_acquires = static_cast<double>(pool.acquires()) - pa;
      rep.c.pool_reuses = static_cast<double>(pool.reuses()) - pr;
      rep.c.hb_acquires = static_cast<double>(hb.acquires()) - ha;
      rep.c.hb_reuses = static_cast<double>(hb.reuses()) - hr;
    }
    {
      Span s(spans, "scenario.teardown");
      sc.reset();
    }
    rep.ok = true;
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  return rep;
}

/// One untimed set-up and teardown, so the timed repetitions start with the
/// allocator's pages already mapped.
void warm_up(const std::string& text) {
  scenario::Scenario sc(scenario::ScenarioSpec::from_config(scenario::Config::parse_string(text)));
}

/// One repetition in a forked child, as a fresh process runs it: set-up
/// pays its page faults, and each repetition gets its own memory layout, so
/// the median over repetitions averages over layouts too. The child times
/// the stages and sends the times and report rows back through a pipe. The
/// caller must be single-threaded.
Rep run_forked(const std::string& text) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const Rep r = run_rep(text, nullptr, false);
    std::string out = (r.ok ? "1 " : "0 ") + num(r.parse_s) + " " + num(r.build_s) + " " +
                      num(r.run_s) + " " + num(r.duration_s) + " " + num(r.session_bytes) +
                      "\n" + r.error + "\n";
    for (const auto& [name, value] : r.rows) out += name + " " + num(value) + "\n";
    for (std::size_t at = 0; at < out.size();) {
      const ssize_t n = write(fds[1], out.data() + at, out.size() - at);
      if (n <= 0) _exit(1);
      at += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) in.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);

  Rep r;
  std::istringstream is(in);
  int ok = 0;
  is >> ok >> r.parse_s >> r.build_s >> r.run_s >> r.duration_s >> r.session_bytes;
  is.ignore(1);
  std::getline(is, r.error);
  for (std::string name; is >> name;) is >> r.rows[name];
  r.ok = ok == 1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!r.ok && r.error.empty()) r.error = "repetition process ended with status " + std::to_string(status);
  return r;
}

// --- correctness gate ----------------------------------------------------------------

/// Operations attempted and failed, from the report. Failed operations are
/// shed messages, errors, refused or failed channel opens, shed session
/// data, and failed collective ops.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
};

Tally tally(const Rows& rows) {
  double attempted = 0, failed = 0;
  for (const auto& [name, value] : rows) {
    auto ends = [&](const char* suffix) {
      const std::string s = suffix;
      return name.size() > s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0 &&
             name.rfind("session.", 0) != 0 && name.rfind("coll.", 0) != 0;
    };
    if (ends(".sent")) attempted += value;
    if (ends(".shed")) attempted += value, failed += value;
    if (ends(".errors")) failed += value;
  }
  attempted += row(rows, "session.opens_initiated") + row(rows, "session.data.sent") +
               row(rows, "session.data.shed");
  failed += row(rows, "session.refused") + row(rows, "session.failed") +
            row(rows, "session.data.shed");
  attempted += row(rows, "coll.ops_completed") + row(rows, "coll.ops_failed");
  failed += row(rows, "coll.ops_failed");
  return {static_cast<std::uint64_t>(attempted), static_cast<std::uint64_t>(failed)};
}

/// Workload names present in the report (rows "<name>.delivered").
std::vector<std::string> flows_of(const Rows& rows) {
  std::vector<std::string> out;
  for (const auto& [name, value] : rows) {
    const std::string suffix = ".delivered";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        name.find('.') == name.size() - suffix.size()) {
      out.push_back(name.substr(0, name.size() - suffix.size()));
    }
  }
  return out;
}

std::vector<std::string> check_rep(const WorkloadDef& wl, const Rep& rep) {
  std::vector<std::string> bad;
  if (!rep.ok) return {"run failed: " + rep.error};
  const Rows& r = rep.rows;
  for (const std::string& f : flows_of(r)) {
    if (row(r, f + ".delivered") > row(r, f + ".sent")) bad.push_back(f + ": delivered > sent");
    if (row(r, f + ".latency.count") != row(r, f + ".delivered")) {
      bad.push_back(f + ": latency count != delivered");
    }
  }
  if (row(r, "session.data.delivered") > row(r, "session.data.sent")) {
    bad.push_back("session: delivered > sent");
  }
  for (const char* zero : {"session.proto_errors", "coll.data_errors", "coll.ops_failed"}) {
    if (row(r, zero) != 0) bad.push_back(std::string(zero) + " != 0");
  }
  if (std::string(wl.name) == "soak64" &&
      row(r, "drops.total") != row(r, "drops.fault_attributed")) {
    bad.push_back("soak64: drops not attributed to a fault");
  }
  // p999 is reported only with at least ten samples beyond it.
  if (row(r, "global.latency.count") < 10000) bad.push_back("fewer than 10000 latency samples");
  return bad;
}

/// At the reference seed soak64 must reproduce the committed report.
std::vector<std::string> check_reference(const Rows& rows, const std::string& path) {
  std::ifstream in(path);
  if (!in) return {"cannot read reference " + path};
  std::stringstream text;
  text << in.rdbuf();
  obs::json::Value doc = obs::json::Value::parse(text.str());
  std::vector<std::string> bad;
  const obs::json::Value* results = doc.find("results");
  if (results == nullptr || results->size() == 0) return {"reference has no results"};
  for (std::size_t i = 0; i < results->size(); ++i) {
    const std::string name = results->at(i).find("name")->as_string();
    const double want = results->at(i).find("value")->as_double();
    auto it = rows.find(name);
    if (it == rows.end() || it->second != want) bad.push_back("reference row differs: " + name);
  }
  return bad;
}

// --- unit costs -------------------------------------------------------------------

/// Deterministic filler so the compiler cannot fold the timed work.
std::vector<std::uint8_t> noise(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& b : v) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  return v;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_ns_per(int rounds, double units, F&& body) {
  std::vector<double> per;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = Clock::now();
    body();
    per.push_back(seconds_since(t0) * 1e9 / units);
  }
  return median(per);
}

/// schedule_at + step on an Engine holding `depth` pending events.
double event_ns(std::size_t depth) {
  sim::Engine e;
  std::uint64_t x = 12345;
  auto delay = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<sim::SimTime>(1 + (x >> 40) % 10000);
  };
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) e.schedule_at(e.now() + delay(), [&fired] { ++fired; });
  constexpr int kOps = 200000;
  double ns = median_ns_per(5, kOps, [&] {
    for (int i = 0; i < kOps; ++i) {
      e.schedule_at(e.now() + delay(), [&fired] { ++fired; });
      e.step();
    }
  });
  if (fired == 0) throw std::runtime_error("event microbenchmark fired nothing");
  return ns;
}

/// One Fiber::resume round trip (resume plus the fiber's suspend).
double fiber_switch_ns() {
  bool stop = false;
  std::uint64_t turns = 0;
  sim::Fiber f([&] {
    while (!stop) {
      ++turns;
      sim::Fiber::suspend();
    }
  });
  constexpr int kSwitches = 100000;
  double ns = median_ns_per(5, kSwitches, [&] {
    for (int i = 0; i < kSwitches; ++i) f.resume();
  });
  stop = true;
  f.resume();
  if (!f.finished() || turns == 0) throw std::runtime_error("fiber microbenchmark did not run");
  return ns;
}

/// ns per KiB over 1 KiB calls, through a checksum's public compute().
template <typename F>
double ns_per_kb(F&& compute) {
  const std::vector<std::uint8_t> buf = noise(64 * 1024, 7);
  std::uint64_t sink = 0;
  double ns = median_ns_per(5, 64.0 * 16, [&] {
    for (int pass = 0; pass < 16; ++pass) {
      for (std::size_t off = 0; off < buf.size(); off += 1024) {
        sink += compute(std::span<const std::uint8_t>(buf.data() + off, 1024));
      }
    }
  });
  if (sink == 0) throw std::runtime_error("checksum microbenchmark produced nothing");
  return ns;
}

// --- output ---------------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// Peak resident memory of this process (RUSAGE_SELF) or of the largest
/// child it has waited for (RUSAGE_CHILDREN).
double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

#ifdef __clang__
constexpr const char* kCompiler = "clang ";
#else
constexpr const char* kCompiler = "g++ ";
#endif

/// Machine context recorded with every result, with flags for runs whose
/// host figures are not comparable.
std::string context_json(const WorkloadDef& wl, std::uint64_t seed, const std::string& git_rev,
                         int threads) {
  bool optimized = false, sanitized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  const int nproc = online_cpus();
  std::vector<std::string> flags;
  if (threads > nproc) flags.push_back("threads_exceed_nproc");
  if (!optimized) flags.push_back("unoptimized_build");
  if (sanitized) flags.push_back("sanitizer_build");
  std::string f = "[";
  for (std::size_t i = 0; i < flags.size(); ++i) f += (i ? ", " : "") + quoted(flags[i]);
  f += "]";
  for (const auto& flag : flags) std::fprintf(stderr, "warning: %s\n", flag.c_str());
  return "{\"context\": {\"workload\": " + quoted(wl.name) + ", \"seed\": " +
         std::to_string(seed) + ", \"nproc\": " + std::to_string(nproc) +
         ", \"host_threads\": " + std::to_string(threads) +
         ", \"compiler\": " + quoted(kCompiler + std::string(__VERSION__)) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + quoted(PERFBENCH_CXX_FLAGS) + ", \"git_rev\": " + quoted(git_rev) +
         ", \"flags\": " + f + "}}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10;
  bool trace = false;
  std::string reference = "BENCH_scenario.json";
  std::string trace_out;
  std::string git_rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--reference") {
      a.reference = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--git-rev") {
      a.git_rev = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const auto& wl : kWorkloads) {
    if (name == wl.name) return wl;
  }
  throw std::invalid_argument("unknown workload " + name);
}

/// Checks shared by both modes; returns the failures found.
std::vector<std::string> check_all(const WorkloadDef& wl, const Args& a,
                                   const std::vector<Rep>& reps) {
  std::vector<std::string> bad;
  for (const Rep& rep : reps) {
    for (auto& b : check_rep(wl, rep)) bad.push_back(std::move(b));
    if (rep.ok && reps.front().ok && rep.rows != reps.front().rows) {
      bad.push_back("simulated rows differ between repetitions");
    }
  }
  if (std::string(wl.name) == "soak64" && a.seed == kReferenceSeed && reps.front().ok) {
    for (auto& b : check_reference(reps.front().rows, a.reference)) bad.push_back(std::move(b));
  }
  return bad;
}

void print_result(bool correct, const Tally& t, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), metrics_json(ms).c_str());
}

/// The end-to-end metrics of a rep's simulated rows (identical in every
/// repetition at one seed).
std::vector<Metric> simulated_metrics(const Rep& rep) {
  const Rows& r = rep.rows;
  double goodput = 0;
  for (const std::string& f : flows_of(r)) goodput += row(r, f + ".goodput");
  goodput += row(r, "session.data.delivered") * rep.session_bytes * 8.0 / rep.duration_s / 1e6;
  const Tally t = tally(r);
  return {
      {"msg_p50_us", row(r, "global.p50"), "us"},
      {"msg_p99_us", row(r, "global.p99"), "us"},
      {"msg_p999_us", row(r, "global.p999"), "us"},
      {"goodput_mbps", goodput, "Mbit/s"},
      {"ok_ratio", 1.0 - ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
       "ratio"},
  };
}

Tally final_tally(const Rep& rep, std::size_t check_failures) {
  Tally t = tally(rep.rows);
  t.failed += check_failures;
  t.attempted = std::max({t.attempted, t.failed, std::uint64_t{1}});
  return t;
}

int run_untraced(const WorkloadDef& wl, const Args& a) {
  const std::string text = config_text(wl, a.seed, 1);
  const auto start = Clock::now();
  std::vector<Rep> reps;
  for (;;) {
    const auto t0 = Clock::now();
    reps.push_back(run_forked(text));
    const double last = seconds_since(t0);
    if (!reps.back().ok || seconds_since(start) + last > a.seconds) break;
  }
  const std::vector<std::string> bad = check_all(wl, a, reps);
  for (const auto& b : bad) std::fprintf(stderr, "check failed: %s\n", b.c_str());

  std::vector<double> setup, run;
  for (const Rep& r : reps) {
    setup.push_back(r.parse_s + r.build_s);
    run.push_back(r.run_s);
  }
  std::vector<Metric> ms = {
      {"setup_s", median(setup), "s"},
      {"run_s", median(run), "s"},
      {"peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN), "MB"},
  };
  for (auto& m : simulated_metrics(reps.front())) ms.push_back(std::move(m));
  std::printf("%s\n", context_json(wl, a.seed, a.git_rev, 1).c_str());
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
    return out + "]";
  };
  std::printf("{\"repetitions\": %zu, \"setup_s_each\": %s, \"run_s_each\": %s, "
              "\"msg_samples\": %s}\n",
              reps.size(), list(setup).c_str(), list(run).c_str(),
              num(row(reps.front().rows, "global.latency.count")).c_str());
  print_result(bad.empty(), final_tally(reps.front(), bad.size()), ms);
  return bad.empty() ? 0 : 1;
}

void write_trace(const std::string& path, const std::string& context, const Spans& spans,
                 const std::vector<Metric>& ms) {
  std::ofstream out(path);
  out << "{\"context\": " << context << ",\n\"spans\": [";
  const auto& rs = spans.records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": " << quoted(rs[i].name)
        << ", \"start_s\": " << num(rs[i].start_s) << ", \"end_s\": " << num(rs[i].end_s)
        << ", \"parent\": " << rs[i].parent << "}";
  }
  out << "],\n\"metrics\": " << metrics_json(ms) << "}\n";
  if (!out) std::fprintf(stderr, "warning: could not write trace %s\n", path.c_str());
}

int run_traced(const WorkloadDef& wl, const Args& a) {
  const std::string text = config_text(wl, a.seed, 1);
  Spans spans;
  warm_up(text);
  // Untraced twins on both sides: their mean run_s is the base of
  // trace.overhead_s, so drift does not land on one side.
  const Rep before = run_rep(text, nullptr, false);
  const Rep traced = run_rep(text, &spans, true);
  const Rep after = run_rep(text, nullptr, false);
  std::vector<std::string> bad = check_all(wl, a, {before, traced, after});
  const double base_run_s = 0.5 * (before.run_s + after.run_s);

  // The same config on the parallel engine: its windows, real speedup, and
  // the shard-count gate. Without one, the sim.parallel rows describe the
  // single-shard run (one window, speedup 1).
  Rep par = traced;
  const int threads = std::max(1, wl.parallel_shards);
  if (wl.parallel_shards > 1) {
    const std::string at = " at " + std::to_string(wl.parallel_shards) + " shards";
    Span s(&spans, "parallel");
    par = run_rep(config_text(wl, a.seed, wl.parallel_shards), &spans, true);
    for (auto& b : check_rep(wl, par)) bad.push_back(b + at);
    for (const std::string& f : flows_of(traced.rows)) {
      const std::string d = f + ".delivered";
      if (row(par.rows, d) != row(traced.rows, d)) bad.push_back(d + at + " differs from 1 shard");
    }
  }
  for (const auto& b : bad) std::fprintf(stderr, "check failed: %s\n", b.c_str());

  double ev_ns = 0, fiber_ns = 0, crc_ns = 0, cksum_ns = 0;
  {
    Span s(&spans, "unit_cost");
    {
      Span u(&spans, "unit_cost.sim.event");
      ev_ns = event_ns(static_cast<std::size_t>(traced.c.pending));
    }
    {
      Span u(&spans, "unit_cost.sim.fiber");
      fiber_ns = fiber_switch_ns();
    }
    {
      Span u(&spans, "unit_cost.hw.crc");
      crc_ns = ns_per_kb([](std::span<const std::uint8_t> d) { return hw::Crc32::compute(d); });
    }
    {
      Span u(&spans, "unit_cost.proto.cksum");
      cksum_ns = ns_per_kb(
          [](std::span<const std::uint8_t> d) { return proto::InternetChecksum::compute(d); });
    }
  }

  const Counters& c = traced.c;
  const Rows& r = traced.rows;
  const double run_s = traced.run_s;
  // est_share = count x unit cost / run_s.
  const std::vector<Metric> ms = {
      {"scenario.parse_s", traced.parse_s, "s"},
      {"scenario.build_s", traced.build_s, "s"},
      {"obs.report_s", traced.report_s, "s"},
      {"sim.events", c.events, "count"},
      {"sim.events_per_s", ratio(c.events, run_s), "1/s"},
      {"sim.event_ns", ev_ns, "ns"},
      {"sim.pool_slots", c.pool_slots, "count"},
      {"sim.heap_actions", c.heap_actions, "count"},
      {"sim.fiber_switch_ns", fiber_ns, "ns"},
      {"sim.fiber.switches", c.fiber_switches, "count"},
      {"sim.fiber.est_share", ratio(c.fiber_switches * fiber_ns * 1e-9, run_s), "ratio"},
      {"sim.parallel.windows", par.c.windows, "count"},
      {"sim.parallel.cross_events", par.c.cross_events, "count"},
      {"sim.parallel.critical_path_events", par.c.critical_path_events, "count"},
      {"sim.parallel.ideal_speedup", ratio(par.c.events, par.c.critical_path_events), "ratio"},
      {"sim.parallel.real_speedup", ratio(run_s, par.run_s), "ratio"},
      {"sim.parallel.us_per_window", ratio(par.run_s * 1e6, par.c.windows), "us"},
      {"sim.parallel.wait_share", ratio(par.c.wait_ns, par.c.work_ns + par.c.wait_ns), "ratio"},
      {"host.cpu_s", c.cpu_s, "s"},
      {"host.sys_s", c.sys_s, "s"},
      {"core.context_switches", c.context_switches, "count"},
      {"core.interrupts", c.interrupts, "count"},
      {"hw.link.frames", c.link_frames, "count"},
      {"hw.link.bytes", c.link_bytes, "B"},
      {"hw.link.mean_frame_b", ratio(c.link_bytes, c.link_frames), "B"},
      {"hw.crc_ns_per_kb", crc_ns, "ns/KiB"},
      // Every frame is CRC'd by the sending and the receiving CAB.
      {"hw.crc.est_share", ratio(2.0 * c.link_bytes / 1024.0 * crc_ns * 1e-9, run_s), "ratio"},
      {"hw.hub.frames_switched", c.hub_frames, "count"},
      {"hw.drops", row(r, "drops.total"), "count"},
      {"hw.pool.reuse_ratio", ratio(c.pool_reuses, c.pool_acquires), "ratio"},
      {"proto.cksum_ns_per_kb", cksum_ns, "ns/KiB"},
      {"proto.cksum.est_share", ratio(c.cksum_bytes / 1024.0 * cksum_ns * 1e-9, run_s), "ratio"},
      {"proto.tcp.segments", c.tcp_segments, "count"},
      {"proto.tcp.retransmits", row(r, "retransmits.tcp"), "count"},
      {"proto.ip.fragments", c.ip_fragments, "count"},
      {"proto.datalink.packets", c.dl_packets, "count"},
      {"proto.headerbuf.reuse_ratio", ratio(c.hb_reuses, c.hb_acquires), "ratio"},
      {"nproto.rmp.messages", c.rmp_sent, "count"},
      {"nproto.rmp.retransmits", c.rmp_retx, "count"},
      {"nproto.rmp.useful_ratio", ratio(c.rmp_delivered, c.rmp_sent + c.rmp_retx), "ratio"},
      {"nproto.reqresp.calls", c.rr_calls, "count"},
      {"nproto.reqresp.retries", c.rr_retries, "count"},
      {"session.opened", row(r, "session.opened"), "count"},
      {"session.refused", row(r, "session.refused"), "count"},
      {"session.frames", row(r, "session.frames.sent"), "count"},
      {"session.frames_per_msg", row(r, "session.trunk.frames_per_msg"), "ratio"},
      {"session.credit_stalls", row(r, "session.credit_stalls"), "count"},
      {"session.proto_errors", row(r, "session.proto_errors"), "count"},
      {"coll.ops_completed", row(r, "coll.ops_completed"), "count"},
      {"coll.ops_failed", row(r, "coll.ops_failed"), "count"},
      {"coll.msgs", row(r, "coll.msgs_sent"), "count"},
      {"coll.retransmits", row(r, "coll.retransmits"), "count"},
      {"coll.p99_us", row(r, "coll.p99"), "us"},
      {"msg.samples", row(r, "global.latency.count"), "count"},
      {"trace.overhead_s", traced.run_s - base_run_s, "s"},
  };
  const std::string context = context_json(wl, a.seed, a.git_rev, threads);
  if (!a.trace_out.empty()) write_trace(a.trace_out, context, spans, ms);
  std::printf("%s\n", context.c_str());
  print_result(bad.empty(), final_tally(traced, bad.size()), ms);
  return bad.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const WorkloadDef& wl = find_workload(a.workload);
    return a.trace ? run_traced(wl, a) : run_untraced(wl, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
