#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cpu.hpp"
#include "core/heap.hpp"
#include "core/host_signal.hpp"
#include "core/mailbox.hpp"
#include "core/priorities.hpp"
#include "core/sync.hpp"
#include "hw/cab.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace nectar::core {

/// One entry of a CAB's event log: something a protocol or the control plane
/// decided at simulated time `t` on `node` ("rmp.retransmit",
/// "route.failover", ...). net::Network::events() merges every CAB's log.
struct LogEntry {
  sim::SimTime t = 0;
  int node = -1;
  const char* kind = "";  ///< a string literal
  std::string detail;
};

/// The CAB runtime system (paper §3): boots on a CabBoard and provides the
/// facilities transport protocols and CAB-resident applications are built
/// from — preemptive priority threads, the buffer heap, mailboxes with
/// network-wide addresses, syncs, and the host-CAB signaling layer.
class CabRuntime {
 public:
  /// `metrics` and `tracer` are the network-wide observability sinks; a
  /// standalone runtime (nullptr metrics) falls back to a private registry so
  /// register_metrics callers always have somewhere to report.
  explicit CabRuntime(hw::CabBoard& board, obs::MetricsRegistry* metrics = nullptr,
                      obs::Tracer* tracer = nullptr);

  CabRuntime(const CabRuntime&) = delete;
  CabRuntime& operator=(const CabRuntime&) = delete;

  hw::CabBoard& board() { return board_; }
  Cpu& cpu() { return cpu_; }
  BufferHeap& heap() { return heap_; }
  HostSignaling& signals() { return signals_; }
  SyncPool& cab_syncs() { return cab_syncs_; }
  SyncPool& host_syncs() { return host_syncs_; }
  sim::Engine& engine() { return board_.engine(); }
  int node_id() const { return board_.node_id(); }

  // --- threads ---------------------------------------------------------------

  Thread* fork_system(std::string name, std::function<void()> body) {
    return cpu_.fork(std::move(name), kSystemPriority, std::move(body));
  }
  Thread* fork_app(std::string name, std::function<void()> body) {
    return cpu_.fork(std::move(name), kAppPriority, std::move(body));
  }

  // --- mailboxes ---------------------------------------------------------------

  /// Create a mailbox with the next network-wide address on this CAB.
  Mailbox& create_mailbox(std::string name);
  /// Look up a local mailbox by its per-CAB index (transport protocols
  /// deliver remote messages through this). nullptr if unknown.
  Mailbox* find_mailbox(std::uint32_t index);
  std::size_t mailbox_count() const { return mailboxes_.size(); }

  // --- datalink hook --------------------------------------------------------------

  /// Install the handler that runs (in interrupt context) when the input
  /// FIFO goes non-empty — the start-of-packet interrupt (§3.1, §4.1).
  void set_packet_handler(std::function<void()> fn) { packet_handler_ = std::move(fn); }

  // --- observability ----------------------------------------------------------------

  /// A named point on this CAB's CPU track (protocol marks, Figure-6
  /// breakdown points); recorded only while the tracer is enabled.
  void trace_mark(const char* label) {
    if (obs::tracing(cpu_.tracer())) cpu_.tracer()->instant(cpu_.trace_track(), label);
  }

  /// Append an event stamped with this CAB's clock (host memory only: nothing
  /// is scheduled or charged), and mark `kind` on the CPU track while tracing.
  /// Only this CAB's shard writes the log, so it takes no lock. Entries past
  /// kLogCap are counted in log_dropped(), not stored.
  void log(const char* kind, std::string detail);
  const std::vector<LogEntry>& log_entries() const { return log_; }
  std::uint64_t log_dropped() const { return log_dropped_; }
  static constexpr std::size_t kLogCap = 4096;

  /// The registry this node reports into (network-wide or the private
  /// fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::Tracer* tracer() { return tracer_; }

 private:
  hw::CabBoard& board_;
  Cpu cpu_;
  BufferHeap heap_;
  HostSignaling signals_;
  SyncPool cab_syncs_;
  SyncPool host_syncs_;

  // Declared before metrics_reg_ so probes unhook before the fallback
  // registry (if used) is destroyed.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  std::map<std::uint32_t, std::unique_ptr<Mailbox>> mailboxes_;
  std::uint32_t next_mailbox_ = 1;
  std::function<void()> packet_handler_;
  std::vector<LogEntry> log_;
  std::uint64_t log_dropped_ = 0;

  // Last member: its probes read the members above, so it must release first.
  obs::Registration metrics_reg_;
};

}  // namespace nectar::core
