#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/runtime.hpp"
#include "host/process.hpp"

namespace nectar::host {

/// The CAB device driver in the host operating system (paper §3.2).
///
/// Provides host processes with:
///  - the mmap of CAB memory (read/write/block access, each charged as VME
///    programmed I/O or block DMA on the shared bus);
///  - Wait on host condition variables, by polling (no system call) or by
///    blocking in the driver until the CAB interrupts the host;
///  - Signal, and posting requests to the CAB signal queue + doorbell;
///  - a simple host-to-CAB RPC built from the signal queue and a sync.
class CabDriver {
 public:
  CabDriver(Host& host, core::CabRuntime& cab);

  CabDriver(const CabDriver&) = delete;
  CabDriver& operator=(const CabDriver&) = delete;

  Host& host() { return host_; }
  core::CabRuntime& cab() { return cab_; }

  // --- mmap'ed access to CAB memory (charged VME programmed I/O) -------------

  std::uint32_t read32(hw::CabAddr a);
  void write32(hw::CabAddr a, std::uint32_t v);
  void read_block(hw::CabAddr a, std::span<std::uint8_t> out);
  void write_block(hw::CabAddr a, std::span<const std::uint8_t> in);

  /// Bulk transfers via the CAB's VME DMA channel (the driver blocks the
  /// calling process until completion).
  void dma_to_cab(std::span<const std::uint8_t> host_src, hw::CabAddr dst);
  void dma_from_cab(hw::CabAddr src, std::span<std::uint8_t> host_dst);

  /// Copy threshold: smaller transfers use programmed I/O, larger ones DMA
  /// (setting up a DMA costs more than a few word writes).
  static constexpr std::size_t kDmaThreshold = 128;
  void copy_to_cab(std::span<const std::uint8_t> host_src, hw::CabAddr dst);
  void copy_from_cab(hw::CabAddr src, std::span<std::uint8_t> host_dst);

  // --- host condition variables (§3.2) -----------------------------------------

  using HostCondId = core::HostSignaling::HostCondId;

  /// Read the poll word (one VME access).
  std::uint32_t poll(HostCondId cond);

  /// Busy-wait until the poll value differs from `last_seen`; returns the
  /// new value. "Using polling, host processes can wait for host conditions
  /// without incurring the overhead of a system call."
  std::uint32_t wait_poll(HostCondId cond, std::uint32_t last_seen);

  /// Block in the driver until signaled ("the CAB driver records that the
  /// process is interested ... and puts the process to sleep"); woken by the
  /// driver's interrupt handler. Returns the new poll value.
  std::uint32_t wait_blocking(HostCondId cond, std::uint32_t last_seen);

  /// Signal a host condition from the host side.
  void signal(HostCondId cond);

  // --- CAB signal queue / doorbell -------------------------------------------------

  /// Post a request to the CAB signal queue and ring the doorbell.
  void post_to_cab(core::SignalElement e);

  /// Simple host-to-CAB RPC (§3.2): post `opcode(param, aux)`, block until
  /// the CAB writes the result into a host-pool sync, return it.
  std::uint32_t call_cab(std::uint16_t opcode, std::uint32_t param, std::uint32_t aux = 0);

  /// Dispatch for CAB->host requests beyond condition signals (§3.2: "this
  /// queue can also be used by the CAB for other kinds of requests to the
  /// host, such as invocation of host I/O and debugging facilities").
  /// Handlers run in the driver's interrupt context on the host CPU.
  void register_host_opcode(std::uint16_t opcode,
                            std::function<void(core::SignalElement)> handler);

  std::uint64_t host_interrupts() const { return host_interrupts_; }

 private:
  void on_host_interrupt();  // drains the host signal queue

  Host& host_;
  core::CabRuntime& cab_;
  hw::VmeBus& vme_;

  /// Processes blocked in wait_blocking, by condition.
  std::map<HostCondId, std::vector<core::Thread*>> sleepers_;
  std::map<std::uint16_t, std::function<void(core::SignalElement)>> host_opcodes_;
  std::uint64_t host_interrupts_ = 0;
};

/// CAB-side opcode for RPC completion plumbing: the host passes the sync id
/// in `aux`; CAB handlers write results there.
constexpr std::uint16_t kOpRpcBase = 100;

}  // namespace nectar::host
