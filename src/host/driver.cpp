#include "host/driver.hpp"

#include <stdexcept>

namespace nectar::host {

namespace costs = sim::costs;

CabDriver::CabDriver(Host& host, core::CabRuntime& cab)
    : host_(host), cab_(cab), vme_(*[&]() {
        hw::VmeBus* bus = cab.board().vme();
        if (bus == nullptr) {
          throw std::logic_error("CabDriver: this CAB has no VME bus (create it with with_vme)");
        }
        return bus;
      }()) {
  // Install the driver's interrupt entry: the CAB raises it after posting to
  // the host signal queue (§3.2).
  cab_.signals().set_host_interrupt([this] {
    host_.cpu().post_interrupt([this] { on_host_interrupt(); });
  });
}

// --- VME access ------------------------------------------------------------------

std::uint32_t CabDriver::read32(hw::CabAddr a) {
  host_.cpu().charge_until(vme_.programmed_access(1));
  return cab_.board().memory().read32(a);
}

void CabDriver::write32(hw::CabAddr a, std::uint32_t v) {
  host_.cpu().charge_until(vme_.programmed_access(1));
  cab_.board().memory().write32(a, v);
}

void CabDriver::read_block(hw::CabAddr a, std::span<std::uint8_t> out) {
  host_.cpu().charge_until(vme_.programmed_bytes(out.size()));
  cab_.board().memory().read(a, out);
}

void CabDriver::write_block(hw::CabAddr a, std::span<const std::uint8_t> in) {
  host_.cpu().charge_until(vme_.programmed_bytes(in.size()));
  cab_.board().memory().write(a, in);
}

void CabDriver::dma_to_cab(std::span<const std::uint8_t> host_src, hw::CabAddr dst) {
  core::Cpu& cpu = host_.cpu();
  cpu.charge(costs::kHostSyscall);  // driver entry: set up the DMA
  core::Thread* self = cpu.current_thread();
  bool done = false;
  cab_.board().dma().start_vme_to_cab(host_src, dst, [&cpu, self, &done] {
    done = true;
    cpu.wake(self);
  });
  while (!done) cpu.block();
}

void CabDriver::dma_from_cab(hw::CabAddr src, std::span<std::uint8_t> host_dst) {
  core::Cpu& cpu = host_.cpu();
  cpu.charge(costs::kHostSyscall);
  core::Thread* self = cpu.current_thread();
  bool done = false;
  cab_.board().dma().start_cab_to_vme(src, host_dst, [&cpu, self, &done] {
    done = true;
    cpu.wake(self);
  });
  while (!done) cpu.block();
}

void CabDriver::copy_to_cab(std::span<const std::uint8_t> host_src, hw::CabAddr dst) {
  if (host_src.size() < kDmaThreshold) {
    write_block(dst, host_src);
  } else {
    dma_to_cab(host_src, dst);
  }
}

void CabDriver::copy_from_cab(hw::CabAddr src, std::span<std::uint8_t> host_dst) {
  if (host_dst.size() < kDmaThreshold) {
    read_block(src, host_dst);
  } else {
    dma_from_cab(src, host_dst);
  }
}

// --- host conditions ------------------------------------------------------------------

std::uint32_t CabDriver::poll(HostCondId cond) {
  return read32(cab_.signals().poll_addr(cond));
}

std::uint32_t CabDriver::wait_poll(HostCondId cond, std::uint32_t last_seen) {
  core::Cpu& cpu = host_.cpu();
  for (;;) {
    std::uint32_t v = poll(cond);
    if (v != last_seen) return v;
    cpu.charge(costs::kHostPollLoop);
  }
}

std::uint32_t CabDriver::wait_blocking(HostCondId cond, std::uint32_t last_seen) {
  core::Cpu& cpu = host_.cpu();
  cpu.charge(costs::kHostSyscall);  // enter the driver
  for (;;) {
    std::uint32_t v = poll(cond);
    if (v != last_seen) return v;
    core::InterruptGuard g(cpu);  // atomic check-and-sleep vs our own irq
    sleepers_[cond].push_back(cpu.current_thread());
    cpu.block_unmasked();
  }
}

void CabDriver::signal(HostCondId cond) {
  host_.cpu().charge_until(vme_.programmed_access(2));  // read-modify-write
  cab_.signals().signal_from_host(cond);
}

// --- CAB signal queue ----------------------------------------------------------------------

void CabDriver::post_to_cab(core::SignalElement e) {
  core::Cpu& cpu = host_.cpu();
  cpu.charge(costs::kSignalQueuePost);
  cpu.charge_until(vme_.programmed_access(3));  // queue element: three words
  cab_.signals().post_to_cab(e);
  cpu.charge_until(vme_.programmed_access(1));  // doorbell register
  cab_.board().ring_doorbell();
}

std::uint32_t CabDriver::call_cab(std::uint16_t opcode, std::uint32_t param, std::uint32_t aux) {
  core::Cpu& cpu = host_.cpu();
  // §3.2/§3.4: the sync provides the synchronization and the return value.
  core::SyncPool::SyncId sync = cab_.host_syncs().alloc();
  core::SignalElement e;
  e.opcode = opcode;
  e.param = param;
  e.aux = (aux << 16) | (sync & 0xFFFF);
  if (aux > 0xFFFF || sync > 0xFFFF) {
    // Large values travel through a parameter block in CAB memory instead;
    // the fixed-size queue element carries only small immediates.
    throw std::logic_error("CabDriver::call_cab: parameter does not fit the queue element");
  }
  post_to_cab(e);
  // Poll the sync over the bus until the CAB writes the result.
  std::uint32_t result = 0;
  for (;;) {
    cpu.charge_until(vme_.programmed_access(1));
    if (cab_.host_syncs().read_try(sync, &result)) return result;
    cpu.charge(costs::kHostPollLoop);
  }
}

void CabDriver::register_host_opcode(std::uint16_t opcode,
                                     std::function<void(core::SignalElement)> handler) {
  host_opcodes_[opcode] = std::move(handler);
}

// --- interrupt handler --------------------------------------------------------------------------

void CabDriver::on_host_interrupt() {
  ++host_interrupts_;
  core::Cpu& cpu = host_.cpu();
  cpu.charge(costs::kHostInterrupt);
  while (auto e = cab_.signals().pop_host_signal()) {
    if (e->opcode == core::kOpHostCondSignal) {
      auto it = sleepers_.find(e->param);
      if (it == sleepers_.end()) continue;
      for (core::Thread* t : it->second) cpu.wake(t);
      it->second.clear();
      continue;
    }
    // Host I/O / debugging facilities (§3.2).
    auto h = host_opcodes_.find(e->opcode);
    if (h != host_opcodes_.end()) h->second(*e);
  }
}

}  // namespace nectar::host
