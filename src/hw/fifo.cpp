#include "hw/fifo.hpp"

#include <stdexcept>

#include "obs/causal.hpp"

namespace nectar::hw {

FiberInFifo::FiberInFifo(sim::Engine& engine, std::size_t capacity_bytes)
    : engine_(engine), capacity_(capacity_bytes) {}

bool FiberInFifo::offer(Frame&& f, sim::SimTime first_byte, sim::SimTime last_byte) {
  std::size_t need = f.wire_bytes();
  if (used_ + need > capacity_) {
    ++rejected_;
    return false;
  }
  used_ += need;
  ++accepted_;
  obs::stage(f.trace, "rx.fifo");
  arrived_.push_back({std::move(f), first_byte, last_byte});
  if (arrival_) arrival_();
  return true;
}

FiberInFifo::ArrivedFrame FiberInFifo::pop() {
  if (arrived_.empty()) throw std::logic_error("FiberInFifo::pop: empty");
  ArrivedFrame af = std::move(arrived_.front());
  arrived_.pop_front();
  used_ -= af.frame.wire_bytes();
  if (drain_notify_) drain_notify_();
  return af;
}

sim::SimTime FiberInFifo::payload_available_at(std::size_t n) const {
  if (arrived_.empty()) throw std::logic_error("FiberInFifo: no frame");
  const ArrivedFrame& af = arrived_.front();
  std::size_t wire = af.frame.wire_bytes();
  if (wire == 0) return af.first_byte;
  // Cut-through: bytes arrive linearly between first_byte and last_byte.
  // 4 bytes of preamble/length precede the payload on the wire.
  double byte_time = static_cast<double>(af.last_byte - af.first_byte) / static_cast<double>(wire);
  std::size_t upto = std::min(n + 4, wire);
  return af.first_byte + static_cast<sim::SimTime>(byte_time * static_cast<double>(upto));
}

}  // namespace nectar::hw
