#pragma once

#include <cstdint>
#include <span>

namespace nectar::hw {

/// CRC-32 (IEEE 802.3 polynomial), by one of two kernels chosen once for the
/// CPU (hw/crc_kernels.hpp). On x86-64 with PCLMULQDQ, spans of 64 bytes or
/// more fold 16 bytes at a time by carry-less multiplication. Short spans,
/// tails under 16 bytes and every other CPU take slice-by-8: eight bytes per
/// step through eight constexpr tables. Both give every span the same CRC,
/// so the choice is invisible to the simulation.
///
/// The CAB computes cyclic redundancy checksums for incoming and outgoing
/// data in hardware (paper §2.2), so the runtime charges *zero CPU time* for
/// it — but the simulation really computes it over the real bytes, which is
/// what lets the fault-injection tests observe corrupted frames being dropped
/// and retransmitted.
class Crc32 {
 public:
  static constexpr std::uint32_t kInit = 0xFFFFFFFFu;

  /// One-shot CRC of a buffer.
  static std::uint32_t compute(std::span<const std::uint8_t> data);

  /// Streaming interface (the hardware checksums data as it moves through
  /// the FIFOs).
  void update(std::span<const std::uint8_t> data);
  std::uint32_t value() const;
  void reset();

 private:
  std::uint32_t state_ = kInit;
};

}  // namespace nectar::hw
