#pragma once

// The kernels behind hw::Crc32. Each advances a running CRC-32 state (the
// inverted register Crc32 keeps, kInit before any byte) over a span and
// returns the new state; every kernel gives every span the same result.
// Crc32 picks one at first use; the tests call each directly.

#include <cstdint>
#include <span>

namespace nectar::hw::crc_kernels {

using Kernel = std::uint32_t (*)(std::uint32_t state, std::span<const std::uint8_t> data);

/// Slice-by-8: eight bytes per step through eight constexpr tables, then the
/// tail a byte at a time. Runs on every target.
std::uint32_t update_table(std::uint32_t state, std::span<const std::uint8_t> data);

/// Carry-less-multiply folding (PCLMULQDQ) over the 16-byte blocks of a span
/// of 64 bytes or more, with slice-by-8 for shorter spans and the tail.
/// nullptr unless the target is x86-64 and this CPU has PCLMULQDQ.
Kernel folding_kernel();

}  // namespace nectar::hw::crc_kernels
