#pragma once

#include <cstdint>
#include <span>

namespace nectar::proto {

/// Internet checksum (RFC 1071): 16-bit one's-complement sum.
///
/// `update` pairs a dangling odd byte from the previous span first, then sums
/// the even-length body as native-endian 32-bit words, 16 bytes at a time,
/// into a 64-bit accumulator, folds that to 16 bits and byte-swaps it on a
/// little-endian host. Modulo 0xFFFF a 32-bit word equals the sum of its
/// 16-bit halves, and the sum of byte-swapped words is the byte-swapped sum
/// (RFC 1071 §2(B)); the folds keep a sum zero only when every word is zero.
/// So the value is the one the two-bytes-at-a-time big-endian sum gives, for
/// any split of the data into spans (a span may be up to 16 GiB).
///
/// The *computation* is free C++; the *cost model* is separate — protocol
/// code charges `checksum_cost(bytes)` to the CPU when it checksums in
/// software (the paper's Fig. 7 shows this is what separates TCP/IP from the
/// Nectar-specific protocols, which rely on the hardware CRC instead).
class InternetChecksum {
 public:
  void update(std::span<const std::uint8_t> data);
  /// Final folded, complemented 16-bit checksum.
  std::uint16_t value() const;
  void reset() { sum_ = 0; odd_ = false; }

  static std::uint16_t compute(std::span<const std::uint8_t> data);
  /// Compute over two spans (header + payload), as a gathered send does.
  static std::uint16_t compute2(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b);
  /// True if `data` (which embeds its checksum field) verifies to 0.
  static bool verify(std::span<const std::uint8_t> data);

 private:
  std::uint32_t sum_ = 0;  // folded to 16 bits after every update
  bool odd_ = false;  // a dangling odd byte from the previous update
};

/// CPU time to checksum `bytes` in software on the CAB (see costs.hpp).
std::int64_t checksum_cost(std::size_t bytes);

}  // namespace nectar::proto
