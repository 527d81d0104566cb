#include "proto/checksum.hpp"

#include <bit>
#include <cstring>

#include "sim/costs.hpp"

namespace nectar::proto {

namespace {

static_assert(std::endian::native == std::endian::little ||
              std::endian::native == std::endian::big);

/// Fold a one's-complement sum to 16 bits with end-around carries. The
/// result is congruent to `s` modulo 0xFFFF, and zero only if `s` is.
std::uint32_t fold16(std::uint64_t s) {
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint32_t>(s);
}

/// The one's-complement sum of the `n` (even) bytes at `p` as big-endian
/// 16-bit words, folded to 16 bits. It adds native-endian 32-bit words, then
/// the tail's 16-bit ones: a 32-bit word is congruent modulo 0xFFFF to the
/// sum of its two 16-bit halves, and the sum of byte-swapped words is the
/// byte-swapped sum (RFC 1071 §2(B)). Each word adds less than 2^32, so the
/// accumulator holds 2^32 of them (16 GiB).
std::uint32_t sum_words(const std::uint8_t* p, std::size_t n) {
  std::uint64_t acc = 0;
  for (; n >= 16; p += 16, n -= 16) {
    std::uint32_t w[4];
    std::memcpy(w, p, sizeof w);
    acc += std::uint64_t{w[0]} + w[1] + w[2] + w[3];
  }
  for (; n != 0; p += 2, n -= 2) {
    std::uint16_t w;
    std::memcpy(&w, p, sizeof w);
    acc += w;
  }
  std::uint32_t s = fold16(acc);
  if constexpr (std::endian::native == std::endian::little) s = (s >> 8) | ((s & 0xFF) << 8);
  return s;
}

}  // namespace

void InternetChecksum::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  std::uint32_t s = sum_;
  if (odd_) {
    // Pair the dangling byte with the first byte of this span.
    s += *p++;
    --n;
    odd_ = false;
  }
  s += sum_words(p, n & ~std::size_t{1});
  if (n & 1) {
    s += static_cast<std::uint32_t>(p[n - 1]) << 8;
    odd_ = true;
  }
  sum_ = fold16(s);
}

std::uint16_t InternetChecksum::value() const {
  return static_cast<std::uint16_t>(~sum_ & 0xFFFF);
}

std::uint16_t InternetChecksum::compute(std::span<const std::uint8_t> data) {
  InternetChecksum c;
  c.update(data);
  return c.value();
}

std::uint16_t InternetChecksum::compute2(std::span<const std::uint8_t> a,
                                         std::span<const std::uint8_t> b) {
  InternetChecksum c;
  c.update(a);
  c.update(b);
  return c.value();
}

bool InternetChecksum::verify(std::span<const std::uint8_t> data) {
  InternetChecksum c;
  c.update(data);
  // A buffer containing a correct checksum sums to 0xFFFF (complement 0).
  return c.value() == 0;
}

std::int64_t checksum_cost(std::size_t bytes) {
  return static_cast<std::int64_t>(bytes) * sim::costs::kChecksumPerByte;
}

}  // namespace nectar::proto
