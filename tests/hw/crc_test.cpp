#include "hw/crc.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "hw/crc_kernels.hpp"

namespace nectar::hw {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) { return {s.begin(), s.end()}; }

/// `n` pseudo-random bytes (a fixed LCG, so every run sees the same ones).
std::vector<std::uint8_t> noise(std::size_t n) {
  std::vector<std::uint8_t> buf(n);
  std::uint32_t x = 1;
  for (auto& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return buf;
}

/// The CRC a bit at a time, straight from the reflected polynomial.
std::uint32_t reference_crc(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVector) {
  // CRC-32/IEEE of "123456789" is 0xCBF43926 (standard check value).
  auto data = bytes("123456789");
  EXPECT_EQ(Crc32::compute(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  std::vector<std::uint8_t> empty;
  EXPECT_EQ(Crc32::compute(empty), 0u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  auto data = bytes("the quick brown fox jumps over the lazy dog");
  Crc32 c;
  c.update(std::span<const std::uint8_t>(data).subspan(0, 10));
  c.update(std::span<const std::uint8_t>(data).subspan(10));
  EXPECT_EQ(c.value(), Crc32::compute(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  // A short payload, and a full Ethernet-sized frame that the folding
  // kernel takes, with the flip walking through every bit position.
  for (auto data : {bytes("important packet payload"), noise(1500)}) {
    const std::uint32_t good = Crc32::compute(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto bit = static_cast<std::uint8_t>(1u << (i % 8));
      data[i] ^= bit;
      EXPECT_NE(Crc32::compute(data), good) << data.size() << " bytes, flip at byte " << i;
      data[i] ^= bit;
    }
  }
}

TEST(Crc32, DetectsByteSwap) {
  auto a = bytes("AB");
  auto b = bytes("BA");
  EXPECT_NE(Crc32::compute(a), Crc32::compute(b));
}

TEST(Crc32, ResetClearsState) {
  auto data = bytes("payload");
  Crc32 c;
  c.update(data);
  c.reset();
  c.update(data);
  EXPECT_EQ(c.value(), Crc32::compute(data));
}

/// Runs `kernel` from kInit over every length 0-320 at offsets 0-15 and over
/// 16 KiB at each of those offsets, then over a 320-byte buffer split at
/// every point, so that both halves of most splits cross the 64-byte fold
/// threshold; each must match the bitwise reference.
void expect_kernel_matches_reference(crc_kernels::Kernel kernel, const char* name) {
  const std::vector<std::uint8_t> buf = noise(16384 + 16);
  const std::span<const std::uint8_t> all(buf);
  const auto crc = [&](std::span<const std::uint8_t> d) { return ~kernel(Crc32::kInit, d); };
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 320; ++len) {
      EXPECT_EQ(crc(all.subspan(off, len)), reference_crc(all.subspan(off, len)))
          << name << " kernel, offset " << off << ", length " << len;
    }
    EXPECT_EQ(crc(all.subspan(off, 16384)), reference_crc(all.subspan(off, 16384)))
        << name << " kernel, offset " << off << ", length 16384";
  }
  const auto first320 = all.subspan(0, 320);
  for (std::size_t split = 0; split <= 320; ++split) {
    const std::uint32_t state = kernel(Crc32::kInit, first320.subspan(0, split));
    EXPECT_EQ(~kernel(state, first320.subspan(split)), reference_crc(first320))
        << name << " kernel, split at " << split;
  }
}

TEST(Crc32, MatchesBytewiseReference) {
  // Every length around the eight-byte steps, plus a jumbo frame, at every
  // alignment of the buffer.
  const std::vector<std::uint8_t> buf = noise(9000 + 8);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32::compute(all.subspan(off, len)), reference_crc(all.subspan(off, len)))
          << "offset " << off << ", length " << len;
    }
    EXPECT_EQ(Crc32::compute(all.subspan(off, 9000)), reference_crc(all.subspan(off, 9000)))
        << "offset " << off << ", length 9000";
  }

  // Streaming, split at every point of a 64-byte buffer.
  const auto first64 = all.subspan(0, 64);
  for (std::size_t split = 0; split <= 64; ++split) {
    Crc32 c;
    c.update(first64.subspan(0, split));
    c.update(first64.subspan(split));
    EXPECT_EQ(c.value(), reference_crc(first64)) << "split at " << split;
  }

  // Then each kernel directly: where Crc32 folds, it never runs the table
  // kernel on 64 bytes or more.
  expect_kernel_matches_reference(&crc_kernels::update_table, "table");
  const crc_kernels::Kernel folding = crc_kernels::folding_kernel();
  if (folding == nullptr) GTEST_SKIP() << "no PCLMULQDQ on this CPU: the folding kernel is unused";
  expect_kernel_matches_reference(folding, "folding");
}

}  // namespace
}  // namespace nectar::hw
