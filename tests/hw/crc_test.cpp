#include "hw/crc.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

namespace nectar::hw {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) { return {s.begin(), s.end()}; }

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
  auto data = bytes("important packet payload");
  std::uint32_t good = Crc32::compute(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32::compute(data), good) << "flip at byte " << i;
    data[i] ^= 0x01;
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

TEST(Crc32, MatchesBytewiseReference) {
  // Every length around the eight-byte steps, plus a jumbo frame, at every
  // alignment of the buffer.
  std::vector<std::uint8_t> buf(9000 + 8);
  std::uint32_t x = 1;
  for (auto& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
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
}

}  // namespace
}  // namespace nectar::hw
