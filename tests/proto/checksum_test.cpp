#include "proto/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace nectar::proto {
namespace {

/// The checksum two bytes at a time as big-endian words, a dangling odd byte
/// paired with the next span's first: the reference the kernel must match.
class BytewiseChecksum {
 public:
  void update(std::span<const std::uint8_t> data) {
    std::size_t i = 0;
    if (odd_ && !data.empty()) {
      sum_ += data[0];
      odd_ = false;
      i = 1;
    }
    for (; i + 1 < data.size(); i += 2) sum_ += std::uint64_t{data[i]} << 8 | data[i + 1];
    if (i < data.size()) {
      sum_ += std::uint64_t{data[i]} << 8;
      odd_ = true;
    }
  }
  std::uint16_t value() const {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
    return static_cast<std::uint16_t>(~s & 0xFFFF);
  }

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;
};

/// `data` cut at `cuts` (ascending, within its size) must checksum as the
/// reference does, through update in pieces, compute, compute2 and verify.
::testing::AssertionResult matches_reference(std::span<const std::uint8_t> data,
                                             const std::vector<std::size_t>& cuts) {
  BytewiseChecksum ref;
  ref.update(data);
  const std::uint16_t want = ref.value();
  InternetChecksum c;
  std::size_t from = 0;
  for (std::size_t cut : cuts) {
    c.update(data.subspan(from, cut - from));
    from = cut;
  }
  c.update(data.subspan(from));
  const std::size_t first = cuts.empty() ? 0 : cuts.front();
  const std::uint16_t split2 = InternetChecksum::compute2(data.first(first), data.subspan(first));
  if (c.value() != want || InternetChecksum::compute(data) != want || split2 != want ||
      InternetChecksum::verify(data) != (want == 0)) {
    return ::testing::AssertionFailure()
           << data.size() << " bytes, " << cuts.size() << " cuts from " << first
           << ": reference " << want << ", update " << c.value() << ", compute "
           << InternetChecksum::compute(data) << ", compute2 " << split2;
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

TEST(InternetChecksumTest, Rfc1071Example) {
  // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
  // checksum = ~0xddf2 = 0x220d.
  auto data = bytes({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
  EXPECT_EQ(InternetChecksum::compute(data), 0x220D);
}

TEST(InternetChecksumTest, VerifyEmbeddedChecksum) {
  auto data = bytes({0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                     10, 0, 0, 1, 10, 0, 0, 2});
  std::uint16_t sum = InternetChecksum::compute(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum);
  EXPECT_TRUE(InternetChecksum::verify(data));
  data[15] ^= 1;
  EXPECT_FALSE(InternetChecksum::verify(data));
}

TEST(InternetChecksumTest, OddLengthPadsWithZero) {
  auto odd = bytes({0xAB, 0xCD, 0xEF});
  auto padded = bytes({0xAB, 0xCD, 0xEF, 0x00});
  EXPECT_EQ(InternetChecksum::compute(odd), InternetChecksum::compute(padded));
}

TEST(InternetChecksumTest, SplitUpdatesMatchOneShot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 101; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  for (std::size_t split = 0; split <= data.size(); split += 13) {
    InternetChecksum c;
    c.update(std::span<const std::uint8_t>(data).first(split));
    c.update(std::span<const std::uint8_t>(data).subspan(split));
    EXPECT_EQ(c.value(), InternetChecksum::compute(data)) << "split at " << split;
  }
}

TEST(InternetChecksumTest, MatchesBytewiseReference) {
  std::mt19937_64 rng(1071);
  std::vector<std::uint8_t> buf(20'000 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());

  // Every length 0-300 at every offset 0-7, split in two at every point.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      std::span<const std::uint8_t> data(buf.data() + offset, len);
      for (std::size_t split = 0; split <= len; ++split)
        ASSERT_TRUE(matches_reference(data, {split})) << "offset " << offset;
    }
  }

  // Random spans up to 20,000 B at random offsets, cut into up to four pieces.
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng() % 20'001;
    std::span<const std::uint8_t> data(buf.data() + rng() % 8, len);
    std::vector<std::size_t> cuts(rng() % 4);
    for (auto& cut : cuts) cut = rng() % (len + 1);
    std::sort(cuts.begin(), cuts.end());
    ASSERT_TRUE(matches_reference(data, cuts)) << "span " << i;
  }

  // All-zero and all-0xFF data: sums of 0x0000 and 0xFFFF, which one's-
  // complement folding must keep apart.
  for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> flat(20'000, fill);
    for (std::size_t len : {0, 1, 2, 3, 15, 16, 17, 64, 1023, 1024, 20'000}) {
      std::span<const std::uint8_t> data(flat.data(), len);
      for (std::size_t split = 0; split <= std::min<std::size_t>(len, 40); ++split)
        ASSERT_TRUE(matches_reference(data, {split, std::max(split, len - split)}))
            << "fill " << int{fill} << " split " << split;
    }
  }
}

TEST(InternetChecksumTest, Compute2MatchesConcatenation) {
  auto a = bytes({1, 2, 3, 4});
  auto b = bytes({5, 6, 7, 8});
  auto ab = bytes({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(InternetChecksum::compute2(a, b), InternetChecksum::compute(ab));
}

TEST(InternetChecksumTest, CostScalesLinearly) {
  EXPECT_EQ(checksum_cost(0), 0);
  EXPECT_GT(checksum_cost(1000), 0);
  EXPECT_EQ(checksum_cost(2000), 2 * checksum_cost(1000));
}

}  // namespace
}  // namespace nectar::proto
