#include "hw/crc.hpp"

#include <array>
#include <cstddef>

namespace nectar::hw {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

using Table = std::array<std::uint32_t, 256>;

/// Slice-by-8 tables: kTables[0] advances the CRC by one byte, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so one step
/// can fold eight input bytes through eight independent lookups.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

constexpr auto kTables = make_tables();

}  // namespace

std::uint32_t Crc32::compute(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

void Crc32::update(std::span<const std::uint8_t> data) {
  std::uint32_t c = state_;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    // The first four bytes, assembled little-endian, fold into the CRC.
    const std::uint32_t lo = c ^ (std::uint32_t{data[i]} | std::uint32_t{data[i + 1]} << 8 |
                                  std::uint32_t{data[i + 2]} << 16 |
                                  std::uint32_t{data[i + 3]} << 24);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^ kTables[5][(lo >> 16) & 0xFF] ^
        kTables[4][lo >> 24] ^ kTables[3][data[i + 4]] ^ kTables[2][data[i + 5]] ^
        kTables[1][data[i + 6]] ^ kTables[0][data[i + 7]];
  }
  for (; i < data.size(); ++i) c = kTables[0][(c ^ data[i]) & 0xFF] ^ (c >> 8);
  state_ = c;
}

std::uint32_t Crc32::value() const { return state_ ^ 0xFFFFFFFFu; }

void Crc32::reset() { state_ = kInit; }

}  // namespace nectar::hw
