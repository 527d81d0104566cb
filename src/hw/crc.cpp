#include "hw/crc.hpp"

#include <array>
#include <cstddef>

#include "hw/crc_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). Its
// constants for the reflected polynomial, each bit-reflected and shifted
// left one: k1/k2 are x^(512±32) mod P and fold a lane 512 bits ahead, k3/k4
// are x^(128±32) mod P and fold it 128 bits ahead, k5 is x^64 mod P, and
// P' and mu = x^64 / P drive the Barrett reduction to 32 bits.
constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kP = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Lane `x` carried forward by the distance of the pair `k` onto `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), next);
}

/// The state after the `n` bytes at `p`, with n a multiple of 16 and at
/// least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(std::uint32_t state,
                                                                  const std::uint8_t* p,
                                                                  std::size_t n) {
  // Four lanes, the state entering with the first, each folded 512 bits
  // ahead onto the next 64 bytes.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  std::size_t i = 64;
  for (; i + 64 <= n; i += 64) {
    x0 = fold(x0, k12, load(p + i));
    x1 = fold(x1, k12, load(p + i + 16));
    x2 = fold(x2, k12, load(p + i + 32));
    x3 = fold(x3, k12, load(p + i + 48));
  }
  // The four lanes into one, then the rest 16 bytes at a time.
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k34, x1);
  x0 = fold(x0, k34, x2);
  x0 = fold(x0, k34, x3);
  for (; i < n; i += 16) x0 = fold(x0, k34, load(p + i));

  // 128 bits to 64 (the low half times k4 onto the high), then the low 32
  // of those times k5 onto the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k34, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, kK5), 0x00));
  // Barrett: the quotient's low 32 bits (times mu), times P', cancel all
  // but the remainder, which lands in bits 32..63.
  const __m128i pmu = _mm_set_epi64x(kMu, kP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

std::uint32_t update_folding(std::uint32_t state, std::span<const std::uint8_t> data) {
  if (data.size() < 64) return crc_kernels::update_table(state, data);
  const std::size_t blocks = data.size() & ~std::size_t{15};
  return crc_kernels::update_table(fold_blocks(state, data.data(), blocks),
                                   data.subspan(blocks));
}

#endif  // __x86_64__

}  // namespace

namespace crc_kernels {

Kernel folding_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // in case the first CRC runs in a static constructor
  if (__builtin_cpu_supports("pclmul")) return &update_folding;
#endif
  return nullptr;
}

std::uint32_t update_table(std::uint32_t state, std::span<const std::uint8_t> data) {
  std::uint32_t c = state;
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
  return c;
}

}  // namespace crc_kernels

std::uint32_t Crc32::compute(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

void Crc32::update(std::span<const std::uint8_t> data) {
  // Chosen once; every kernel gives the same state, so the choice never
  // shows in a result.
  static const crc_kernels::Kernel kernel = [] {
    const crc_kernels::Kernel folding = crc_kernels::folding_kernel();
    return folding != nullptr ? folding : &crc_kernels::update_table;
  }();
  state_ = kernel(state_, data);
}

std::uint32_t Crc32::value() const { return state_ ^ 0xFFFFFFFFu; }

void Crc32::reset() { state_ = kInit; }

}  // namespace nectar::hw
