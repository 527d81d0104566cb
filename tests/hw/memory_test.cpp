#include "hw/memory.hpp"

#include <gtest/gtest.h>

#include <array>

namespace nectar::hw {
namespace {

TEST(CabMemory, ReadWriteRoundTrip) {
  CabMemory m;
  m.write8(kDataBase, 0xAB);
  EXPECT_EQ(m.read8(kDataBase), 0xAB);
  m.write32(kDataBase + 4, 0xDEADBEEF);
  EXPECT_EQ(m.read32(kDataBase + 4), 0xDEADBEEFu);
}

TEST(CabMemory, BulkReadWrite) {
  CabMemory m;
  std::array<std::uint8_t, 64> in{}, out{};
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i * 3);
  m.write(kDataBase + 100, in);
  m.read(kDataBase + 100, out);
  EXPECT_EQ(in, out);
}

TEST(CabMemory, EmptySpanReadWriteIsANoOp) {
  // An empty span may carry a null data(); copying zero bytes from or to it
  // must not reach memcpy (UB), and must leave memory untouched.
  CabMemory m;
  m.write8(kDataBase, 0x5A);
  m.write(kDataBase, std::span<const std::uint8_t>{});
  m.read(kDataBase, std::span<std::uint8_t>{});
  EXPECT_EQ(m.read8(kDataBase), 0x5A);
  // The bounds check still applies to a zero-length access.
  EXPECT_THROW(m.read(kProgramEnd, std::span<std::uint8_t>{}), std::out_of_range);
}

TEST(CabMemory, FillAndView) {
  CabMemory m;
  m.fill(kDataBase, 16, 0x7F);
  auto v = m.view(kDataBase, 16);
  for (auto b : v) EXPECT_EQ(b, 0x7F);
}

TEST(CabMemory, PromIsReadOnly) {
  CabMemory m;
  EXPECT_EQ(m.read8(0), 0);  // PROM reads fine
  EXPECT_THROW(m.write8(0, 1), std::logic_error);
  EXPECT_THROW(m.write32(kPromSize - 4, 1), std::logic_error);
  // Program RAM just above PROM is writable.
  m.write8(kPromSize, 42);
  EXPECT_EQ(m.read8(kPromSize), 42);
}

TEST(CabMemory, HoleBetweenRegionsFaults) {
  CabMemory m;
  EXPECT_THROW(m.read8(kProgramEnd), std::out_of_range);
  EXPECT_THROW(m.write8(kDataBase - 1, 0), std::out_of_range);
}

TEST(CabMemory, OutOfBoundsFaults) {
  CabMemory m;
  EXPECT_THROW(m.read8(kDataEnd), std::out_of_range);
  EXPECT_THROW(m.read32(kDataEnd - 2), std::out_of_range);
}

TEST(CabMemory, RegionPredicates) {
  EXPECT_TRUE(CabMemory::in_data_region(kDataBase, kDataSize));
  EXPECT_FALSE(CabMemory::in_data_region(kDataBase, kDataSize + 1));
  EXPECT_FALSE(CabMemory::in_data_region(kProgramRamBase, 4));
  EXPECT_TRUE(CabMemory::in_program_region(0, kProgramEnd));
  EXPECT_FALSE(CabMemory::in_program_region(kDataBase, 4));
  EXPECT_TRUE(CabMemory::in_prom(0, 1));
  EXPECT_TRUE(CabMemory::in_prom(kPromSize - 1, 10));  // straddles
  EXPECT_FALSE(CabMemory::in_prom(kPromSize, 10));
}

TEST(Protection, DefaultDomainAllowsEverything) {
  ProtectionUnit p;
  EXPECT_TRUE(p.check(kDataBase, 100, true));
  EXPECT_TRUE(p.check(0, kPageSize, false));
}

TEST(Protection, PerPagePermissions) {
  ProtectionUnit p;
  CabAddr page = kDataBase / kPageSize;
  p.set_page(1, page, ProtectionUnit::Access::Read);
  p.set_current_domain(1);
  EXPECT_TRUE(p.check(kDataBase, 4, false));
  EXPECT_FALSE(p.check(kDataBase, 4, true));
  p.set_page(1, page, ProtectionUnit::Access::None);
  EXPECT_FALSE(p.check(kDataBase, 4, false));
}

TEST(Protection, DomainsAreIndependentFirewalls) {
  // §3: protection domains "provide firewalls around application tasks".
  ProtectionUnit p(4);
  p.set_range(2, kDataBase, 4096, ProtectionUnit::Access::None);
  p.set_current_domain(2);
  EXPECT_FALSE(p.check(kDataBase + 100, 4, false));
  // Switching the domain register (one reload, §2.2) restores access.
  p.set_current_domain(0);
  EXPECT_TRUE(p.check(kDataBase + 100, 4, true));
}

TEST(Protection, RangeCheckSpansPages) {
  ProtectionUnit p;
  // Deny only the second page of a 3-page range.
  p.set_page(1, kDataBase / kPageSize + 1, ProtectionUnit::Access::None);
  p.set_current_domain(1);
  EXPECT_FALSE(p.check(kDataBase, 3 * kPageSize, false));
  EXPECT_TRUE(p.check(kDataBase, kPageSize, false));
}

TEST(Protection, FaultCounterIncrements) {
  ProtectionUnit p;
  p.set_page(1, kDataBase / kPageSize, ProtectionUnit::Access::None);
  p.set_current_domain(1);
  EXPECT_EQ(p.faults(), 0u);
  p.check(kDataBase, 4, false);
  p.check(kDataBase, 4, true);
  EXPECT_EQ(p.faults(), 2u);
}

TEST(Protection, BadDomainThrows) {
  ProtectionUnit p(2);
  EXPECT_THROW(p.set_current_domain(2), std::out_of_range);
  EXPECT_THROW(p.set_page(5, 0, ProtectionUnit::Access::Read), std::out_of_range);
}

}  // namespace
}  // namespace nectar::hw
