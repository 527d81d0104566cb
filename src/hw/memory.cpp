#include "hw/memory.hpp"

#include <cstring>
#include <new>
#include <stdexcept>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/mman.h>
#define NECTAR_HAVE_MMAP 1
#endif

namespace nectar::hw {

LazyZeroPages::LazyZeroPages(std::size_t size) : size_(size) {
#ifdef NECTAR_HAVE_MMAP
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    data_ = static_cast<std::uint8_t*>(p);
    mapped_ = true;
    return;
  }
#endif
  data_ = new std::uint8_t[size]();
}

LazyZeroPages::~LazyZeroPages() {
#ifdef NECTAR_HAVE_MMAP
  if (mapped_) {
    ::munmap(data_, size_);
    return;
  }
#endif
  delete[] data_;
}

CabMemory::CabMemory() : bytes_(kDataEnd) {}

void CabMemory::check(CabAddr a, std::size_t len) const {
  if (static_cast<std::size_t>(a) + len > bytes_.size() ||
      (a >= kProgramEnd && a < kDataBase)) {
    throw std::out_of_range("CabMemory: access outside populated regions");
  }
}

std::uint8_t CabMemory::read8(CabAddr a) const {
  check(a, 1);
  return bytes_.data()[a];
}

void CabMemory::write8(CabAddr a, std::uint8_t v) {
  check(a, 1);
  if (in_prom(a, 1)) throw std::logic_error("CabMemory: write to PROM");
  bytes_.data()[a] = v;
}

std::uint32_t CabMemory::read32(CabAddr a) const {
  check(a, 4);
  std::uint32_t v;
  std::memcpy(&v, bytes_.data() + a, 4);
  return v;
}

void CabMemory::write32(CabAddr a, std::uint32_t v) {
  check(a, 4);
  if (in_prom(a, 4)) throw std::logic_error("CabMemory: write to PROM");
  std::memcpy(bytes_.data() + a, &v, 4);
}

void CabMemory::read(CabAddr a, std::span<std::uint8_t> out) const {
  check(a, out.size());
  if (out.empty()) return;  // an empty span's data() may be null: no memcpy
  std::memcpy(out.data(), bytes_.data() + a, out.size());
}

void CabMemory::write(CabAddr a, std::span<const std::uint8_t> in) {
  check(a, in.size());
  if (in_prom(a, in.size())) throw std::logic_error("CabMemory: write to PROM");
  if (in.empty()) return;
  std::memcpy(bytes_.data() + a, in.data(), in.size());
}

void CabMemory::fill(CabAddr a, std::size_t len, std::uint8_t v) {
  check(a, len);
  if (in_prom(a, len)) throw std::logic_error("CabMemory: write to PROM");
  std::memset(bytes_.data() + a, v, len);
}

std::span<std::uint8_t> CabMemory::view(CabAddr a, std::size_t len) {
  check(a, len);
  return {bytes_.data() + a, len};
}

std::span<const std::uint8_t> CabMemory::view(CabAddr a, std::size_t len) const {
  check(a, len);
  return {bytes_.data() + a, len};
}

bool CabMemory::in_data_region(CabAddr a, std::size_t len) {
  return a >= kDataBase && static_cast<std::size_t>(a) + len <= kDataEnd;
}

bool CabMemory::in_program_region(CabAddr a, std::size_t len) {
  return static_cast<std::size_t>(a) + len <= kProgramEnd;
}

bool CabMemory::in_prom(CabAddr a, std::size_t len) {
  // True if any byte of [a, a+len) falls inside the PROM.
  return len > 0 && a < kPromSize;
}

ProtectionUnit::ProtectionUnit(int num_domains) {
  if (num_domains <= 0) throw std::invalid_argument("ProtectionUnit: need >= 1 domain");
  domains_.assign(static_cast<std::size_t>(num_domains),
                  std::vector<Access>(kNumPages, Access::ReadWrite));
}

void ProtectionUnit::set_current_domain(int d) {
  if (d < 0 || d >= num_domains()) throw std::out_of_range("ProtectionUnit: bad domain");
  current_ = d;
}

void ProtectionUnit::set_page(int domain, CabAddr page, Access a) {
  if (domain < 0 || domain >= num_domains()) throw std::out_of_range("ProtectionUnit: bad domain");
  if (page >= kNumPages) throw std::out_of_range("ProtectionUnit: bad page");
  domains_[static_cast<std::size_t>(domain)][page] = a;
}

void ProtectionUnit::set_range(int domain, CabAddr addr, std::size_t len, Access a) {
  CabAddr first = addr / kPageSize;
  CabAddr last = static_cast<CabAddr>((addr + len + kPageSize - 1) / kPageSize);
  for (CabAddr p = first; p < last && p < kNumPages; ++p) set_page(domain, p, a);
}

bool ProtectionUnit::check(CabAddr addr, std::size_t len, bool write) const {
  return check_domain(current_, addr, len, write);
}

bool ProtectionUnit::check_domain(int domain, CabAddr addr, std::size_t len, bool write) const {
  if (domain < 0 || domain >= num_domains()) return false;
  const auto& pages = domains_[static_cast<std::size_t>(domain)];
  CabAddr first = addr / kPageSize;
  CabAddr last = static_cast<CabAddr>((addr + (len ? len : 1) - 1) / kPageSize);
  for (CabAddr p = first; p <= last; ++p) {
    if (p >= kNumPages) {
      ++faults_;
      return false;
    }
    Access a = pages[p];
    if (a == Access::None || (write && a != Access::ReadWrite)) {
      ++faults_;
      return false;
    }
  }
  return true;
}

}  // namespace nectar::hw
