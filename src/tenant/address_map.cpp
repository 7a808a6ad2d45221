#include "tenant/address_map.hpp"

#include <algorithm>
#include <stdexcept>

namespace redcache::tenant {

namespace {

std::uint32_t CeilLog2(std::uint64_t v) {
  std::uint32_t bits = 0;
  while ((std::uint64_t{1} << bits) < v) bits++;
  return bits;
}

std::uint32_t FloorLog2(std::uint64_t v) {
  std::uint32_t bits = 0;
  while ((std::uint64_t{2} << bits) <= v) bits++;
  return bits;
}

}  // namespace

TenantAddressMap::TenantAddressMap(Mode mode, std::uint32_t num_tenants,
                                   std::uint32_t window_bits)
    : mode_(mode),
      num_tenants_(num_tenants),
      window_bits_(window_bits),
      tenant_bits_(num_tenants > 1 ? CeilLog2(num_tenants) : 0) {
  if (num_tenants == 0) {
    throw std::invalid_argument("tenant map needs at least one tenant");
  }
  if (window_bits < kBlockShift || window_bits + tenant_bits_ >= 64) {
    throw std::invalid_argument("tenant window must hold at least one block");
  }
  window_mask_ = (Addr{1} << window_bits) - 1;
}

TenantAddressMap TenantAddressMap::Plan(Mode mode, std::uint32_t num_tenants,
                                        std::uint64_t max_footprint,
                                        std::uint64_t capacity,
                                        std::uint32_t window_bits_override) {
  const std::uint32_t tenant_bits =
      num_tenants > 1 ? CeilLog2(num_tenants) : 0;
  std::uint32_t window_bits = window_bits_override;
  if (window_bits == 0) {
    if (mode == Mode::kInterleave) {
      // Page stripes: tenants interleave at OS-page granularity, sharing
      // every row neighbourhood while keeping block ownership disjoint.
      window_bits = kPageShift;
    } else {
      // The largest per-tenant window that keeps every rebased address
      // below capacity: maximal spacing preserves each tenant's solo
      // row/bank layout exactly. A footprint larger than the window wraps
      // within it — the same aliasing regime a solo run enters when its
      // footprint exceeds device capacity — so the capacity bound always
      // wins over footprint needs.
      (void)max_footprint;
      const std::uint32_t cap_bits =
          capacity != 0 ? FloorLog2(capacity) : 63;
      window_bits = std::max(
          cap_bits > tenant_bits ? cap_bits - tenant_bits : kBlockShift,
          kBlockShift);
    }
  }
  return TenantAddressMap(mode, num_tenants, window_bits);
}

std::string TenantAddressMap::Describe() const {
  std::string out(mode_ == Mode::kOffset ? "o" : "i");
  out += std::to_string(window_bits_);
  return out;
}

const char* ToString(TenantAddressMap::Mode mode) {
  return mode == TenantAddressMap::Mode::kOffset ? "offset" : "interleave";
}

}  // namespace redcache::tenant
