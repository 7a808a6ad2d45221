// Physical-address to DRAM-coordinate mapping.
//
// Blocks are interleaved across channels (stride 64 B), then across columns
// within an open row, then banks, ranks and rows. This is the classic
// mapping that maximizes channel parallelism for streaming access while
// keeping spatial locality within an open row.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dram/timing.hpp"

namespace redcache {

/// Coordinates of a block inside a DRAM device.
struct DramAddress {
  std::uint32_t channel = 0;
  std::uint32_t rank = 0;
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  std::uint32_t column = 0;  ///< block index within the row

  bool SameRowAs(const DramAddress& o) const {
    return channel == o.channel && rank == o.rank && bank == o.bank &&
           row == o.row;
  }
  bool SameBankAs(const DramAddress& o) const {
    return channel == o.channel && rank == o.rank && bank == o.bank;
  }
};

/// Checkpoint encoding (common/serialize.hpp), 24 bytes; `Ar` is
/// ser::Writer or ser::Reader.
template <class A, class Ar>
void IoDramAddress(A& loc, Ar& a) {
  a.U32(loc.channel);
  a.U32(loc.rank);
  a.U32(loc.bank);
  a.U64(loc.row);
  a.U32(loc.column);
}

/// Maps physical block addresses onto a device's geometry. Addresses beyond
/// the device capacity wrap (callers index DRAM-cache sets directly and main
/// memory by physical address modulo capacity, which is fine for simulation).
class AddressMapper {
 public:
  explicit AddressMapper(const DramGeometry& geo);

  DramAddress Map(Addr byte_addr) const;

  std::uint32_t channels() const { return channels_; }

 private:
  std::uint32_t channels_;
  std::uint32_t ranks_;
  std::uint32_t banks_;
  std::uint32_t blocks_per_row_;
  std::uint64_t rows_;
  /// Every real geometry uses power-of-two dimensions; five 64-bit div/mod
  /// pairs per Map() are measurable in the simulation hot loop, so the
  /// constructor precomputes shifts for a mask/shift fast path.
  bool all_pow2_ = false;
  std::uint32_t channel_shift_ = 0;
  std::uint32_t column_shift_ = 0;
  std::uint32_t bank_shift_ = 0;
  std::uint32_t rank_shift_ = 0;
};

}  // namespace redcache
