// DRAM transaction types exchanged between cache controllers and DramSystem.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "dram/address.hpp"

namespace redcache {

/// A read or write transaction against one device.
struct DramRequest {
  RequestId id = 0;          ///< assigned by DramSystem::Enqueue
  Addr addr = 0;             ///< block-aligned physical address
  DramAddress loc;           ///< filled by DramSystem::Enqueue
  bool is_write = false;
  std::uint32_t bursts = 1;  ///< column-command count (64 B payload each)
  Cycle arrival = 0;
  /// Originating tenant in a multi-tenant mix (0 for solo runs).
  std::uint16_t tenant = 0;
  /// Opaque tag the owner uses to match completions to its own state.
  std::uint64_t user_tag = 0;
};

/// Delivered by DramSystem when a transaction's data movement finishes.
struct DramCompletion {
  RequestId id = 0;
  Addr addr = 0;
  bool is_write = false;
  Cycle done = 0;
  std::uint16_t tenant = 0;
  std::uint64_t user_tag = 0;
};

/// Checkpoint encoding (common/serialize.hpp); `Ar` is ser::Writer or
/// ser::Reader.
template <class C, class Ar>
void IoDramCompletion(C& d, Ar& a) {
  a.U64(d.id);
  a.U64(d.addr);
  a.Bool(d.is_write);
  a.U64(d.done);
  a.U32(d.tenant);
  a.U64(d.user_tag);
}

/// Notification of every column command the scheduler issues. The RedCache
/// RCU manager observes writes to detect "a block write to the same index
/// (channel, rank, bank, row)" — its cheapest drain opportunity.
struct IssuedColumnCommand {
  DramAddress loc;
  bool is_write = false;
  Cycle cycle = 0;
};

/// Observer interface for issued column commands.
class ColumnCommandObserver {
 public:
  virtual ~ColumnCommandObserver() = default;
  virtual void OnColumnCommand(const IssuedColumnCommand& cmd) = 0;
};

}  // namespace redcache
