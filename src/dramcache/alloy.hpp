// Alloy Cache baseline (Qureshi & Loh, MICRO'12).
//
// A direct-mapped DRAM cache that streams tag-and-data (TAD) together: one
// HBM read both checks the tag and fetches the candidate data. Misses fetch
// the line from main memory, fill it into HBM and write back a dirty
// victim. Write misses allocate (fetching the rest of the line when the
// line is wider than a block). The line width is configurable to drive the
// paper's Fig. 2(b) granularity study (64/128/256 B).
#pragma once

#include "dramcache/controller.hpp"
#include "dramcache/tag_store.hpp"

namespace redcache {

class AlloyController : public ControllerBase {
 public:
  explicit AlloyController(MemControllerConfig cfg);

  const char* name() const override { return "alloy"; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double HitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

 protected:
  void StartTxn(Txn& txn, Cycle now) override;
  void OnDeviceComplete(Txn& txn, bool from_hbm, const DramCompletion& c,
                        Cycle now) override;
  void ExportOwnStats(StatSet& stats) const override;
  void SnapshotPolicy(ser::Writer& w) const override;
  void RestorePolicy(ser::Reader& r) override;
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

  /// Install `addr`'s line into its set; evicts (and writes back) the
  /// current occupant if dirty. `dirty` marks the new line.
  void Fill(Addr addr, bool dirty, Cycle now);

  TagStore tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t read_hits_ = 0;
  std::uint64_t write_hits_ = 0;
  std::uint64_t fills_ = 0;
  std::uint64_t victim_writebacks_ = 0;
  std::uint64_t evictions_ = 0;  ///< valid lines displaced (clean or dirty)
};

}  // namespace redcache
