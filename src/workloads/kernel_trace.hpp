// Kernel-composed synthetic trace generator.
//
// Each core executes a list of kernels in order; a kernel is a parameterized
// access pattern (sweep, tiled sweep, hot set, scatter, or mixed). The
// kernels are chosen per benchmark (see benchmarks.hpp) to reproduce the
// reuse-count / bandwidth-cost distributions the paper's Figure 3 reports —
// the behaviour RedCache's alpha/gamma mechanisms key on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workloads/trace.hpp"

namespace redcache {

/// One phase of a core's execution.
struct Kernel {
  enum class Kind {
    kSweep,       ///< sequential strided passes over [base, base+size)
    kTiled,       ///< visit tiles in order; each tile swept tile_passes times
    kHot,         ///< Zipf-skewed accesses within [base, base+size)
    kScatter,     ///< uniform random blocks within [base, base+size)
    kScatterHot,  ///< scatter over main region, p_hot of refs hit hot region
    kSweepHot,    ///< cold sequential sweep interleaved with hot-set refs —
                  ///< the canonical streaming+hot contention pattern the
                  ///< paper's block classification (Fig. 4) targets
    kDualSweep,   ///< large single-pass cold sweep interleaved with a small
                  ///< repeatedly-wrapping hot sweep: every hot block ends up
                  ///< with the same reuse count, producing the narrow
                  ///< homo-reuse bands of the paper's Fig. 3
  };

  Kind kind = Kind::kSweep;
  Addr base = 0;             ///< region start (byte address)
  std::uint64_t size = 1_MiB;  ///< region length in bytes
  std::uint32_t stride = kBlockBytes;
  std::uint32_t passes = 1;       ///< kSweep: number of full passes
  std::uint64_t tile_bytes = 64_KiB;  ///< kTiled
  std::uint32_t tile_passes = 8;      ///< kTiled: sweeps per tile
  /// kHot/kScatter/kScatterHot: reference count. KernelTrace sets it to
  /// KernelRefCount for every kind in its own copy of the program, so the
  /// per-reference path reads the count instead of recomputing it.
  std::uint64_t refs = 0;
  double write_frac = 0.3;
  double zipf_s = 0.8;       ///< kHot skew
  Addr hot_base = 0;         ///< hot region (kScatterHot/kSweepHot/kDualSweep)
  std::uint64_t hot_size = 64_KiB;
  double p_hot = 0.2;        ///< fraction of refs going to the hot region
  /// Write fraction for hot-region refs; negative means "same as
  /// write_frac". Lets a kernel model read-mostly keys against write-heavy
  /// scatter output (or vice versa).
  double hot_write_frac = -1.0;
  std::uint32_t gap_mean = 4;  ///< mean compute cycles between refs
  /// Parallel applications alternate memory bursts with compute stretches
  /// (the idle windows the RCU manager drains into — paper §III-C). Every
  /// `pause_every` references the core inserts an exponentially-jittered
  /// pause of mean `pause_cycles`. 0 disables.
  std::uint32_t pause_every = 192;
  std::uint32_t pause_cycles = 2500;
};

/// Builds one TraceSource from per-core kernel programs.
class KernelTrace : public TraceSource {
 public:
  /// `programs[c]` is the kernel list core `c` runs. `seed` fixes all
  /// randomness; cores derive independent streams from it.
  KernelTrace(std::string name, std::vector<std::vector<Kernel>> programs,
              std::uint64_t seed);

  bool Next(std::uint32_t core, MemRef& out) override;
  std::uint32_t num_cores() const override {
    return static_cast<std::uint32_t>(cores_.size());
  }
  std::uint64_t footprint_bytes() const override { return footprint_; }
  std::string name() const override { return name_; }

  /// Number of references `kernel` will emit (used to size programs).
  static std::uint64_t KernelRefCount(const Kernel& k);

  /// Checkpointing: per-core cursors + RNG. The kernel programs themselves
  /// are configuration, rebuilt by constructing the same workload.
  bool checkpointable() const override { return true; }
  void Snapshot(ser::Writer& w) const override { Io(*this, w); }
  void Restore(ser::Reader& r) override { Io(*this, r); }

 private:
  struct CoreState {
    std::vector<Kernel> program;
    std::size_t kernel_idx = 0;
    std::uint64_t emitted = 0;   ///< refs emitted by current kernel
    std::uint64_t cursor = 0;    ///< position state (pattern-specific)
    std::uint32_t pass = 0;
    std::uint64_t tile = 0;
    Rng rng;
  };

  bool EmitFromKernel(CoreState& cs, const Kernel& k, MemRef& out);

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("ktrace");
    a.Records(
        s.cores_, 0,
        [&a](auto& cs) {
          a.U64(cs.kernel_idx);
          a.U64(cs.emitted);
          a.U64(cs.cursor);
          a.U32(cs.pass);
          a.U64(cs.tile);
          a.Part(cs.rng);
        },
        "kernel trace core-count mismatch");
  }

  std::string name_;
  std::vector<CoreState> cores_;
  std::uint64_t footprint_ = 0;
};

}  // namespace redcache
