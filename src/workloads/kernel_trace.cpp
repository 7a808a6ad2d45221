#include "workloads/kernel_trace.hpp"

#include <algorithm>
#include <cassert>

namespace redcache {

namespace {
/// Jitter a mean gap by +/-50% deterministically.
std::uint32_t JitterGap(Rng& rng, std::uint32_t mean) {
  if (mean <= 1) return 1;
  const std::uint64_t lo = std::max<std::uint64_t>(1, mean / 2);
  const std::uint64_t hi = mean + mean / 2;
  return static_cast<std::uint32_t>(rng.Range(lo, hi));
}

/// Spread a block rank over a region so that Zipf-popular ranks are not all
/// physically adjacent (defeats accidental row-buffer friendliness).
Addr SpreadBlock(Addr base, std::uint64_t blocks, std::uint64_t rank) {
  const std::uint64_t spread = Mix64(rank) % blocks;
  return base + spread * kBlockBytes;
}
}  // namespace

KernelTrace::KernelTrace(std::string name,
                         std::vector<std::vector<Kernel>> programs,
                         std::uint64_t seed)
    : name_(std::move(name)) {
  cores_.resize(programs.size());
  Addr max_end = 0;
  Addr min_base = ~Addr{0};
  for (std::size_t c = 0; c < programs.size(); ++c) {
    cores_[c].program = std::move(programs[c]);
    cores_[c].rng.Reseed(seed * 0x9e3779b97f4a7c15ULL + c + 1);
    for (Kernel& k : cores_[c].program) {
      k.refs = KernelRefCount(k);
      min_base = std::min(min_base, k.base);
      max_end = std::max(max_end, k.base + k.size);
      if (k.kind == Kernel::Kind::kScatterHot ||
          k.kind == Kernel::Kind::kSweepHot ||
          k.kind == Kernel::Kind::kDualSweep) {
        min_base = std::min(min_base, k.hot_base);
        max_end = std::max(max_end, k.hot_base + k.hot_size);
      }
    }
  }
  footprint_ = max_end > min_base ? max_end - min_base : 0;
}

std::uint64_t KernelTrace::KernelRefCount(const Kernel& k) {
  const std::uint64_t blocks_per_pass =
      std::max<std::uint64_t>(1, k.size / std::max<std::uint32_t>(1, k.stride));
  switch (k.kind) {
    case Kernel::Kind::kSweep:
      return blocks_per_pass * k.passes;
    case Kernel::Kind::kTiled: {
      const std::uint64_t tiles =
          std::max<std::uint64_t>(1, k.size / std::max<std::uint64_t>(
                                              k.tile_bytes, kBlockBytes));
      const std::uint64_t per_tile =
          std::max<std::uint64_t>(1, k.tile_bytes / k.stride) * k.tile_passes;
      return tiles * per_tile;
    }
    case Kernel::Kind::kHot:
    case Kernel::Kind::kScatter:
    case Kernel::Kind::kScatterHot:
      return k.refs;
    case Kernel::Kind::kSweepHot:
    case Kernel::Kind::kDualSweep: {
      // Enough references for `passes` cold sweeps plus the interleaved
      // hot traffic.
      const double cold = static_cast<double>(blocks_per_pass * k.passes);
      return static_cast<std::uint64_t>(cold / (1.0 - k.p_hot)) + 1;
    }
  }
  return 0;
}

bool KernelTrace::Next(std::uint32_t core, MemRef& out) {
  assert(core < cores_.size());
  CoreState& cs = cores_[core];
  while (cs.kernel_idx < cs.program.size()) {
    const Kernel& k = cs.program[cs.kernel_idx];
    if (cs.emitted < k.refs && EmitFromKernel(cs, k, out)) {
      cs.emitted++;
      return true;
    }
    cs.kernel_idx++;
    cs.emitted = 0;
    cs.cursor = 0;
    cs.pass = 0;
    cs.tile = 0;
  }
  return false;
}

bool KernelTrace::EmitFromKernel(CoreState& cs, const Kernel& k, MemRef& out) {
  Rng& rng = cs.rng;
  out.is_write = rng.Chance(k.write_frac);
  out.gap = JitterGap(rng, k.gap_mean);
  if (k.pause_every != 0 && cs.emitted != 0 &&
      cs.emitted % k.pause_every == 0) {
    // Compute stretch between memory bursts.
    out.gap += static_cast<std::uint32_t>(rng.Geometric(k.pause_cycles));
  }

  const std::uint64_t stride = std::max<std::uint32_t>(1, k.stride);
  switch (k.kind) {
    case Kernel::Kind::kSweep: {
      const std::uint64_t per_pass = std::max<std::uint64_t>(1, k.size / stride);
      out.addr = k.base + (cs.cursor % per_pass) * stride;
      cs.cursor++;
      return true;
    }
    case Kernel::Kind::kTiled: {
      const std::uint64_t tile_bytes =
          std::max<std::uint64_t>(k.tile_bytes, kBlockBytes);
      const std::uint64_t tiles = std::max<std::uint64_t>(1, k.size / tile_bytes);
      const std::uint64_t per_sweep =
          std::max<std::uint64_t>(1, tile_bytes / stride);
      const std::uint64_t per_tile = per_sweep * k.tile_passes;
      const std::uint64_t tile = (cs.cursor / per_tile) % tiles;
      const std::uint64_t within = cs.cursor % per_sweep;
      out.addr = k.base + tile * tile_bytes + within * stride;
      cs.cursor++;
      return true;
    }
    case Kernel::Kind::kHot: {
      const std::uint64_t blocks =
          std::max<std::uint64_t>(1, k.size / kBlockBytes);
      const std::uint64_t rank = rng.Zipf(blocks, k.zipf_s);
      out.addr = SpreadBlock(k.base, blocks, rank);
      return true;
    }
    case Kernel::Kind::kScatter: {
      const std::uint64_t blocks =
          std::max<std::uint64_t>(1, k.size / kBlockBytes);
      out.addr = k.base + rng.Below(blocks) * kBlockBytes;
      return true;
    }
    case Kernel::Kind::kScatterHot: {
      if (rng.Chance(k.p_hot)) {
        const std::uint64_t blocks =
            std::max<std::uint64_t>(1, k.hot_size / kBlockBytes);
        const std::uint64_t rank = rng.Zipf(blocks, k.zipf_s);
        out.addr = SpreadBlock(k.hot_base, blocks, rank);
      } else {
        const std::uint64_t blocks =
            std::max<std::uint64_t>(1, k.size / kBlockBytes);
        out.addr = k.base + rng.Below(blocks) * kBlockBytes;
      }
      return true;
    }
    case Kernel::Kind::kSweepHot: {
      if (rng.Chance(k.p_hot)) {
        const std::uint64_t blocks =
            std::max<std::uint64_t>(1, k.hot_size / kBlockBytes);
        const std::uint64_t rank = rng.Zipf(blocks, k.zipf_s);
        out.addr = SpreadBlock(k.hot_base, blocks, rank);
        if (k.hot_write_frac >= 0.0) {
          out.is_write = rng.Chance(k.hot_write_frac);
        }
      } else {
        const std::uint64_t per_pass =
            std::max<std::uint64_t>(1, k.size / stride);
        out.addr = k.base + (cs.cursor % per_pass) * stride;
        cs.cursor++;  // only cold references advance the sweep
      }
      return true;
    }
    case Kernel::Kind::kDualSweep: {
      if (rng.Chance(k.p_hot)) {
        const std::uint64_t hot_blocks =
            std::max<std::uint64_t>(1, k.hot_size / kBlockBytes);
        out.addr = k.hot_base + (cs.tile % hot_blocks) * kBlockBytes;
        cs.tile++;  // hot sweep wraps repeatedly -> uniform reuse counts
        if (k.hot_write_frac >= 0.0) {
          out.is_write = rng.Chance(k.hot_write_frac);
        }
      } else {
        const std::uint64_t per_pass =
            std::max<std::uint64_t>(1, k.size / stride);
        out.addr = k.base + (cs.cursor % per_pass) * stride;
        cs.cursor++;
      }
      return true;
    }
  }
  return false;
}

}  // namespace redcache
