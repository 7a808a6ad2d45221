// Figure 3: off-chip bandwidth cost versus number of block reuses
// (homo-reuse groups) for LU, MG, RDX and HIST under the No-HBM system,
// plus the Fig. 4 L/H/X classification demonstration.
//
// Paper reference shapes: LU/MG/RDX concentrate their bandwidth cost in a
// narrow band of mid-to-high reuse counts; HIST is dominated by a spike at
// very low reuse counts. (Our reuse axis is scaled down together with the
// capacities; see DESIGN.md.)
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "workloads/profiler.hpp"

namespace {

using namespace redcache;
using namespace redcache::bench;

struct ProfileData {
  std::uint64_t total_requests = 0;
  std::uint64_t distinct_blocks = 0;
  std::vector<BlockProfiler::ReuseGroup> groups;
};

ProfileData RunProfile(const std::string& wl) {
  RunSpec spec;
  spec.policy = "No-HBM";
  spec.workload = wl;
  spec.preset = EvalPreset();
  auto system = BuildSystem(spec);
  BlockProfiler profiler;
  system->SetRequestObserver([&](Addr addr, bool is_wb) {
    profiler.OnRequest(addr, is_wb);
  });
  (void)system->Run();
  ProfileData out;
  out.total_requests = profiler.total_requests();
  out.distinct_blocks = profiler.distinct_blocks();
  out.groups = profiler.Groups(/*bucket=*/2);
  return out;
}

void PrintProfile(const std::string& wl, const ProfileData& data) {
  std::printf("-- %s: %llu requests over %llu distinct blocks --\n",
              wl.c_str(),
              static_cast<unsigned long long>(data.total_requests),
              static_cast<unsigned long long>(data.distinct_blocks));

  const auto& groups = data.groups;
  // Render an ASCII version of the Fig. 3 scatter: bandwidth-cost share per
  // homo-reuse bucket.
  double max_share = 0;
  for (const auto& g : groups) max_share = std::max(max_share, g.cost_share);
  TextTable table({"reuses", "blocks", "bandwidth cost share", ""});
  for (const auto& g : groups) {
    if (g.cost_share < 0.002) continue;  // de-clutter the tail
    const int bars =
        static_cast<int>(g.cost_share / std::max(1e-12, max_share) * 40);
    table.AddRow({std::to_string(g.reuses) + "-" + std::to_string(g.reuses + 1),
                  std::to_string(g.blocks), TextTable::Pct(g.cost_share),
                  std::string(static_cast<std::size_t>(bars), '#')});
  }
  std::printf("%s", table.Render().c_str());

  // Fig. 4 demonstration: classify homo-reuse groups with a static alpha
  // (min reuses) and gamma (bandwidth-significance threshold).
  const std::uint32_t alpha = 2;
  double h_cost = 0, x_cost = 0, l_cost = 0;
  std::uint64_t h_blocks = 0, x_blocks = 0, l_blocks = 0;
  // Gamma herein: a group is "bandwidth hungry" (H) if its cost share is
  // above the mean share of qualifying groups.
  double qualifying_cost = 0;
  std::uint64_t qualifying_groups = 0;
  for (const auto& g : groups) {
    if (g.reuses >= alpha) {
      qualifying_cost += g.cost_share;
      qualifying_groups++;
    }
  }
  const double gamma_threshold =
      qualifying_groups == 0 ? 0 : qualifying_cost / qualifying_groups;
  for (const auto& g : groups) {
    if (g.reuses < alpha) {
      l_cost += g.cost_share;
      l_blocks += g.blocks;
    } else if (g.cost_share >= gamma_threshold) {
      h_cost += g.cost_share;
      h_blocks += g.blocks;
    } else {
      x_cost += g.cost_share;
      x_blocks += g.blocks;
    }
  }
  std::printf(
      "Fig.4 classification (alpha=%u): L(low-reuse, bypass)=%llu blocks / "
      "%.0f%% of cost; H(hungry, cache)=%llu / %.0f%%; X(secondary)=%llu / "
      "%.0f%%\n\n",
      alpha, static_cast<unsigned long long>(l_blocks), l_cost * 100,
      static_cast<unsigned long long>(h_blocks), h_cost * 100,
      static_cast<unsigned long long>(x_blocks), x_cost * 100);
}

}  // namespace

int main() {
  std::printf("Figure 3 — off-chip bandwidth cost vs block reuses "
              "(No-HBM system)\n\n");
  const std::vector<std::string> wls = {"LU", "MG", "RDX", "HIST"};
  std::vector<ProfileData> profiles(wls.size());
  // The four profiling runs are independent; fan them out, print in order.
  ParallelFor(wls.size(), 0,
              [&](std::size_t i) { profiles[i] = RunProfile(wls[i]); });
  for (std::size_t i = 0; i < wls.size(); ++i) {
    PrintProfile(wls[i], profiles[i]);
  }
  std::printf(
      "expected shapes (paper): LU/MG/RDX concentrate cost in narrow\n"
      "mid/high-reuse bands; HIST is dominated by a low-reuse spike.\n");
  return 0;
}
