// Figure 10: HBM (DRAM cache) energy of every architecture normalized to
// Alloy Cache for the 11 parallel workloads.
//
// Paper reference points: RedCache improves HBM cache energy by 42% over
// Alloy and 37% over Bear; RedCache even beats Red-InSitu slightly because
// it performs no computation inside the HBM dies.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace redcache;
  using namespace redcache::bench;

  std::printf("Figure 10 — HBM cache energy normalized to Alloy Cache\n");
  std::printf("(lower is better; paper means: RedCache 0.58 vs Alloy,\n");
  std::printf(" 0.63 vs Bear)\n\n");

  const auto means = PrintNormalizedToAlloy(
      "fig10", [](const CellResult& r) { return r.energy.HbmCacheNj(); });
  const double red = means.at("RedCache");
  const double bear = means.at("Bear");
  const double insitu = means.at("Red-InSitu");
  std::printf("summary (measured vs paper):\n");
  std::printf("  RedCache HBM energy vs Alloy: -%.1f%% (paper -42%%)\n",
              (1.0 - red) * 100.0);
  std::printf("  RedCache HBM energy vs Bear:  -%.1f%% (paper -37%%)\n",
              (1.0 - red / bear) * 100.0);
  std::printf("  RedCache vs Red-InSitu: %s (paper: RedCache slightly "
              "better — no in-DRAM compute)\n",
              red <= insitu ? "better" : "worse");
  return 0;
}
