// Figure 11: total system energy of every architecture normalized to Alloy
// Cache for the 11 parallel workloads.
//
// Paper reference points: RedCache improves system energy by 29% over
// Alloy and 18% over Bear; Red-InSitu reaches 33% over Alloy.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace redcache;
  using namespace redcache::bench;

  std::printf("Figure 11 — system energy normalized to Alloy Cache\n");
  std::printf("(lower is better; paper means: RedCache 0.71 vs Alloy,\n");
  std::printf(" 0.82 vs Bear; Red-InSitu 0.67 vs Alloy)\n\n");

  const auto means = PrintNormalizedToAlloy(
      "fig11", [](const CellResult& r) { return r.energy.SystemNj(); });
  const double red = means.at("RedCache");
  const double bear = means.at("Bear");
  const double insitu = means.at("Red-InSitu");
  std::printf("summary (measured vs paper):\n");
  std::printf("  RedCache system energy vs Alloy: -%.1f%% (paper -29%%)\n",
              (1.0 - red) * 100.0);
  std::printf("  RedCache system energy vs Bear:  -%.1f%% (paper -18%%)\n",
              (1.0 - red / bear) * 100.0);
  std::printf("  Red-InSitu vs Alloy: -%.1f%% (paper -33%%)\n",
              (1.0 - insitu) * 100.0);
  return 0;
}
