// Figure 9: relative system execution time of every DRAM-cache
// architecture, normalized to Alloy Cache, for the 11 parallel workloads.
//
// Paper reference points (averages): RedCache 31% faster than Alloy and
// 24% faster than Bear; Red-InSitu 33%/26%; alpha alone contributes ~27%
// and gamma alone ~14%; RedCache reaches ~98% of Red-InSitu.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace redcache;
  using namespace redcache::bench;

  std::printf("Figure 9 — execution time normalized to Alloy Cache\n");
  std::printf("(lower is better; paper means: RedCache 0.69, Bear ~0.92,\n");
  std::printf(" Red-InSitu 0.67, Red-Alpha ~0.73, Red-Gamma ~0.86)\n\n");

  const auto means =
      PrintNormalizedToAlloy("fig9", [](const CellResult& r) {
        return static_cast<double>(r.exec_cycles);
      });
  const double red = means.at("RedCache");
  const double bear = means.at("Bear");
  const double insitu = means.at("Red-InSitu");
  const double alpha = means.at("Red-Alpha");
  const double gamma = means.at("Red-Gamma");
  std::printf("summary (measured vs paper):\n");
  std::printf("  RedCache vs Alloy: %.1f%% faster (paper 31%%)\n",
              (1.0 - red) * 100.0);
  std::printf("  RedCache vs Bear:  %.1f%% faster (paper 24%%)\n",
              (1.0 - red / bear) * 100.0);
  std::printf("  alpha-only gain:   %.1f%% (paper ~27%%)\n",
              (1.0 - alpha) * 100.0);
  std::printf("  gamma-only gain:   %.1f%% (paper ~14%%)\n",
              (1.0 - gamma) * 100.0);
  std::printf("  RedCache / Red-InSitu: %.1f%% (paper ~98%%)\n",
              insitu / red * 100.0);
  return 0;
}
