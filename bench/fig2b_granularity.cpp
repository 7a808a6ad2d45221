// Figure 2(b): impact of the fill granularity (64 B / 128 B / 256 B cache
// lines) on bandwidth efficiency, on the Alloy-style HBM cache, normalized
// to the 64 B configuration.
//
// Paper reference points: going from 64 B to 128 B / 256 B improves hit
// rate by ~12% / ~21% on average but moves far more data and degrades
// performance by 8-24%.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "dramcache/alloy.hpp"

namespace {

using namespace redcache;
using namespace redcache::bench;

struct GranResult {
  double hit_rate = 0;
  double bytes = 0;
  double bandwidth = 0;
  double exec = 0;
};

CellSpec GranularityCell(const std::string& wl, std::uint32_t line_blocks) {
  SimPreset preset = EvalPreset();
  preset.mem.line_blocks = line_blocks;
  return MakeCell("Alloy", wl, DefaultScale(),
                  "gran" + std::to_string(line_blocks), &preset);
}

GranResult RunGranularity(const std::string& wl, std::uint32_t line_blocks) {
  const RunResult run = RunCellCached(GranularityCell(wl, line_blocks));
  CellResult r;
  r.exec_cycles = run.exec_cycles;
  r.stats = run.stats;
  GranResult out;
  const auto hits = r.stats.GetCounter("ctrl.cache_hits");
  const auto misses = r.stats.GetCounter("ctrl.cache_misses");
  out.hit_rate = hits + misses == 0
                     ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(hits + misses);
  out.bytes = static_cast<double>(
      r.stats.GetCounter("hbm.bytes_transferred") +
      r.stats.GetCounter("ddr4.bytes_transferred"));
  out.exec = static_cast<double>(r.exec_cycles);
  out.bandwidth = out.bytes / out.exec;
  return out;
}

}  // namespace

int main() {
  const auto workloads = SelectedWorkloads();
  const std::uint32_t grans[] = {1, 2, 4};  // 64 B, 128 B, 256 B
  {
    std::vector<CellSpec> cells;
    for (const std::string& wl : workloads) {
      for (const std::uint32_t g : grans) {
        cells.push_back(GranularityCell(wl, g));
      }
    }
    RunCellsAhead(cells, "fig2b");
  }

  std::printf("Figure 2(b) — fill-granularity study on the Alloy HBM cache\n");
  std::printf("(normalized to 64 B; paper: hit rate +12%%/+21%%, data and\n");
  std::printf(" bandwidth grow sharply, performance -8..-24%%)\n\n");

  std::vector<double> hit_gain[3], data_ratio[3], speed_ratio[3];
  for (const std::string& wl : workloads) {
    GranResult base;
    for (int g = 0; g < 3; ++g) {
      const GranResult r = RunGranularity(wl, grans[g]);
      if (g == 0) base = r;
      hit_gain[g].push_back(r.hit_rate / std::max(1e-9, base.hit_rate));
      data_ratio[g].push_back(r.bytes / base.bytes);
      speed_ratio[g].push_back(base.exec / r.exec);
    }
  }

  TextTable table({"granularity", "rel. hit rate", "rel. transferred data",
                   "rel. performance", "paper"});
  const char* paper[] = {"1.00 / 1.00 / 1.00", "+12% hits, perf -8..-24%",
                         "+21% hits, perf -8..-24%"};
  const char* names[] = {"64B", "128B", "256B"};
  for (int g = 0; g < 3; ++g) {
    table.AddRow({names[g], TextTable::Num(GeoMean(hit_gain[g]), 3),
                  TextTable::Num(GeoMean(data_ratio[g]), 3),
                  TextTable::Num(GeoMean(speed_ratio[g]), 3), paper[g]});
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}
