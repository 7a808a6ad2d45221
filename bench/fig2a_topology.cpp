// Figure 2(a): bandwidth efficiency of the three system topologies —
// No-HBM (off-chip only), IDEAL (perfect HBM cache) and a real HBM cache
// (Alloy) — averaged across the workloads and normalized to No-HBM.
//
// Paper reference points: IDEAL consumes ~6x the No-HBM aggregate bandwidth
// while moving ~1.33x the data and running ~4.5x faster; the real HBM cache
// uses slightly more bandwidth than IDEAL, moves considerably more data
// (block transfers between the memories), and loses ~40% performance
// against IDEAL.
#include <cstdio>
#include <map>

#include "bench_util.hpp"

int main() {
  using namespace redcache;
  using namespace redcache::bench;

  const auto workloads = SelectedWorkloads();
  const std::vector<std::string> topologies = {"No-HBM", "IDEAL", "Alloy"};
  RunCellsAhead(
      GridCells(topologies, workloads),
      "fig2a");

  std::printf("Figure 2(a) — system-topology bandwidth efficiency\n");
  std::printf("(normalized to No-HBM; paper: IDEAL ~6x bandwidth / ~1.33x\n");
  std::printf(" data / ~4.5x speed; HBM cache ~40%% slower than IDEAL)\n\n");

  struct Point {
    std::vector<double> bandwidth, data, speed;
  };
  std::map<std::string, Point> points;

  for (const std::string& wl : workloads) {
    const CellResult base = RunCell("No-HBM", wl);
    const double base_bw = static_cast<double>(base.stats.GetCounter(
                               "ddr4.bytes_transferred")) /
                           static_cast<double>(base.exec_cycles);
    const double base_bytes = static_cast<double>(
        base.stats.GetCounter("ddr4.bytes_transferred"));
    for (const std::string& a : topologies) {
      const CellResult r = a == "No-HBM" ? base : RunCell(a, wl);
      const double bytes =
          static_cast<double>(r.stats.GetCounter("hbm.bytes_transferred") +
                              r.stats.GetCounter("ddr4.bytes_transferred"));
      const double bw = bytes / static_cast<double>(r.exec_cycles);
      points[a].bandwidth.push_back(bw / base_bw);
      points[a].data.push_back(bytes / base_bytes);
      points[a].speed.push_back(static_cast<double>(base.exec_cycles) /
                                static_cast<double>(r.exec_cycles));
    }
  }

  TextTable table({"topology", "rel. WideIO+DDRx bandwidth",
                   "rel. transferred data", "speedup vs No-HBM",
                   "paper (bw/data/speed)"});
  const char* paper[] = {"1.00 / 1.00 / 1.0", "~6 / ~1.33 / ~4.5",
                         "~6+ / ~2 / ~2.7"};
  int i = 0;
  for (const std::string& a : topologies) {
    table.AddRow({a, TextTable::Num(GeoMean(points[a].bandwidth), 2),
                  TextTable::Num(GeoMean(points[a].data), 2),
                  TextTable::Num(GeoMean(points[a].speed), 2), paper[i++]});
  }
  std::printf("%s\n", table.Render().c_str());

  const double ideal_speed = GeoMean(points["IDEAL"].speed);
  const double hbm_speed = GeoMean(points["Alloy"].speed);
  std::printf("HBM cache loses %.1f%% performance vs IDEAL (paper ~40%%)\n",
              (1.0 - hbm_speed / ideal_speed) * 100.0);
  return 0;
}
