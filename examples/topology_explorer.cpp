// Topology explorer: reproduce the paper's Fig. 1/2(a) design-space walk on
// one workload — No-HBM vs IDEAL vs a real HBM cache vs RedCache — showing
// where the bandwidth goes on each interface.
//
//   ./build/examples/topology_explorer [workload] [scale]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace redcache;

  const std::string workload = argc > 1 ? argv[1] : "FT";
  const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

  std::printf("Topology explorer: %s (scale %.2f)\n", workload.c_str(),
              scale);
  std::printf("%s\n\n", WorkloadDescription(workload).c_str());

  TextTable table({"topology", "exec (Mcycles)", "speedup vs No-HBM",
                   "WideIO GB", "DDRx GB", "WideIO busy", "DDRx busy"});

  double base_exec = 0;
  for (const std::string policy :
       {"No-HBM", "IDEAL", "Alloy", "Bear", "RedCache"}) {
    RunSpec spec;
    spec.policy = policy;
    spec.workload = workload;
    spec.scale = scale;
    const RunResult r = RunOne(spec);
    if (policy == "No-HBM") base_exec = static_cast<double>(r.exec_cycles);

    const double hbm_busy =
        static_cast<double>(r.stats.GetCounter("hbm.data_busy_cycles")) /
        (static_cast<double>(r.exec_cycles) *
         spec.preset.mem.hbm.geometry.channels);
    const double ddr_busy =
        static_cast<double>(r.stats.GetCounter("ddr4.data_busy_cycles")) /
        (static_cast<double>(r.exec_cycles) *
         spec.preset.mem.mainmem.geometry.channels);
    table.AddRow({
        policy,
        TextTable::Num(static_cast<double>(r.exec_cycles) / 1e6, 1),
        TextTable::Num(base_exec / static_cast<double>(r.exec_cycles), 2) +
            "x",
        TextTable::Num(static_cast<double>(r.HbmBytes()) / 1e9, 3),
        TextTable::Num(static_cast<double>(r.MmBytes()) / 1e9, 3),
        TextTable::Pct(hbm_busy),
        TextTable::Pct(ddr_busy),
    });
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading the table: IDEAL bounds what in-package bandwidth can buy;\n"
      "the gap between Alloy and IDEAL is what block transfers between the\n"
      "memories cost; RedCache narrows that gap by refusing to move data\n"
      "that will not pay for itself.\n");
  return 0;
}
