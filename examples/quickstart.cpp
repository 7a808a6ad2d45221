// Quickstart: run one workload on Alloy and RedCache and compare.
//
//   ./build/examples/quickstart [workload] [scale]
//
// Demonstrates the three-line public API: pick an architecture, pick a
// workload, run, read the metrics.
#include <cstdio>
#include <string>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace redcache;

  // Scale 1.0 is the calibrated evaluation regime (takes a minute or two);
  // pass a smaller scale for a fast smoke run.
  const std::string workload = argc > 1 ? argv[1] : "RDX";
  double scale = 1.0;
  if (argc > 2 && !ParseNumber(argv[2], 1e-6, 1e6, scale)) {
    std::fprintf(stderr, "usage: %s [workload] [scale in [1e-6, 1e6]]\n",
                 argv[0]);
    return 2;
  }

  std::printf("RedCache quickstart: workload %s (%s), scale %.2f\n\n",
              workload.c_str(), WorkloadDescription(workload).c_str(), scale);

  TextTable table({"architecture", "exec cycles", "speedup vs Alloy",
                   "HBM hit rate", "HBM GB moved", "DDR4 GB moved",
                   "system energy (mJ)"});

  double alloy_cycles = 0;
  for (const std::string policy : {"Alloy", "Bear", "RedCache"}) {
    RunSpec spec;
    spec.policy = policy;
    spec.workload = workload;
    spec.scale = scale;
    const RunResult r = RunOne(spec);

    const auto hits = r.stats.GetCounter("ctrl.cache_hits");
    const auto misses = r.stats.GetCounter("ctrl.cache_misses");
    const double hit_rate =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
    if (policy == "Alloy") {
      alloy_cycles = static_cast<double>(r.exec_cycles);
    }
    table.AddRow({
        policy,
        std::to_string(r.exec_cycles),
        TextTable::Num(alloy_cycles / static_cast<double>(r.exec_cycles), 2) +
            "x",
        TextTable::Pct(hit_rate),
        TextTable::Num(static_cast<double>(r.HbmBytes()) / 1e9, 3),
        TextTable::Num(static_cast<double>(r.MmBytes()) / 1e9, 3),
        TextTable::Num(r.energy.SystemNj() / 1e6, 2),
    });
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "RedCache should finish faster than both baselines by caching only\n"
      "bandwidth-hungry blocks (alpha), evicting on last writes (gamma)\n"
      "and hiding r-count update traffic (RCU).\n");
  return 0;
}
