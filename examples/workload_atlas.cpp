// Workload atlas: characterize every Table II workload's memory behaviour
// (the profile RedCache's mechanisms key on) without running any cache —
// useful when porting the suite or adding new synthetic applications.
//
//   ./build/examples/workload_atlas [scale]
#include <cstdio>
#include <cstdlib>

#include "common/table.hpp"
#include "sim/runner.hpp"
#include "workloads/profiler.hpp"

int main(int argc, char** argv) {
  using namespace redcache;

  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  std::printf("Workload atlas (No-HBM profile, scale %.2f)\n\n", scale);

  TextTable table({"label", "mem requests (M)", "distinct blocks (K)",
                   "mean block reuse", "p90 reuse", "last-access=WB"});

  for (const std::string& wl : WorkloadLabels()) {
    RunSpec spec;
    spec.policy = "No-HBM";
    spec.workload = wl;
    spec.scale = scale;
    auto system = BuildSystem(spec);
    BlockProfiler profiler;
    system->SetRequestObserver(
        [&](Addr addr, bool is_wb) { profiler.OnRequest(addr, is_wb); });
    (void)system->Run();

    // Reuse distribution stats from the homo-reuse groups.
    const auto groups = profiler.Groups(1);
    double mean = 0;
    std::uint64_t blocks = 0;
    for (const auto& g : groups) {
      mean += static_cast<double>(g.reuses) * static_cast<double>(g.blocks);
      blocks += g.blocks;
    }
    mean /= std::max<std::uint64_t>(1, blocks);
    std::uint64_t acc = 0;
    std::uint32_t p90 = 0;
    for (const auto& g : groups) {
      acc += g.blocks;
      if (10 * acc >= 9 * blocks) {
        p90 = g.reuses;
        break;
      }
    }

    table.AddRow({
        wl,
        TextTable::Num(static_cast<double>(profiler.total_requests()) / 1e6,
                       2),
        TextTable::Num(static_cast<double>(profiler.distinct_blocks()) / 1e3,
                       0),
        TextTable::Num(mean, 1),
        std::to_string(p90),
        TextTable::Pct(profiler.LastAccessWritebackFraction()),
    });
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "mean/p90 reuse show each workload's homo-reuse structure; the\n"
      "last-access-writeback column is the signal gamma counting exploits\n"
      "(the paper reports >82%% for its suite).\n");
  return 0;
}
