// Ablations and in-text claims of the paper:
//  * §II-C  — ">82% of the last accesses to cache blocks are writebacks"
//  * §III-A1 — "~90% of blocks inside a page fall into the [0,1) reuse
//              std-dev bin, 6% into [1,2)" (justifies page-shared alpha)
//  * §III-C — RCU drain-condition statistics and the 6.375x latency factor
//  * static-alpha sweep — what the adaptive controller competes against
#include <cstdio>

#include "bench_util.hpp"
#include "workloads/profiler.hpp"

namespace {

using namespace redcache;
using namespace redcache::bench;

void LastWriteAndUniformity() {
  std::printf("== last-access and page-uniformity claims ==\n");
  TextTable table({"workload", "last access = writeback", "blocks in [0,1) "
                   "sigma", "[1,2) sigma"});
  double wb_sum = 0, one_sum = 0, two_sum = 0;
  const auto workloads = SelectedWorkloads();
  struct Claim {
    double wb = 0, within_one = 0, within_two = 0;
  };
  std::vector<Claim> claims(workloads.size());
  // Profiling runs are independent per workload; fan out, print in order.
  ParallelFor(workloads.size(), 0, [&](std::size_t i) {
    RunSpec spec;
    spec.policy = "No-HBM";
    spec.workload = workloads[i];
    spec.preset = EvalPreset();
    auto system = BuildSystem(spec);
    BlockProfiler profiler;
    system->SetRequestObserver(
        [&](Addr addr, bool is_wb) { profiler.OnRequest(addr, is_wb); });
    (void)system->Run();
    claims[i].wb = profiler.LastAccessWritebackFraction();
    const auto uni = profiler.PageReuseUniformity();
    claims[i].within_one = uni.within_one;
    claims[i].within_two = uni.within_two;
  });
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Claim& c = claims[i];
    wb_sum += c.wb;
    one_sum += c.within_one;
    two_sum += c.within_two;
    table.AddRow({workloads[i], TextTable::Pct(c.wb),
                  TextTable::Pct(c.within_one), TextTable::Pct(c.within_two)});
  }
  const double n = static_cast<double>(workloads.size());
  table.AddRow({"mean", TextTable::Pct(wb_sum / n),
                TextTable::Pct(one_sum / n), TextTable::Pct(two_sum / n)});
  std::printf("%s", table.Render().c_str());
  std::printf("paper: >82%% writebacks; ~90%% within [0,1) sigma, 6%% in "
              "[1,2)\n\n");
}

void RcuStatistics() {
  std::printf("== RCU manager statistics (paper SIII-C) ==\n");
  const DramTimingParams t = HbmCacheConfig().timing;
  std::printf("latency reduction factor (tBL+tCWD+tWTR)/tCCD = %.3f "
              "(paper 6.375)\n",
              static_cast<double>(t.tBL + t.tCWD + t.tWTR) /
                  static_cast<double>(t.tCCD));
  TextTable table({"workload", "parked updates", "merged (cond.1)",
                   "idle (cond.2)", "capacity (cond.3)",
                   "deferred past insert"});
  RunCellsAhead(GridCells({"RedCache"}, SelectedWorkloads()),
                "ablation-rcu");
  for (const std::string& wl : SelectedWorkloads()) {
    const CellResult r = RunCell("RedCache", wl);
    const double inserts =
        static_cast<double>(r.stats.GetCounter("ctrl.rcu_inserts"));
    if (inserts == 0) {
      table.AddRow({wl, "0", "-", "-", "-", "-"});
      continue;
    }
    const double merged =
        static_cast<double>(r.stats.GetCounter("ctrl.rcu_merged_flushes"));
    const double idle =
        static_cast<double>(r.stats.GetCounter("ctrl.rcu_idle_flushes"));
    const double cap =
        static_cast<double>(r.stats.GetCounter("ctrl.rcu_capacity_flushes"));
    // "Deferred" = updates that were parked rather than served the moment
    // they arrived (the paper claims >97% see no immediately-true
    // condition; every insert is deferred by construction, and the split
    // below shows how they eventually drained).
    table.AddRow({wl, std::to_string(static_cast<std::uint64_t>(inserts)),
                  TextTable::Pct(merged / inserts),
                  TextTable::Pct(idle / inserts),
                  TextTable::Pct(cap / inserts), "100%"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("paper: >97%% of updates see none of the drain conditions at "
              "insert time\n\n");
}

void StaticAlphaSweep() {
  std::printf("== static-alpha ablation (adaptive controller reference) ==\n");
  TextTable table({"alpha", "FT exec (Mcycles)", "LU exec (Mcycles)",
                   "RDX exec (Mcycles)"});
  const std::vector<std::string> wls = {"FT", "LU", "RDX"};
  constexpr std::uint32_t kMaxAlpha = 3;
  // One pinned-alpha RedCache cell per (alpha, workload) pair.
  std::vector<CellSpec> cells;
  for (std::uint32_t alpha = 1; alpha <= kMaxAlpha; ++alpha) {
    for (const std::string& wl : wls) {
      cells.push_back(MakeCell("RedCache", wl));
      cells.back().spec.alpha_pin = alpha;
    }
  }
  BatchOptions opts;
  opts.label = "static-alpha";
  const std::vector<RunResult> results = RunCells(cells, opts);
  for (std::uint32_t alpha = 1; alpha <= kMaxAlpha; ++alpha) {
    std::vector<std::string> row = {std::to_string(alpha)};
    for (std::size_t w = 0; w < wls.size(); ++w) {
      const Cycle exec = results[(alpha - 1) * wls.size() + w].exec_cycles;
      row.push_back(TextTable::Num(static_cast<double>(exec) / 1e6, 1));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace

int main() {
  LastWriteAndUniformity();
  RcuStatistics();
  StaticAlphaSweep();
  return 0;
}
