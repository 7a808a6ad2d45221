// Shared harness for the figure-reproduction benches.
//
// Cells run through the batch engine (src/sim/batch.hpp): a worker-pool
// sweep with an in-process memo (shared cells such as the Alloy baseline
// column simulate once) and, when REDCACHE_CACHE_DIR is set, a disk cache
// keyed by every input of the cell (CellKey) whose entries carry the build
// identity of the simulator sources — an entry from an older build or
// other preset re-simulates instead of silently serving wrong numbers.
//
// Typical figure structure:
//   RunCellsAhead(GridCells(policies, workloads), "fig9");  // parallel sweep
//   ... per-cell RunCell(...) calls then hit the in-process memo.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "dramcache/policy_registry.hpp"
#include "sim/batch.hpp"

namespace redcache::bench {

/// Workload scale used by all figure benches (overridable via
/// REDCACHE_REFS_SCALE, which multiplies on top).
inline double DefaultScale() { return 1.0; }

struct CellResult {
  Cycle exec_cycles = 0;
  StatSet stats;
  EnergyBreakdown energy;
};

/// Build the CellSpec for one figure cell. `variant` distinguishes
/// non-default configurations (e.g. fill granularity) in the cache key;
/// `custom_preset` may be customized to match.
inline CellSpec MakeCell(const std::string& policy, const std::string& workload,
                         double scale = DefaultScale(),
                         const std::string& variant = "",
                         const SimPreset* custom_preset = nullptr) {
  CellSpec cell;
  cell.spec.policy = policy;
  cell.spec.workload = workload;
  cell.spec.scale = scale;
  cell.spec.preset = custom_preset != nullptr ? *custom_preset : EvalPreset();
  cell.variant = variant;
  return cell;
}

/// Run one cell (memoized in-process; disk-cached under REDCACHE_CACHE_DIR).
inline CellResult RunCell(const std::string& policy,
                          const std::string& workload,
                          double scale = DefaultScale(),
                          const std::string& variant = "",
                          const SimPreset* custom_preset = nullptr) {
  const RunResult r =
      RunCellCached(MakeCell(policy, workload, scale, variant, custom_preset));
  CellResult out;
  out.exec_cycles = r.exec_cycles;
  out.stats = r.stats;
  out.energy = r.energy;
  return out;
}

/// Every (policy x workload) cell of a figure grid.
inline std::vector<CellSpec> GridCells(
    const std::vector<std::string>& policies,
    const std::vector<std::string>& workloads,
    double scale = DefaultScale()) {
  std::vector<CellSpec> cells;
  cells.reserve(policies.size() * workloads.size());
  for (const std::string& wl : workloads) {
    for (const std::string& p : policies) {
      cells.push_back(MakeCell(p, wl, scale));
    }
  }
  return cells;
}

/// Run a cell set through the worker pool ahead of time, so the per-cell
/// RunCell calls that build the figure tables hit the in-process memo.
inline void RunCellsAhead(const std::vector<CellSpec>& cells,
                          const std::string& label) {
  BatchOptions opts;
  opts.label = label;
  RunCells(cells, opts);
}

/// Workload filter from REDCACHE_WORKLOADS (comma separated labels).
inline std::vector<std::string> SelectedWorkloads() {
  const char* env = std::getenv("REDCACHE_WORKLOADS");
  if (env == nullptr) return WorkloadLabels();
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = env;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out.empty() ? WorkloadLabels() : out;
}

/// Geometric mean helper for "average" rows (ratios combine multiplicatively).
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// The Fig. 9-11 comparison: `metric` of every evaluation policy on every
/// selected workload, normalized to Alloy, printed as a table with a
/// geomean row. Returns each policy's geomean ratio.
inline std::map<std::string, double> PrintNormalizedToAlloy(
    const std::string& label,
    const std::function<double(const CellResult&)>& metric) {
  const auto workloads = SelectedWorkloads();
  const auto& policies = EvaluationPolicies();
  RunCellsAhead(GridCells(policies, workloads), label);

  std::vector<std::string> header = {"workload"};
  header.insert(header.end(), policies.begin(), policies.end());
  TextTable table(header);
  std::map<std::string, std::vector<double>> ratios;
  for (const std::string& wl : workloads) {
    const double alloy = metric(RunCell("Alloy", wl));
    std::vector<std::string> row = {wl};
    for (const std::string& p : policies) {
      ratios[p].push_back(metric(RunCell(p, wl)) / alloy);
      row.push_back(TextTable::Num(ratios[p].back(), 3));
    }
    table.AddRow(std::move(row));
  }
  std::map<std::string, double> means;
  std::vector<std::string> mean_row = {"geomean"};
  for (const std::string& p : policies) {
    means[p] = GeoMean(ratios[p]);
    mean_row.push_back(TextTable::Num(means[p], 3));
  }
  table.AddRow(std::move(mean_row));
  std::printf("%s\n", table.Render().c_str());
  return means;
}

}  // namespace redcache::bench
