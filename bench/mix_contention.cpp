// Multi-tenant contention matrix: every Table II workload pair co-scheduled
// as a 2-tenant mix under RedCache, reporting each tenant's slowdown versus
// its solo run; plus one 4-tenant mix (FT+RDX+LU+HIST) across every sweep
// policy. Writes results/MIX_contention.json for trend tracking.
//
// The matrix row is the victim, the column the co-runner: cell (i, j) is
// workload i's slowdown when sharing the memory system with workload j.
// Each unordered pair simulates once (tenant0 fills (i, j), tenant1 fills
// (j, i)); solos and mixes all go through the batch cache.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_util.hpp"

namespace {

using namespace redcache;
using namespace redcache::bench;

/// A co-scheduled mix cell (equal weights, offset placement — the planner
/// default the CLI uses).
CellSpec MixCell(const std::string& policy,
                 const std::vector<std::string>& labels, double scale) {
  CellSpec cell;
  cell.spec.policy = policy;
  cell.spec.scale = scale;
  cell.spec.preset = EvalPreset();
  std::string joined;
  for (const std::string& l : labels) {
    tenant::TenantSpec t;
    t.workload = l;
    cell.spec.mix.tenants.push_back(t);
    if (!joined.empty()) joined += "+";
    joined += l;
  }
  // Ignored by the run (the mix replaces it) but keeps cache keys and
  // progress lines readable.
  cell.spec.workload = joined;
  return cell;
}

}  // namespace

int main() {
  const double scale = DefaultScale();
  const std::vector<std::string> workloads = SelectedWorkloads();
  const std::size_t n = workloads.size();

  // Phase 1: RedCache solos (the slowdown denominators) and all unordered
  // pairs, dispatched together through the worker pool.
  std::vector<CellSpec> cells;
  for (const std::string& wl : workloads) {
    CellSpec solo;
    solo.spec.policy = "RedCache";
    solo.spec.workload = wl;
    solo.spec.scale = scale;
    solo.spec.preset = EvalPreset();
    cells.push_back(std::move(solo));
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      pairs.emplace_back(i, j);
      cells.push_back(MixCell("RedCache", {workloads[i], workloads[j]}, scale));
    }
  }
  BatchOptions opts;
  opts.label = "mix";
  const std::vector<RunResult> results = RunCells(cells, opts);

  std::vector<std::uint64_t> solo_cycles(n);
  for (std::size_t i = 0; i < n; ++i) {
    solo_cycles[i] = results[i].exec_cycles;
  }

  // slowdown[i][j]: workload i's slowdown when paired with workload j.
  std::vector<std::vector<double>> slowdown(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> hit(n, std::vector<double>(n, 0.0));
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [i, j] = pairs[p];
    const RunResult& r = results[n + p];
    const auto rows = tenant::QosFromStats(r.stats);
    if (rows.size() != 2) {
      std::fprintf(stderr, "FAIL: %s+%s exported %zu tenant rows, want 2\n",
                   workloads[i].c_str(), workloads[j].c_str(), rows.size());
      return 1;
    }
    slowdown[i][j] = static_cast<double>(rows[0].finish_cycles) /
                     static_cast<double>(solo_cycles[i]);
    slowdown[j][i] = static_cast<double>(rows[1].finish_cycles) /
                     static_cast<double>(solo_cycles[j]);
    hit[i][j] = rows[0].hit_rate();
    hit[j][i] = rows[1].hit_rate();
  }

  std::printf("Table II x Table II contention matrix — RedCache, scale %.2f\n",
              scale);
  std::printf("(row = victim's slowdown vs solo when co-run with column)\n\n");
  std::vector<std::string> header = {"victim \\ co-runner"};
  for (const std::string& wl : workloads) header.push_back(wl);
  TextTable table(header);
  std::vector<double> worst(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> row = {workloads[i]};
    for (std::size_t j = 0; j < n; ++j) {
      row.push_back(TextTable::Num(slowdown[i][j], 2));
      worst[i] = std::max(worst[i], slowdown[i][j]);
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("  %s worst-case slowdown: %.2fx\n", workloads[i].c_str(),
                worst[i]);
  }

  // Phase 2: one heterogeneous 4-tenant mix across every sweep policy.
  const std::vector<std::string> four = {"FT", "RDX", "LU", "HIST"};
  const std::vector<std::string> policies = DefaultSweepPolicies();
  std::vector<CellSpec> four_cells;
  for (const std::string& p : policies) {
    four_cells.push_back(MixCell(p, four, scale));
  }
  BatchOptions fopts;
  fopts.label = "mix4";
  const std::vector<RunResult> four_results = RunCells(four_cells, fopts);

  std::printf("\n4-tenant mix (FT+RDX+LU+HIST) across sweep policies:\n\n");
  std::vector<std::string> fheader = {"policy", "Mcycles"};
  for (const std::string& wl : four) fheader.push_back(wl + " hit");
  TextTable ftable(fheader);
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const RunResult& r = four_results[p];
    const auto rows = tenant::QosFromStats(r.stats);
    std::vector<std::string> row = {
        policies[p],
        TextTable::Num(static_cast<double>(r.exec_cycles) / 1e6, 1)};
    for (std::size_t t = 0; t < four.size(); ++t) {
      row.push_back(t < rows.size() ? TextTable::Pct(rows[t].hit_rate())
                                    : "-");
    }
    ftable.AddRow(std::move(row));
  }
  std::printf("%s\n", ftable.Render().c_str());

  std::filesystem::create_directories("results");
  std::ofstream json("results/MIX_contention.json");
  json << "{\n"
       << "  \"bench\": \"mix_contention\",\n"
       << "  \"policy\": \"RedCache\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"pairs\": [\n";
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [i, j] = pairs[p];
    json << "    {\"a\": \"" << workloads[i] << "\", \"b\": \"" << workloads[j]
         << "\", \"slowdown_a\": " << slowdown[i][j]
         << ", \"slowdown_b\": " << slowdown[j][i]
         << ", \"hit_a\": " << hit[i][j] << ", \"hit_b\": " << hit[j][i]
         << "}" << (p + 1 < pairs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"four_tenant\": [\n";
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const auto rows = tenant::QosFromStats(four_results[p].stats);
    json << "    {\"policy\": \"" << policies[p]
         << "\", \"exec_cycles\": " << four_results[p].exec_cycles
         << ", \"tenants\": [";
    for (std::size_t t = 0; t < rows.size(); ++t) {
      json << "{\"label\": \"" << (t < four.size() ? four[t] : "?")
           << "\", \"hit_rate\": " << rows[t].hit_rate()
           << ", \"hbm_share\": " << tenant::HbmShare(rows, rows[t])
           << ", \"refs\": " << rows[t].refs << "}"
           << (t + 1 < rows.size() ? ", " : "");
    }
    json << "]}" << (p + 1 < policies.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::printf("wrote results/MIX_contention.json\n");
  return 0;
}
