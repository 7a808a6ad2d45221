// Sampled-simulation speedup bench: one large evaluation cell run once in
// full detail, then through RunSampled at 1% / 5% / 10% sampling fractions.
// Reports wall-clock speedup (functional fast-forward + parallel replay vs.
// the detailed run), the run-length estimate's error against the detailed
// truth, and the estimator's own 95% CI. Writes results/BENCH_sampling.json.
// A diagnostic: perfbench's `sampled` workload is the tracked benchmark.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/sampling.hpp"

namespace {

using namespace redcache;
using namespace redcache::bench;

struct SamplePass {
  double fraction = 0;
  double seconds = 0;
  double speedup = 0;
  double est_cycles = 0;
  double error_pct = 0;
  double ci_pct = 0;
  std::uint64_t intervals = 0;
};

}  // namespace

int main(int argc, char** argv) {
  unsigned jobs = std::thread::hardware_concurrency();
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--jobs") {
      jobs = static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
  }
  if (jobs == 0) jobs = 1;

  // The largest single cell the figure benches run: RedCache on the radix
  // sort workload, whose irregular access mix exercises both cache levels.
  RunSpec spec;
  spec.policy = "RedCache";
  spec.workload = "RDX";
  spec.scale = EffectiveScale(0.5 * DefaultScale());
  spec.ignore_env_scale = true;  // scale already resolved above
  spec.preset = EvalPreset();

  std::printf("sampling_speedup — %s on %s, scale %.3f, jobs %u\n\n",
              spec.policy.c_str(), spec.workload.c_str(), spec.scale, jobs);

  const auto t_full = std::chrono::steady_clock::now();
  const RunResult full = RunOne(spec);
  const double full_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_full)
          .count();
  const auto actual = static_cast<double>(full.exec_cycles);
  std::printf("full detailed run: %llu cycles in %.2f s\n\n",
              static_cast<unsigned long long>(full.exec_cycles), full_seconds);

  const std::vector<double> fractions = {0.01, 0.05, 0.10};
  std::vector<SamplePass> passes;
  for (const double fraction : fractions) {
    SamplingOptions opts;
    opts.fraction = fraction;
    opts.interval_cycles = 20000;
    opts.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const SamplingEstimate est = RunSampled(spec, opts);
    SamplePass p;
    p.fraction = fraction;
    p.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    p.speedup = p.seconds > 0 ? full_seconds / p.seconds : 0;
    p.est_cycles = est.est_exec_cycles;
    p.error_pct =
        actual > 0 ? 100.0 * std::fabs(est.est_exec_cycles - actual) / actual
                   : 0;
    p.ci_pct = est.ci_pct;
    p.intervals = est.intervals;
    passes.push_back(p);
  }

  TextTable table({"fraction", "wall s", "speedup", "est cycles", "err %",
                   "ci %", "intervals"});
  for (const SamplePass& p : passes) {
    table.AddRow({TextTable::Num(100.0 * p.fraction, 0) + "%",
                  TextTable::Num(p.seconds, 2), TextTable::Num(p.speedup, 1),
                  TextTable::Num(p.est_cycles, 0), TextTable::Num(p.error_pct, 2),
                  TextTable::Num(p.ci_pct, 2), std::to_string(p.intervals)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::filesystem::create_directories("results");
  std::ofstream json("results/BENCH_sampling.json");
  json << "{\n"
       << "  \"bench\": \"sampling_speedup\",\n"
       << "  \"policy\": \"" << spec.policy << "\",\n"
       << "  \"workload\": \"" << spec.workload << "\",\n"
       << "  \"scale\": " << spec.scale << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"full_seconds\": " << full_seconds << ",\n"
       << "  \"full_exec_cycles\": " << full.exec_cycles << ",\n"
       << "  \"passes\": [\n";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const SamplePass& p = passes[i];
    json << "    {\"fraction\": " << p.fraction
         << ", \"seconds\": " << p.seconds << ", \"speedup\": " << p.speedup
         << ", \"est_exec_cycles\": " << p.est_cycles
         << ", \"error_pct\": " << p.error_pct << ", \"ci_pct\": " << p.ci_pct
         << ", \"intervals\": " << p.intervals << "}"
         << (i + 1 < passes.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::printf("wrote results/BENCH_sampling.json\n");

  // The point of sampling: on a run big enough to amortize the functional
  // pass, at least one fraction must clear 3x. Tiny REDCACHE_REFS_SCALE
  // runs are reported but not judged — there is nothing to amortize.
  if (full_seconds >= 1.0) {
    double best = 0;
    for (const SamplePass& p : passes) best = std::max(best, p.speedup);
    if (best < 3.0) {
      std::fprintf(stderr,
                   "FAIL: best sampled speedup %.2fx < 3x on a %.1f s "
                   "detailed run\n",
                   best, full_seconds);
      return 1;
    }
  }
  return 0;
}
