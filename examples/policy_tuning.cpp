// Policy tuning: sweep static alpha / gamma settings against the adaptive
// controller on one workload — the experiment an architect would run before
// taping out threshold registers.
//
//   ./build/examples/policy_tuning [workload] [scale]
#include <cstdio>
#include <optional>
#include <string>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace redcache;

  const std::string workload = argc > 1 ? argv[1] : "LU";
  double scale = 1.0;
  if (argc > 2 && !ParseNumber(argv[2], 1e-6, 1e6, scale)) {
    std::fprintf(stderr, "usage: %s [workload] [scale in [1e-6, 1e6]]\n",
                 argv[0]);
    return 2;
  }

  std::printf("Policy tuning on %s (scale %.2f)\n\n", workload.c_str(),
              scale);

  TextTable table({"policy", "exec (Mcycles)", "HBM hit rate",
                   "alpha bypasses", "gamma invalidations", "final a/g"});

  // Threshold pins (RunSpec::alpha_pin / gamma_pin) fix a threshold and
  // turn its adaptation off; unpinned, the controller tunes both.
  auto report = [&](const std::string& name,
                    std::optional<std::uint32_t> alpha,
                    std::optional<std::uint32_t> gamma) {
    RunSpec spec;
    spec.policy = "RedCache";
    spec.workload = workload;
    spec.scale = scale;
    spec.alpha_pin = alpha;
    spec.gamma_pin = gamma;
    const RunResult r = RunOne(spec);
    const auto hits = r.stats.GetCounter("ctrl.cache_hits");
    const auto misses = r.stats.GetCounter("ctrl.cache_misses");
    table.AddRow({
        name,
        TextTable::Num(static_cast<double>(r.exec_cycles) / 1e6, 1),
        TextTable::Pct(hits + misses == 0
                           ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)),
        std::to_string(r.stats.GetCounter("ctrl.alpha_bypasses")),
        std::to_string(r.stats.GetCounter("ctrl.gamma_invalidations")),
        std::to_string(r.stats.GetCounter("ctrl.alpha_value")) + "/" +
            std::to_string(r.stats.GetCounter("ctrl.gamma_value")),
    });
  };

  for (std::uint32_t alpha = 1; alpha <= 3; ++alpha) {
    report("static alpha=" + std::to_string(alpha), alpha, std::nullopt);
  }
  for (std::uint32_t gamma : {4u, 16u, 64u}) {
    report("static gamma=" + std::to_string(gamma), std::nullopt, gamma);
  }
  report("adaptive (default)", std::nullopt, std::nullopt);

  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "The adaptive controller should land near the best static setting\n"
      "without knowing the workload in advance — that is the point of\n"
      "run-time alpha/gamma tuning.\n");
  return 0;
}
