#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "dramcache/policy_registry.hpp"
#include "tenant/accounting.hpp"
#include "tenant/mix_trace.hpp"

namespace perfbench {

using namespace redcache;

std::unique_ptr<System> BuildTimedSystem(const RunSpec& spec,
                                         LayerCounts& counts) {
  if (spec.verify || !spec.serve_path.empty() || !spec.restore_path.empty()) {
    throw std::invalid_argument(
        "BuildTimedSystem: verify, serve and restore specs are not benchmarked");
  }
  // Mirrors BuildSystem (src/sim/runner.cpp) step for step; the benchmark
  // proves the mirror exact by comparing StatsDigest against an
  // undecorated run of the same spec.
  WorkloadBuildParams wp;
  wp.num_cores = spec.preset.hierarchy.num_cores;
  wp.scale = spec.ignore_env_scale ? spec.scale : EffectiveScale(spec.scale);

  std::unique_ptr<TraceSource> trace;
  std::unique_ptr<tenant::TenantAccounting> acct;
  if (spec.mix.active()) {
    std::vector<std::unique_ptr<TraceSource>> children;
    std::uint64_t max_footprint = 0;
    for (const tenant::TenantSpec& t : spec.mix.tenants) {
      auto child = std::make_unique<TimedTrace>(MakeWorkload(t.workload, wp),
                                                counts.next);
      max_footprint = std::max(max_footprint, child->footprint_bytes());
      children.push_back(std::move(child));
    }
    const auto map = tenant::TenantAddressMap::Plan(
        spec.mix.mode, spec.mix.num_tenants(), max_footprint,
        spec.preset.mem.mainmem.geometry.capacity_bytes, spec.mix.window_bits);
    acct = std::make_unique<tenant::TenantAccounting>(map);
    for (std::uint32_t t = 0; t < spec.mix.num_tenants(); ++t) {
      acct->SetSoloBaseline(t, spec.mix.tenants[t].solo_exec_cycles,
                            spec.mix.tenants[t].solo_refs);
    }
    trace = std::make_unique<tenant::MixTraceSource>(
        std::move(children), spec.mix.tenants, map);
  } else {
    trace = std::make_unique<TimedTrace>(MakeWorkload(spec.workload, wp),
                                         counts.next);
  }
  auto controller = std::make_unique<TimedController>(
      MakePolicy(PolicyNameOf(spec), spec.preset.mem), counts);
  auto system = std::make_unique<System>(spec.preset.hierarchy,
                                         spec.preset.core,
                                         std::move(controller),
                                         std::move(trace), spec.seed);
  if (acct != nullptr) system->SetTenantAccounting(std::move(acct));
  return system;
}

double ClockReadNs() {
  constexpr int kReads = 1000;
  constexpr int kBatches = 31;
  std::vector<double> per_read;
  per_read.reserve(kBatches);
  Clock::time_point sink{};
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) sink = std::max(sink, Clock::now());
    per_read.push_back(static_cast<double>(NsBetween(t0, sink)) / kReads);
  }
  std::nth_element(per_read.begin(), per_read.begin() + kBatches / 2,
                   per_read.end());
  return per_read[kBatches / 2];
}

std::string StatsDigest(const StatSet& stats, std::uint64_t exec_cycles) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(&exec_cycles, sizeof exec_cycles);
  for (const auto& [name, value] : stats.counters()) {
    mix(name.data(), name.size() + 1);  // include the terminator as separator
    mix(&value, sizeof value);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
