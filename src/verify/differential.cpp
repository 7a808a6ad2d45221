#include "verify/differential.hpp"

#include <memory>
#include <utility>

#include "dramcache/policy_registry.hpp"
#include "sim/system.hpp"
#include "tenant/accounting.hpp"
#include "tenant/mix_trace.hpp"
#include "verify/shadow_checker.hpp"

namespace redcache {

std::vector<std::string> DifferentialPolicies() {
  return DifferentialPolicyNames();
}

namespace {

std::string Where(const std::string& policy, std::uint64_t seed) {
  return policy + "/seed=" + std::to_string(seed) + ": ";
}

}  // namespace

DifferentialResult RunDifferential(const DifferentialParams& params) {
  DifferentialResult result;

  const std::uint32_t tenants = params.tenants;
  for (const std::string& policy : params.policies) {
    auto checker = std::make_unique<ShadowChecker>(
        MakePolicy(policy, params.preset.mem));
    ShadowChecker* shadow = checker.get();

    FuzzTraceParams tp = params.trace;
    tp.cores = std::min(tp.cores, params.preset.hierarchy.num_cores);
    std::unique_ptr<TraceSource> trace;
    std::unique_ptr<tenant::TenantAccounting> acct;
    if (tenants >= 2) {
      // Independent fuzz streams per tenant, co-scheduled round-robin and
      // rebased into disjoint slices — the adversarial traces now also
      // contend across tenants in the shared cache sets and banks.
      std::vector<std::unique_ptr<TraceSource>> children;
      std::vector<tenant::TenantSpec> specs;
      std::uint64_t max_footprint = 0;
      for (std::uint32_t t = 0; t < tenants; ++t) {
        FuzzTraceParams ctp = tp;
        ctp.seed = tp.seed + t;
        auto child = std::make_unique<FuzzTraceSource>(ctp);
        max_footprint = std::max(max_footprint, child->footprint_bytes());
        children.push_back(std::move(child));
        tenant::TenantSpec spec;
        spec.workload = "fuzz" + std::to_string(t);
        specs.push_back(spec);
      }
      const auto map = tenant::TenantAddressMap::Plan(
          tenant::TenantAddressMap::Mode::kOffset, tenants, max_footprint,
          params.preset.mem.mainmem.geometry.capacity_bytes);
      acct = std::make_unique<tenant::TenantAccounting>(map);
      trace = std::make_unique<tenant::MixTraceSource>(std::move(children),
                                                       std::move(specs), map);
    } else {
      trace = std::make_unique<FuzzTraceSource>(tp);
    }
    System system(params.preset.hierarchy, params.preset.core,
                  std::move(checker), std::move(trace),
                  /*seed=*/params.trace.seed);
    if (acct != nullptr) system.SetTenantAccounting(std::move(acct));
    const RunResult run = system.Run(params.max_cycles);

    const std::string at = Where(policy, params.trace.seed);
    DifferentialOutcome out;
    out.policy = policy;
    out.completed = run.completed;
    if (!run.completed) {
      result.errors.push_back(at + "run hit the cycle limit before draining");
    } else {
      shadow->CheckDrained();
    }

    out.core_refs = run.stats.GetCounter("core.refs");
    out.divergences = shadow->divergence_count();
    out.reads_checked = shadow->reads_checked();
    out.model_events = run.stats.GetCounter("verify.model_events");
    for (std::uint32_t t = 0; t < tenants; ++t) {
      out.tenant_refs.push_back(run.stats.GetCounter(
          "tenant" + std::to_string(t) + ".refs"));
    }
    result.outcomes.push_back(out);

    for (const std::string& msg : shadow->divergence_messages()) {
      result.errors.push_back(at + msg);
    }
    if (shadow->divergence_count() > shadow->divergence_messages().size()) {
      result.errors.push_back(
          at + std::to_string(shadow->divergence_count() -
                              shadow->divergence_messages().size()) +
          " further divergences suppressed");
    }

    // Traffic conservation over the exported counters.
    const auto c = [&run](const char* name) {
      return run.stats.GetCounter(name);
    };
    const std::uint64_t refs = c("core.refs");
    const std::uint64_t accounted = c("core.l1_hits") + c("core.l2_hits") +
                                    c("core.l3_hits") + c("core.misses");
    if (refs != accounted) {
      result.errors.push_back(at + "core refs leak: " + std::to_string(refs) +
                              " refs vs " + std::to_string(accounted) +
                              " accounted");
    }
    if (c("ctrl.reads") != c("core.misses")) {
      result.errors.push_back(
          at + "controller saw " + std::to_string(c("ctrl.reads")) +
          " reads but the cores issued " + std::to_string(c("core.misses")) +
          " misses");
    }
    if (run.completed && shadow->reads_checked() != c("ctrl.reads")) {
      result.errors.push_back(
          at + "checker validated " + std::to_string(shadow->reads_checked()) +
          " completions for " + std::to_string(c("ctrl.reads")) + " reads");
    }
    if (run.stats.HasCounter("ctrl.evictions") &&
        run.stats.HasCounter("ctrl.resident_lines") &&
        c("ctrl.fills") != c("ctrl.evictions") + c("ctrl.resident_lines")) {
      result.errors.push_back(
          at + "fill leak: " + std::to_string(c("ctrl.fills")) + " fills vs " +
          std::to_string(c("ctrl.evictions")) + " evictions + " +
          std::to_string(c("ctrl.resident_lines")) + " resident");
    }

    // Per-tenant conservation: the tenant counters must exactly partition
    // the totals — every ref, controller read/writeback and demand serve
    // attributed to exactly one tenant.
    if (tenants >= 2) {
      const auto tc = [&run](std::uint32_t t, const char* suffix) {
        return run.stats.GetCounter("tenant" + std::to_string(t) + "." +
                                    suffix);
      };
      std::uint64_t trefs = 0, treads = 0, twbs = 0, tserves = 0;
      for (std::uint32_t t = 0; t < tenants; ++t) {
        trefs += tc(t, "refs");
        treads += tc(t, "ctrl.reads");
        twbs += tc(t, "ctrl.writebacks");
        tserves += tc(t, "ctrl.serve_hits") + tc(t, "ctrl.serve_misses");
      }
      if (trefs != refs) {
        result.errors.push_back(at + "tenant refs leak: " +
                                std::to_string(trefs) + " attributed vs " +
                                std::to_string(refs) + " retired");
      }
      if (treads != c("ctrl.reads")) {
        result.errors.push_back(at + "tenant read leak: " +
                                std::to_string(treads) + " attributed vs " +
                                std::to_string(c("ctrl.reads")) + " seen");
      }
      if (twbs != c("ctrl.writebacks")) {
        result.errors.push_back(at + "tenant writeback leak: " +
                                std::to_string(twbs) + " attributed vs " +
                                std::to_string(c("ctrl.writebacks")) +
                                " seen");
      }
      // Serve attribution covers every demand read for instrumented
      // policies; uninstrumented ones report none at all.
      if (run.completed && tserves != 0 && tserves != c("ctrl.reads")) {
        result.errors.push_back(at + "tenant serve leak: " +
                                std::to_string(tserves) + " attributed vs " +
                                std::to_string(c("ctrl.reads")) + " reads");
      }
    }
  }

  // Every policy must consume the identical reference stream — in a mix,
  // tenant by tenant (the co-schedule is policy-independent by design).
  for (std::size_t i = 1; i < result.outcomes.size(); ++i) {
    const auto& a = result.outcomes.front();
    const auto& b = result.outcomes[i];
    if (a.core_refs != b.core_refs) {
      result.errors.push_back(
          Where(b.policy, params.trace.seed) + "processed " +
          std::to_string(b.core_refs) + " refs while " + a.policy +
          " processed " + std::to_string(a.core_refs) +
          " from the same trace");
    }
    if (a.tenant_refs != b.tenant_refs) {
      result.errors.push_back(
          Where(b.policy, params.trace.seed) +
          "per-tenant ref split diverged from " + a.policy +
          " on the same mix");
    }
  }
  return result;
}

}  // namespace redcache
