// Policy table: name-based construction of DRAM-cache policies.
//
// Every memory-controller policy the simulator ships is one row of the
// constant, name-sorted table in policy_registry.cpp; the rest of the
// system (runner, batch engine, CLI, differential fuzzer, golden-stats
// harness) looks policies up by name and never names a concrete class.
// Adding a policy is: subclass ControllerBase, then add one table row
//
//   {.name = "MyPolicy",
//    .summary = "one-line description for --list and error messages",
//    .family = "mypolicy",
//    .differential = true,   // include in the N-policy differential set
//    .golden = true,         // pin Table II golden stats for it
//    .sweep = true,          // include in the default --sweep matrix
//    .make = Make<MyPolicyController>},
//
// in name order. A duplicate, unsorted or incomplete row fails the build:
// the factory is a function reference, so a row cannot omit it, and a
// static_assert over ValidPolicyTable checks the rest.
//
// Policy obligations (DESIGN.md section 11): honor the MemController wake
// contract (conservative Tick/NextEventHint/PolicyWake), export
// "ctrl."-prefixed stats (and, where meaningful, the fill-conservation
// triple fills/evictions/resident_lines the differential fuzzer
// cross-checks), and call the VerifySink hooks so the reference memory
// model can replay the policy's data movement.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dramcache/controller.hpp"

namespace redcache {

using PolicyFactory =
    std::unique_ptr<MemController>(const MemControllerConfig&);

struct PolicyInfo {
  std::string_view name;     ///< canonical lookup key (also the CellKey label)
  std::string_view summary;  ///< one line for --list and unknown-name errors
  std::string_view family;   ///< mechanism family ("alloy", "redcache", ...)
  /// Cross-checked against the reference memory model by the N-policy
  /// differential fuzzer (src/verify/differential.cpp).
  bool differential = false;
  /// Pinned by the Table II golden-stats regression (tests/verify/).
  bool golden = false;
  /// Part of the default `redcache_cli --sweep` evaluation matrix.
  bool sweep = false;
  PolicyFactory& make;
};

/// The table's invariants: names non-empty and strictly increasing (so
/// unique), and every row has a summary and a family (the factory
/// reference cannot be left out).
constexpr bool ValidPolicyTable(std::span<const PolicyInfo> rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyInfo& row = rows[i];
    if (row.name.empty() || row.summary.empty() || row.family.empty()) {
      return false;
    }
    if (i > 0 && !(rows[i - 1].name < row.name)) return false;
  }
  return true;
}

/// Every policy, sorted by name.
std::span<const PolicyInfo> Policies();

/// Throws std::invalid_argument listing every policy when `name` is
/// unknown.
const PolicyInfo& GetPolicy(std::string_view name);

/// All policy names, sorted.
std::vector<std::string> PolicyNames();
/// Sorted names with the given capability flag set.
std::vector<std::string> DifferentialPolicyNames();
std::vector<std::string> GoldenPolicyNames();
std::vector<std::string> SweepPolicyNames();

/// Whether --alpha/--gamma threshold pins apply to the policy: they tune
/// RedCache's alpha/gamma, so only the redcache family takes them.
bool AcceptsThresholdPins(const PolicyInfo& info);

/// The paper's Fig. 9-11 comparison, in its order: Alloy (the baseline
/// every figure normalizes against), Bear, the four RedCache ablations,
/// then the full RedCache.
const std::vector<std::string>& EvaluationPolicies();

/// The default sweep columns: EvaluationPolicies() in the paper's order,
/// then every other sweep-enabled policy (rivals like Banshee and TicToc)
/// in name order.
std::vector<std::string> DefaultSweepPolicies();

/// Construct the policy named `name`. Unknown names throw
/// std::invalid_argument with the full list of policies.
std::unique_ptr<MemController> MakePolicy(const std::string& name,
                                          const MemControllerConfig& cfg);

}  // namespace redcache
