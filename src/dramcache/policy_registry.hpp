// Policy plugin registry: name-based construction of DRAM-cache policies.
//
// Every memory-controller policy registers itself under a stable name via
// REDCACHE_REGISTER_POLICY in its own translation unit; the rest of the
// system (runner, batch engine, CLI, differential fuzzer, golden-stats
// harness) looks policies up by name and never names a concrete class.
// Adding a policy is a one-file exercise:
//
//   // src/dramcache/mypolicy.cpp
//   REDCACHE_REGISTER_POLICY(mypolicy, {
//       .name = "MyPolicy",
//       .summary = "one-line description for --list and error messages",
//       .family = "mypolicy",
//       .differential = true,   // include in the N-policy differential set
//       .golden = true,         // pin Table II golden stats for it
//       .sweep = true,          // include in the default --sweep matrix
//       .make = [](const MemControllerConfig& cfg) {
//         return std::make_unique<MyPolicyController>(cfg);
//       }})
//
// plus one anchor line in policy_registry.cpp's builtin list (required
// because the policies live in a static library: an unreferenced
// translation unit would be dropped by the linker and its registration
// would never run; the anchor reference forces the member in). Policy
// translation units compiled directly into an executable (tests) need no
// anchor — their static registrar runs at load time.
//
// Registration obligations (DESIGN.md section 11): honor the MemController
// wake contract (conservative Tick/NextEventHint/PolicyWake), export
// "ctrl."-prefixed stats (and, where meaningful, the fill-conservation
// triple fills/evictions/resident_lines the differential fuzzer
// cross-checks), and call the VerifySink hooks so the reference memory
// model can replay the policy's data movement.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dramcache/controller.hpp"

namespace redcache {

struct PolicyInfo {
  std::string name;     ///< canonical lookup key (also the CellKey label)
  std::string summary;  ///< one line for --list and unknown-name errors
  std::string family;   ///< mechanism family ("alloy", "redcache", ...)
  /// Cross-checked against the reference memory model by the N-policy
  /// differential fuzzer (src/verify/differential.cpp).
  bool differential = false;
  /// Pinned by the Table II golden-stats regression (tests/verify/).
  bool golden = false;
  /// Part of the default `redcache_cli --sweep` evaluation matrix.
  bool sweep = false;
  std::function<std::unique_ptr<MemController>(const MemControllerConfig&)>
      make;
};

class PolicyRegistry {
 public:
  /// The process-wide registry (builtins are registered on first access).
  static PolicyRegistry& Instance();

  /// Throws std::invalid_argument on a duplicate name or a null factory.
  void Register(PolicyInfo info);

  bool Has(const std::string& name) const;
  /// Throws std::invalid_argument listing every registered name when
  /// `name` is unknown.
  PolicyInfo Get(const std::string& name) const;

  /// All registered names, sorted (deterministic across runs).
  std::vector<std::string> Names() const;
  /// All registered infos, sorted by name.
  std::vector<PolicyInfo> Infos() const;

  /// Sorted names with the given capability flag set.
  std::vector<std::string> DifferentialNames() const;
  std::vector<std::string> GoldenNames() const;
  std::vector<std::string> SweepNames() const;

 private:
  PolicyRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// The paper's Fig. 9-11 comparison, in its order: Alloy (the baseline
/// every figure normalizes against), Bear, the four RedCache ablations,
/// then the full RedCache.
const std::vector<std::string>& EvaluationPolicies();

/// The default sweep columns: EvaluationPolicies() in the paper's order,
/// then every other sweep-enabled policy (rivals like Banshee and TicToc)
/// in registry order.
std::vector<std::string> DefaultSweepPolicies();

/// Construct the policy registered under `name`. Unknown names throw
/// std::invalid_argument with the full list of registered policies.
std::unique_ptr<MemController> MakePolicy(const std::string& name,
                                          const MemControllerConfig& cfg);

/// Registration helper used by REDCACHE_REGISTER_POLICY. Registration is
/// idempotent per call site (safe to run both via the static registrar and
/// via the builtin anchor list).
struct PolicyRegistrar {
  explicit PolicyRegistrar(void (*register_fn)()) { register_fn(); }
};

/// Self-registering policy translation unit. `ident` must be a unique C
/// identifier; the remaining arguments brace-initialize a PolicyInfo.
#define REDCACHE_REGISTER_POLICY(ident, ...)                             \
  void RedcachePolicyRegister_##ident() {                                \
    static const bool redcache_registered_once_ = [] {                   \
      ::redcache::PolicyRegistry::Instance().Register(                   \
          ::redcache::PolicyInfo __VA_ARGS__);                           \
      return true;                                                       \
    }();                                                                 \
    (void)redcache_registered_once_;                                     \
  }                                                                      \
  namespace {                                                            \
  const ::redcache::PolicyRegistrar redcache_policy_registrar_##ident{   \
      &RedcachePolicyRegister_##ident};                                  \
  }                                                                      \
  static_assert(true, "")

}  // namespace redcache
