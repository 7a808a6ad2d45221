#include "dramcache/policy_registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace redcache {

namespace {

// Anchor declarations: one per builtin policy translation unit. Referencing
// the registration function forces the linker to keep the archive member
// (and with it the policy's static registrar) in every binary that touches
// the registry, whether or not the binary names the policy class itself.
#define REDCACHE_DECLARE_BUILTIN(ident) void RedcachePolicyRegister_##ident()
#define REDCACHE_ANCHOR_BUILTIN(ident) RedcachePolicyRegister_##ident()

}  // namespace

REDCACHE_DECLARE_BUILTIN(no_hbm);
REDCACHE_DECLARE_BUILTIN(ideal);
REDCACHE_DECLARE_BUILTIN(alloy);
REDCACHE_DECLARE_BUILTIN(bear);
REDCACHE_DECLARE_BUILTIN(red_alpha);
REDCACHE_DECLARE_BUILTIN(red_gamma);
REDCACHE_DECLARE_BUILTIN(red_basic);
REDCACHE_DECLARE_BUILTIN(red_insitu);
REDCACHE_DECLARE_BUILTIN(redcache_full);
REDCACHE_DECLARE_BUILTIN(redcache_2way);
REDCACHE_DECLARE_BUILTIN(redcache_4way);
REDCACHE_DECLARE_BUILTIN(redcache_8way);
REDCACHE_DECLARE_BUILTIN(footprint_2kb);
REDCACHE_DECLARE_BUILTIN(banshee);
REDCACHE_DECLARE_BUILTIN(tictoc);

namespace {

void EnsureBuiltinsRegistered() {
  static const bool done = [] {
    REDCACHE_ANCHOR_BUILTIN(no_hbm);
    REDCACHE_ANCHOR_BUILTIN(ideal);
    REDCACHE_ANCHOR_BUILTIN(alloy);
    REDCACHE_ANCHOR_BUILTIN(bear);
    REDCACHE_ANCHOR_BUILTIN(red_alpha);
    REDCACHE_ANCHOR_BUILTIN(red_gamma);
    REDCACHE_ANCHOR_BUILTIN(red_basic);
    REDCACHE_ANCHOR_BUILTIN(red_insitu);
    REDCACHE_ANCHOR_BUILTIN(redcache_full);
    REDCACHE_ANCHOR_BUILTIN(redcache_2way);
    REDCACHE_ANCHOR_BUILTIN(redcache_4way);
    REDCACHE_ANCHOR_BUILTIN(redcache_8way);
    REDCACHE_ANCHOR_BUILTIN(footprint_2kb);
    REDCACHE_ANCHOR_BUILTIN(banshee);
    REDCACHE_ANCHOR_BUILTIN(tictoc);
    return true;
  }();
  (void)done;
}

}  // namespace

struct PolicyRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, PolicyInfo> policies;  // sorted by name
};

PolicyRegistry::Impl& PolicyRegistry::impl() const {
  static Impl instance;
  return instance;
}

PolicyRegistry& PolicyRegistry::Instance() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::Register(PolicyInfo info) {
  if (info.name.empty()) {
    throw std::invalid_argument("policy registration with an empty name");
  }
  if (!info.make) {
    throw std::invalid_argument("policy '" + info.name +
                                "' registered without a factory");
  }
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (!im.policies.emplace(info.name, std::move(info)).second) {
    throw std::invalid_argument("duplicate policy registration: " +
                                im.policies.find(info.name)->first);
  }
}

bool PolicyRegistry::Has(const std::string& name) const {
  EnsureBuiltinsRegistered();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.policies.count(name) != 0;
}

PolicyInfo PolicyRegistry::Get(const std::string& name) const {
  EnsureBuiltinsRegistered();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.policies.find(name);
  if (it != im.policies.end()) return it->second;
  std::string msg = "unknown policy '" + name + "'; registered policies:";
  for (const auto& [n, info] : im.policies) {
    msg += ' ';
    msg += n;
  }
  throw std::invalid_argument(msg);
}

std::vector<std::string> PolicyRegistry::Names() const {
  EnsureBuiltinsRegistered();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> names;
  names.reserve(im.policies.size());
  for (const auto& [n, info] : im.policies) names.push_back(n);
  return names;
}

std::vector<PolicyInfo> PolicyRegistry::Infos() const {
  EnsureBuiltinsRegistered();
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<PolicyInfo> infos;
  infos.reserve(im.policies.size());
  for (const auto& [n, info] : im.policies) infos.push_back(info);
  return infos;
}

namespace {

std::vector<std::string> FilterNames(const PolicyRegistry& reg,
                                     bool PolicyInfo::*flag) {
  std::vector<std::string> names;
  for (const PolicyInfo& info : reg.Infos()) {
    if (info.*flag) names.push_back(info.name);
  }
  return names;
}

}  // namespace

std::vector<std::string> PolicyRegistry::DifferentialNames() const {
  return FilterNames(*this, &PolicyInfo::differential);
}

std::vector<std::string> PolicyRegistry::GoldenNames() const {
  return FilterNames(*this, &PolicyInfo::golden);
}

std::vector<std::string> PolicyRegistry::SweepNames() const {
  return FilterNames(*this, &PolicyInfo::sweep);
}

const std::vector<std::string>& EvaluationPolicies() {
  static const std::vector<std::string> kPolicies = {
      "Alloy",     "Bear",       "Red-Alpha", "Red-Gamma",
      "Red-Basic", "Red-InSitu", "RedCache",
  };
  return kPolicies;
}

std::vector<std::string> DefaultSweepPolicies() {
  std::vector<std::string> policies = EvaluationPolicies();
  for (const std::string& name : PolicyRegistry::Instance().SweepNames()) {
    if (std::find(policies.begin(), policies.end(), name) == policies.end()) {
      policies.push_back(name);
    }
  }
  return policies;
}

std::unique_ptr<MemController> MakePolicy(const std::string& name,
                                          const MemControllerConfig& cfg) {
  return PolicyRegistry::Instance().Get(name).make(cfg);
}

}  // namespace redcache
