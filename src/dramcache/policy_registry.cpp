#include "dramcache/policy_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "dramcache/alloy.hpp"
#include "dramcache/banshee.hpp"
#include "dramcache/bear.hpp"
#include "dramcache/footprint.hpp"
#include "dramcache/ideal.hpp"
#include "dramcache/no_hbm.hpp"
#include "dramcache/redcache.hpp"
#include "dramcache/tictoc.hpp"

namespace redcache {

namespace {

template <class Controller>
std::unique_ptr<MemController> Make(const MemControllerConfig& cfg) {
  return std::make_unique<Controller>(cfg);
}

// RedCacheController display names (its name() and stats label).
constexpr char kRedAlpha[] = "red-alpha";
constexpr char kRedGamma[] = "red-gamma";
constexpr char kRedBasic[] = "red-basic";
constexpr char kRedInSitu[] = "red-insitu";
constexpr char kRedCache[] = "redcache";
constexpr char kRedCache2way[] = "redcache-2way";
constexpr char kRedCache4way[] = "redcache-4way";
constexpr char kRedCache8way[] = "redcache-8way";

template <RedCacheOptions (*kOptions)(), const char* kDisplayName,
          std::uint32_t kWays = 1>
std::unique_ptr<MemController> MakeRedCache(const MemControllerConfig& cfg) {
  return std::make_unique<RedCacheController>(cfg, kOptions(), kDisplayName,
                                              kWays);
}

using Opt = RedCacheOptions;

/// Every policy, in name order.
constexpr PolicyInfo kPolicies[] = {
    {.name = "Alloy",
     .summary = "MICRO'12 Alloy cache: direct-mapped TAD, always-install fills",
     .family = "alloy",
     .differential = true,
     .golden = true,
     .sweep = true,
     .make = Make<AlloyController>},
    {.name = "Banshee",
     .summary = "frequency-gated page cache: SRAM tags, footprint bitmaps, "
                "challenger-based replacement",
     .family = "page",
     .differential = true,
     .golden = true,
     .sweep = true,
     .make = Make<BansheeController>},
    {.name = "Bear",
     .summary = "ISCA'15 BEAR: Alloy + bandwidth-aware bypass, presence "
                "filter, write-miss bypass",
     .family = "alloy",
     .differential = true,
     .golden = true,
     .sweep = true,
     .make = Make<BearController>},
    {.name = "Footprint-2KB",
     .summary = "coarse-grained 2 KiB page cache with SRAM tags and "
                "footprint bitmaps",
     .family = "page",
     .make = Make<FootprintCacheController>},
    {.name = "IDEAL",
     .summary = "perfect HBM cache: every block resident, 100% hits",
     .family = "bound",
     .differential = true,
     .make = Make<IdealController>},
    {.name = "No-HBM",
     .summary = "off-package DDR4 only (no DRAM cache)",
     .family = "bound",
     .differential = true,
     .make = Make<NoHbmController>},
    {.name = "Red-Alpha",
     .summary = "direct-mapped cache + alpha admission only",
     .family = "redcache",
     .sweep = true,
     .make = MakeRedCache<Opt::AlphaOnly, kRedAlpha>},
    {.name = "Red-Basic",
     .summary = "alpha + gamma with immediate r-count updates (no RCU)",
     .family = "redcache",
     .differential = true,
     .sweep = true,
     .make = MakeRedCache<Opt::Basic, kRedBasic>},
    {.name = "Red-Gamma",
     .summary = "Alloy + in-DRAM gamma last-write counting only",
     .family = "redcache",
     .sweep = true,
     .make = MakeRedCache<Opt::GammaOnly, kRedGamma>},
    {.name = "Red-InSitu",
     .summary = "alpha + gamma with free in-DRAM updates (upper bound)",
     .family = "redcache",
     .sweep = true,
     .make = MakeRedCache<Opt::InSitu, kRedInSitu>},
    {.name = "RedCache",
     .summary = "full proposal: alpha + gamma + RCU + bypass-on-refresh",
     .family = "redcache",
     .differential = true,
     .golden = true,
     .sweep = true,
     .make = MakeRedCache<Opt::Full, kRedCache>},
    {.name = "RedCache-2way",
     .summary = "2-way LRU RedCache (R-Cache direction extension)",
     .family = "redcache",
     .make = MakeRedCache<Opt::Full, kRedCache2way, 2>},
    {.name = "RedCache-4way",
     .summary = "4-way LRU RedCache (R-Cache direction extension)",
     .family = "redcache",
     .differential = true,
     .make = MakeRedCache<Opt::Full, kRedCache4way, 4>},
    {.name = "RedCache-8way",
     .summary = "8-way LRU RedCache (R-Cache direction extension)",
     .family = "redcache",
     .make = MakeRedCache<Opt::Full, kRedCache8way, 8>},
    {.name = "TicToc",
     .summary = "bandwidth-aware Alloy: duty-gated fills, deferred metadata "
                "writes, last-write routing to MM",
     .family = "alloy",
     .differential = true,
     .golden = true,
     .sweep = true,
     .make = Make<TicTocController>},
};

static_assert(ValidPolicyTable(kPolicies),
              "policy table: names must be unique and in name order, and "
              "every row needs a name, a summary and a family");

std::vector<std::string> NamesWhere(bool PolicyInfo::*flag) {
  std::vector<std::string> names;
  for (const PolicyInfo& row : kPolicies) {
    if (flag == nullptr || row.*flag) names.emplace_back(row.name);
  }
  return names;
}

}  // namespace

std::span<const PolicyInfo> Policies() { return kPolicies; }

const PolicyInfo& GetPolicy(std::string_view name) {
  for (const PolicyInfo& row : kPolicies) {
    if (row.name == name) return row;
  }
  std::string msg = "unknown policy '" + std::string(name) +
                    "'; registered policies:";
  for (const PolicyInfo& row : kPolicies) {
    msg += ' ';
    msg += row.name;
  }
  throw std::invalid_argument(msg);
}

std::vector<std::string> PolicyNames() { return NamesWhere(nullptr); }

std::vector<std::string> DifferentialPolicyNames() {
  return NamesWhere(&PolicyInfo::differential);
}

std::vector<std::string> GoldenPolicyNames() {
  return NamesWhere(&PolicyInfo::golden);
}

std::vector<std::string> SweepPolicyNames() {
  return NamesWhere(&PolicyInfo::sweep);
}

bool AcceptsThresholdPins(const PolicyInfo& info) {
  return info.family == "redcache";
}

const std::vector<std::string>& EvaluationPolicies() {
  static const std::vector<std::string> kEvaluation = {
      "Alloy",     "Bear",       "Red-Alpha", "Red-Gamma",
      "Red-Basic", "Red-InSitu", "RedCache",
  };
  return kEvaluation;
}

std::vector<std::string> DefaultSweepPolicies() {
  std::vector<std::string> policies = EvaluationPolicies();
  for (const std::string& name : SweepPolicyNames()) {
    if (std::find(policies.begin(), policies.end(), name) == policies.end()) {
      policies.push_back(name);
    }
  }
  return policies;
}

std::unique_ptr<MemController> MakePolicy(const std::string& name,
                                          const MemControllerConfig& cfg) {
  return GetPolicy(name).make(cfg);
}

}  // namespace redcache
