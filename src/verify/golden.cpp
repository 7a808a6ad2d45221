#include "verify/golden.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace redcache {

const std::vector<std::string>& GoldenTrackedCounters() {
  static const std::vector<std::string> kCounters = {
      "sys.exec_cycles",
      "core.refs",
      "core.misses",
      "ctrl.reads",
      "ctrl.writebacks",
      "ctrl.cache_hits",
      "ctrl.cache_misses",
      "ctrl.fills",
      "hbm.bytes_transferred",
      "ddr4.bytes_transferred",
  };
  return kCounters;
}

std::string GoldenKey(const RunSpec& spec) {
  char scale[32];
  std::snprintf(scale, sizeof scale, "%g", spec.scale);
  // An active mix replaces the workload component with its full canonical
  // descriptor while inactive mixes leave keys untouched.
  const std::string workload =
      spec.mix.active() ? "mix:" + spec.mix.Describe() : spec.workload;
  return PolicyNameOf(spec) + "/" + workload + "/" + spec.preset.name +
         "@scale=" + scale + ",seed=" + std::to_string(spec.seed);
}

GoldenRecord CollectGolden(const RunSpec& spec) {
  const RunResult run = RunOne(spec);
  GoldenRecord rec;
  rec["completed"] = run.completed ? 1 : 0;
  for (const std::string& name : GoldenTrackedCounters()) {
    // Absent counters (e.g. hbm.* on No-HBM) are recorded as 0 so the
    // schema is uniform across architectures.
    rec[name] = run.stats.GetCounter(name);
  }
  // Mix cells additionally pin every per-tenant counter the run exported,
  // so QoS attribution regressions are caught the same way end-to-end
  // behaviour is. Single-tenant runs export none — their records (and the
  // serialized file bytes for existing entries) are untouched.
  for (const auto& [name, value] : run.stats.counters()) {
    if (name.rfind("tenant", 0) == 0) rec[name] = value;
  }
  return rec;
}

std::string SerializeGolden(const GoldenTable& table) {
  std::ostringstream out;
  out << "{\n";
  bool first_key = true;
  for (const auto& [key, rec] : table) {
    if (!first_key) out << ",\n";
    first_key = false;
    out << "  \"" << key << "\": {\n";
    bool first_counter = true;
    for (const auto& [name, value] : rec) {
      if (!first_counter) out << ",\n";
      first_counter = false;
      out << "    \"" << name << "\": " << value;
    }
    out << "\n  }";
  }
  out << "\n}\n";
  return out.str();
}

bool ParseGolden(const std::string& text, GoldenTable& out,
                 std::string& error) {
  out.clear();
  obs::JsonValue doc;
  if (!obs::ParseJson(text, doc, &error)) return false;
  if (!doc.is_object()) {
    error = "expected an object of records";
    return false;
  }
  // A JSON number is a double: integers above 2^53 no longer read back
  // exactly, so a count past it is rejected rather than rounded.
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  for (const auto& [key, rec] : doc.object) {
    if (!rec.is_object()) {
      error = key + ": expected an object of counters";
      return false;
    }
    GoldenRecord& counters = out[key];
    for (const auto& [name, value] : rec.object) {
      const double v = value.number;  // 0 unless is_number()
      if (!value.is_number() || v < 0 || v > kMaxExact ||
          v != std::floor(v)) {
        error = key + ": " + name + " is not a whole number in [0, 2^53]";
        return false;
      }
      counters[name] = static_cast<std::uint64_t>(v);
    }
  }
  return true;
}

bool ReadGoldenFile(const std::string& path, GoldenTable& out,
                    std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseGolden(text.str(), out, error);
}

bool WriteGoldenFile(const std::string& path, const GoldenTable& table) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << SerializeGolden(table);
  return static_cast<bool>(out);
}

std::vector<std::string> DiffGolden(const GoldenTable& expected,
                                    const GoldenTable& actual) {
  std::vector<std::string> diffs;
  for (const auto& [key, exp_rec] : expected) {
    auto it = actual.find(key);
    if (it == actual.end()) {
      diffs.push_back(key + ": missing from this run");
      continue;
    }
    for (const auto& [name, exp_value] : exp_rec) {
      auto cit = it->second.find(name);
      if (cit == it->second.end()) {
        diffs.push_back(key + ": counter " + name + " not collected");
      } else if (cit->second != exp_value) {
        diffs.push_back(key + ": " + name + " expected " +
                        std::to_string(exp_value) + ", got " +
                        std::to_string(cit->second));
      }
    }
  }
  for (const auto& [key, rec] : actual) {
    (void)rec;
    if (expected.find(key) == expected.end()) {
      diffs.push_back(key + ": not in the golden file (regenerate with "
                      "REDCACHE_UPDATE_GOLDEN=1)");
    }
  }
  return diffs;
}

}  // namespace redcache
