#include "verify/golden.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

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

namespace {

/// Minimal parser for the two-level {string: {string: uint}} JSON that
/// SerializeGolden emits. No escapes, no floats, no arrays.
class GoldenParser {
 public:
  GoldenParser(const std::string& text, std::string& error)
      : text_(text), error_(error) {}

  bool Parse(GoldenTable& out) {
    if (!Expect('{')) return false;
    SkipWs();
    if (Peek() == '}') { pos_++; return true; }
    while (true) {
      std::string key;
      if (!ParseString(key) || !Expect(':')) return false;
      if (!ParseRecord(out[key])) return false;
      SkipWs();
      if (Peek() == ',') { pos_++; continue; }
      break;
    }
    return Expect('}');
  }

 private:
  bool ParseRecord(GoldenRecord& rec) {
    if (!Expect('{')) return false;
    SkipWs();
    if (Peek() == '}') { pos_++; return true; }
    while (true) {
      std::string name;
      std::uint64_t value = 0;
      if (!ParseString(name) || !Expect(':') || !ParseUint(value)) {
        return false;
      }
      rec[name] = value;
      SkipWs();
      if (Peek() == ',') { pos_++; continue; }
      break;
    }
    return Expect('}');
  }

  bool ParseString(std::string& out) {
    if (!Expect('"')) return false;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') pos_++;
    if (pos_ >= text_.size()) return Fail("unterminated string");
    out = text_.substr(start, pos_ - start);
    pos_++;
    return true;
  }

  bool ParseUint(std::uint64_t& out) {
    SkipWs();
    if (pos_ >= text_.size() || !std::isdigit(Byte())) {
      return Fail("expected a number");
    }
    out = 0;
    while (pos_ < text_.size() && std::isdigit(Byte())) {
      out = out * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      pos_++;
    }
    return true;
  }

  bool Expect(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    pos_++;
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(Byte())) pos_++;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  unsigned char Byte() const {
    return static_cast<unsigned char>(text_[pos_]);
  }
  bool Fail(const std::string& why) {
    error_ = why + " at offset " + std::to_string(pos_);
    return false;
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseGolden(const std::string& text, GoldenTable& out,
                 std::string& error) {
  out.clear();
  return GoldenParser(text, error).Parse(out);
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
