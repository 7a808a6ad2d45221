#include "verify/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/parse.hpp"

namespace redcache {

namespace {

std::string Trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Space-separated policy list; names themselves never contain spaces.
std::string JoinPolicies(const std::vector<std::string>& policies) {
  std::string out;
  for (const std::string& p : policies) {
    if (!out.empty()) out += ' ';
    out += p;
  }
  return out;
}

std::vector<std::string> SplitPolicies(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

SimPreset PresetByName(const std::string& name) {
  for (SimPreset p : {EvalPreset(), PaperPreset()}) {
    if (name == p.name) return p;
  }
  throw std::invalid_argument("unknown preset '" + name + "'");
}

}  // namespace

std::string SerializeCorpusCase(const CorpusCase& c) {
  std::ostringstream out;
  out << "# redcache differential corpus case: " << c.name << "\n";
  std::istringstream note(c.note);
  for (std::string line; std::getline(note, line);) {
    out << "# " << line << "\n";
  }
  const FuzzTraceParams& t = c.params.trace;
  out << "seed = " << t.seed << "\n"
      << "cores = " << t.cores << "\n"
      << "refs_per_core = " << t.refs_per_core << "\n"
      << "region_pages = " << t.region_pages << "\n"
      << "hot_pages = " << t.hot_pages << "\n"
      << "conflict_stride_bytes = " << t.conflict_stride_bytes << "\n"
      << "hot_weight = " << t.hot_weight << "\n"
      << "burst_weight = " << t.burst_weight << "\n"
      << "conflict_weight = " << t.conflict_weight << "\n"
      << "row_storm_weight = " << t.row_storm_weight << "\n"
      << "write_weight = " << t.write_weight << "\n"
      << "idle_every = " << t.idle_every << "\n"
      << "idle_gap_cycles = " << t.idle_gap_cycles << "\n"
      << "preset = " << c.params.preset.name << "\n"
      << "max_cycles = " << c.params.max_cycles << "\n"
      << "policies = " << JoinPolicies(c.params.policies) << "\n";
  return out.str();
}

bool ParseCorpusCase(const std::string& text, CorpusCase& out,
                     std::string& error) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    lineno++;
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected 'key = value'";
      return false;
    }
    const std::string key = Trim(t.substr(0, eq));
    const std::string value = Trim(t.substr(eq + 1));
    FuzzTraceParams& tr = out.params.trace;
    // A whole decimal number that fits the field's own type.
    const auto number = [&value](auto& field) {
      using T = std::remove_reference_t<decltype(field)>;
      constexpr T kMax = std::numeric_limits<T>::max();
      if (!ParseNumber(value, T{0}, kMax, field)) {
        throw std::invalid_argument("'" + value +
                                    "' is not a whole number in [0, " +
                                    std::to_string(kMax) + "]");
      }
    };
    try {
      if (key == "seed") number(tr.seed);
      else if (key == "cores") number(tr.cores);
      else if (key == "refs_per_core") number(tr.refs_per_core);
      else if (key == "region_pages") number(tr.region_pages);
      else if (key == "hot_pages") number(tr.hot_pages);
      else if (key == "conflict_stride_bytes") number(tr.conflict_stride_bytes);
      else if (key == "hot_weight") number(tr.hot_weight);
      else if (key == "burst_weight") number(tr.burst_weight);
      else if (key == "conflict_weight") number(tr.conflict_weight);
      else if (key == "row_storm_weight") number(tr.row_storm_weight);
      else if (key == "write_weight") number(tr.write_weight);
      else if (key == "idle_every") number(tr.idle_every);
      else if (key == "idle_gap_cycles") number(tr.idle_gap_cycles);
      else if (key == "max_cycles") number(out.params.max_cycles);
      else if (key == "preset") {
        if (value != out.params.preset.name) {
          out.params.preset = PresetByName(value);
        }
      } else if (key == "policies") {
        out.params.policies = SplitPolicies(value);
      } else {
        error = "line " + std::to_string(lineno) + ": unknown key '" + key +
                "'";
        return false;
      }
    } catch (const std::exception& e) {
      error = "line " + std::to_string(lineno) + ": " + e.what();
      return false;
    }
  }
  return true;
}

bool ReadCorpusFile(const std::string& path, CorpusCase& out,
                    std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  out.name = std::filesystem::path(path).stem().string();
  return ParseCorpusCase(text.str(), out, error);
}

std::string WriteCorpusFile(const std::string& dir, const CorpusCase& c) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + c.name + ".trace";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return "";
  out << SerializeCorpusCase(c);
  return out ? path : "";
}

std::vector<std::string> ListCorpusFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".trace") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string PersistCounterexample(const DifferentialParams& params,
                                  const std::vector<std::string>& errors,
                                  const std::string& dir) {
  CorpusCase c;
  c.name = "fuzz_seed" + std::to_string(params.trace.seed);
  std::string note = "fuzzer-found counterexample; failures at capture:\n";
  for (const std::string& e : errors) note += "  " + e + "\n";
  c.note = std::move(note);
  c.params = params;
  return WriteCorpusFile(dir, c);
}

}  // namespace redcache
