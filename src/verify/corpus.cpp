#include "verify/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

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
    const auto u64 = [&value]() { return std::stoull(value); };
    const auto u32 = [&value]() {
      return static_cast<std::uint32_t>(std::stoul(value));
    };
    try {
      if (key == "seed") tr.seed = u64();
      else if (key == "cores") tr.cores = u32();
      else if (key == "refs_per_core") tr.refs_per_core = u32();
      else if (key == "region_pages") tr.region_pages = u32();
      else if (key == "hot_pages") tr.hot_pages = u32();
      else if (key == "conflict_stride_bytes") tr.conflict_stride_bytes = u64();
      else if (key == "hot_weight") tr.hot_weight = u32();
      else if (key == "burst_weight") tr.burst_weight = u32();
      else if (key == "conflict_weight") tr.conflict_weight = u32();
      else if (key == "row_storm_weight") tr.row_storm_weight = u32();
      else if (key == "write_weight") tr.write_weight = u32();
      else if (key == "idle_every") tr.idle_every = u32();
      else if (key == "idle_gap_cycles") tr.idle_gap_cycles = u32();
      else if (key == "max_cycles") out.params.max_cycles = u64();
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
