// perfbench_child: runs one piece of one benchmark workload and prints
// one JSON object on stdout. run.py starts a fresh process for every piece,
// because the batch memo and the fingerprint memo (sim/batch.cpp) are
// process-wide and would serve a repeat in the same process for free.
//
//   perfbench_child info <workload>
//   perfbench_child measure <workload> --seed N [--report]
//   perfbench_child layers  <workload> --seed N --workdir DIR
//
// `measure` is the untraced end-to-end section; `--report` adds the batch /
// sampling profile and every counter. `layers` is the traced run: each cell
// undecorated, then decorated (layers.hpp), then the observability probes.
// See README.md for the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/epoch_sampler.hpp"
#include "obs/json.hpp"
#include "sim/batch.hpp"
#include "sim/sampling.hpp"

#if !defined(__OPTIMIZE__)
#error "perfbench refuses an unoptimised build: configure with CMAKE_BUILD_TYPE=RelWithDebInfo or Release"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses a sanitizer build: its timings would describe the sanitizer"
#endif

namespace {

using namespace redcache;
using perfbench::Clock;
using perfbench::LayerCounts;

// --- workloads ---------------------------------------------------------------

enum class Kind { kCell, kBatch, kSampled };

struct Workload {
  std::string name;
  Kind kind = Kind::kCell;
  std::vector<CellSpec> cells;
  unsigned jobs = 1;
};

constexpr unsigned kJobs = 2;
/// Fixed NDJSON epoch for the telemetry-on probe (the preset default is
/// 250000 cycles; a fine epoch makes the sink's cost visible).
constexpr Cycle kProbeEpochCycles = 20000;
/// Trace ring for the trace-on probe: small, so most events spill.
constexpr std::size_t kProbeRingEvents = std::size_t{1} << 16;
/// Probe rounds; run.py reports the median on-cost over them.
constexpr int kProbeRounds = 3;

SamplingOptions SampledOptions() {
  SamplingOptions o;
  o.fraction = 0.10;
  o.jobs = kJobs;
  return o;
}

RunSpec Spec(const std::string& policy, const std::string& workload,
             double scale, std::uint64_t seed) {
  RunSpec s;
  s.policy = policy;
  s.workload = workload;
  s.scale = scale;
  s.ignore_env_scale = true;
  // Core dependence RNG. Trace content is fixed per label: RunSpec cannot
  // reach WorkloadBuildParams::seed_salt.
  s.seed = seed;
  return s;
}

std::string CellName(const RunSpec& s) {
  return PolicyNameOf(s) + "/" +
         (s.mix.active() ? "mix(" + s.mix.Describe() + ")" : s.workload);
}

Workload MakeBenchWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const auto add = [&w](RunSpec s) { w.cells.push_back({std::move(s), ""}); };
  const std::vector<std::string> policies = {"No-HBM", "Alloy", "Bear",
                                             "RedCache"};
  if (name == "cell") {
    add(Spec("RedCache", "LU", 0.5, seed));
  } else if (name == "sweep") {
    w.kind = Kind::kBatch;
    w.jobs = kJobs;
    // The mix is the pool's long pole: dispatched first, the two workers
    // stay balanced, so wall_s tracks the total simulation work instead of
    // which worker happens to pick the mix up late.
    RunSpec mix = Spec("RedCache", "LU", 0.25, seed);
    mix.mix = tenant::MixSpec::Parse("LU:1,HIST:1");
    add(std::move(mix));
    for (const std::string& p : policies) {
      for (const char* wl : {"LU", "RDX", "HIST"}) add(Spec(p, wl, 0.25, seed));
    }
  } else if (name == "sweep-warm") {
    w.kind = Kind::kBatch;
    w.jobs = kJobs;
    for (const std::string& p : policies) {
      for (const std::string& wl : WorkloadLabels()) {
        add(Spec(p, wl, 0.05, seed));
      }
    }
  } else if (name == "sampled") {
    w.kind = Kind::kSampled;
    w.jobs = kJobs;
    add(Spec("RedCache", "RDX", 1.0, seed));
  } else {
    throw std::invalid_argument("unknown workload \"" + name +
                                "\" (cell, sweep, sweep-warm, sampled)");
  }
  return w;
}

/// The cell the observability probes re-run: the workload's plain
/// RedCache/LU cell, or its only cell.
const RunSpec& ProbeSpec(const Workload& w) {
  for (const CellSpec& c : w.cells) {
    if (PolicyNameOf(c.spec) == "RedCache" && c.spec.workload == "LU" &&
        !c.spec.mix.active()) {
      return c.spec;
    }
  }
  return w.cells.front().spec;
}

// --- JSON output ---------------------------------------------------------------

std::string Str(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Num(std::uint64_t v) { return std::to_string(v); }

/// Builds one JSON object; values are already-serialized JSON.
class Obj {
 public:
  Obj& Add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Str(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Arr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

std::string CountersJson(const StatSet& stats) {
  Obj o;
  for (const auto& [name, value] : stats.counters()) o.Add(name, Num(value));
  return o.str();
}

std::string CallJson(const perfbench::CallStat& s) {
  return Obj().Add("calls", Num(s.calls)).Add("ns", Num(s.ns)).str();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak RSS of this process image. getrusage's ru_maxrss would also count
/// the forking parent's image, which Linux carries across execve.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// One simulated outcome: what the output checks compare.
std::string OutcomeJson(const std::string& name, bool completed,
                        std::uint64_t exec_cycles, std::uint64_t refs,
                        const StatSet& stats, bool with_counters) {
  Obj o;
  o.Add("name", Str(name))
      .Add("completed", completed ? "true" : "false")
      .Add("exec_cycles", Num(exec_cycles))
      .Add("refs", Num(refs))
      .Add("digest", Str(perfbench::StatsDigest(stats, exec_cycles)));
  if (with_counters) o.Add("counters", CountersJson(stats));
  return o.str();
}

// --- measure: the untraced end-to-end section ----------------------------------

/// Host time before the first simulated cycle: constructing every System
/// the workload simulates (median of five builds per cell, summed).
double SetupSeconds(const Workload& w) {
  double total = 0.0;
  for (const CellSpec& c : w.cells) {
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      auto system = BuildSystem(c.spec);
      t.push_back(SecondsSince(t0));
    }
    std::sort(t.begin(), t.end());
    total += t[2];
  }
  return total;
}

std::string Measure(const Workload& w, bool report) {
  Obj out;
  out.Add("setup_s", Num(SetupSeconds(w)));
  std::vector<std::string> cells;
  double wall = 0.0;
  if (w.kind == Kind::kCell) {
    const RunSpec& spec = w.cells.front().spec;
    auto system = BuildSystem(spec);
    const auto t0 = Clock::now();
    const RunResult r = system->Run(spec.max_cycles);
    wall = SecondsSince(t0);
    cells.push_back(OutcomeJson(CellName(spec), r.completed, r.exec_cycles,
                                r.stats.GetCounter("core.refs"), r.stats,
                                report));
  } else if (w.kind == Kind::kBatch) {
    BatchReport rep;
    BatchOptions opts;
    opts.jobs = w.jobs;
    opts.progress = false;
    opts.label = "perfbench";
    if (report) opts.report = &rep;
    const auto t0 = Clock::now();
    const std::vector<RunResult> results = RunCells(w.cells, opts);
    wall = SecondsSince(t0);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      cells.push_back(OutcomeJson(CellName(w.cells[i].spec), r.completed,
                                  r.exec_cycles, r.stats.GetCounter("core.refs"),
                                  r.stats, report));
    }
    if (report) {
      std::vector<std::string> prof;
      for (const CellProfile& p : rep.cells) {
        prof.push_back(Obj().Add("wall_s", Num(p.wall_seconds))
                           .Add("fingerprint_s", Num(p.fingerprint_seconds))
                           .Add("sim_s", Num(p.sim_seconds))
                           .Add("memo_hit", p.memo_hit ? "true" : "false")
                           .Add("disk_hit", p.disk_hit ? "true" : "false")
                           .str());
      }
      out.Add("batch", Obj().Add("jobs", Num(std::uint64_t{rep.jobs}))
                           .Add("wall_s", Num(rep.wall_seconds))
                           .Add("cells", Arr(prof))
                           .str());
    }
  } else {
    const RunSpec& spec = w.cells.front().spec;
    const auto t0 = Clock::now();
    const SamplingEstimate est = RunSampled(spec, SampledOptions());
    wall = SecondsSince(t0);
    // The estimate's core.refs is ratio-scaled; the functional pass knows
    // the exact total.
    cells.push_back(OutcomeJson(CellName(spec), est.intervals > 0,
                                est.est_stats.GetCounter("sys.exec_cycles"),
                                est.total_refs, est.est_stats, report));
    if (report) {
      out.Add("sampling",
              Obj().Add("intervals", Num(est.intervals))
                  .Add("total_refs", Num(est.total_refs))
                  .Add("est_exec_cycles", Num(est.est_exec_cycles))
                  .Add("ci_half_cycles", Num(est.ci_half_cycles))
                  .Add("ci_pct", Num(est.ci_pct))
                  .Add("functional_s", Num(est.functional_seconds))
                  .Add("replay_s", Num(est.replay_seconds))
                  .Add("degenerate", est.degenerate ? "true" : "false")
                  .str());
    }
  }
  out.Add("wall_s", Num(wall));
  out.Add("cells", Arr(cells));
  out.Add("rss_mb", Num(PeakRssMiB()));
  return out.str();
}

// --- layers: the traced run -----------------------------------------------------

/// Coarse spans (pass, cell, build, run), kept in memory and written out at
/// the end. Spans of one cell share its index.
struct Span {
  std::string name;
  long cell = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  std::uint64_t Now() const { return perfbench::NsBetween(origin_, Clock::now()); }
  void Add(std::string name, long cell, std::uint64_t start) {
    spans_.push_back({std::move(name), cell, start, Now()});
  }
  std::string Json() const {
    std::vector<std::string> items;
    for (const Span& s : spans_) {
      items.push_back(Obj().Add("name", Str(s.name))
                          .Add("cell", std::to_string(s.cell))
                          .Add("start_ns", Num(s.start_ns))
                          .Add("end_ns", Num(s.end_ns))
                          .str());
    }
    return Arr(items);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Everything the traced run needs from one System::Run.
struct CellRun {
  RunResult result;
  double wall_s = 0.0;  ///< System::Run only
};

using Prepare = std::function<void(System&)>;

CellRun RunBuilt(std::unique_ptr<System> system, const RunSpec& spec,
                 const Prepare& prepare, SpanLog& spans, long cell,
                 const std::string& variant, std::uint64_t build_start) {
  spans.Add(variant + ".build", cell, build_start);
  if (prepare) prepare(*system);
  const std::uint64_t run_start = spans.Now();
  const auto t0 = Clock::now();
  CellRun out;
  out.result = system->Run(spec.max_cycles);
  out.wall_s = SecondsSince(t0);
  spans.Add(variant + ".run", cell, run_start);
  return out;
}

std::string RunJson(const CellRun& r) {
  return Obj().Add("wall_s", Num(r.wall_s))
      .Add("completed", r.result.completed ? "true" : "false")
      .Add("exec_cycles", Num(r.result.exec_cycles))
      .Add("ticks", Num(r.result.ticks_executed))
      .Add("skipped", Num(r.result.cycles_skipped))
      .Add("digest", Str(perfbench::StatsDigest(r.result.stats,
                                                r.result.exec_cycles)))
      .str();
}

/// Undecorated and decorated runs of one spec.
std::string PlainAndTraced(const std::string& name, const RunSpec& spec,
                           const Prepare& prepare, SpanLog& spans, long cell,
                           bool with_counters) {
  std::uint64_t t = spans.Now();
  const CellRun plain =
      RunBuilt(BuildSystem(spec), spec, prepare, spans, cell, "plain", t);
  LayerCounts counts;
  t = spans.Now();
  const CellRun traced = RunBuilt(perfbench::BuildTimedSystem(spec, counts),
                                  spec, prepare, spans, cell, "traced", t);
  Obj o;
  o.Add("name", Str(name))
      .Add("refs", Num(plain.result.stats.GetCounter("core.refs")))
      .Add("plain", RunJson(plain))
      .Add("traced", RunJson(traced))
      .Add("visits", Num(counts.visits))
      .Add("tick", CallJson(counts.tick))
      .Add("submit", CallJson(counts.submit))
      .Add("hint", CallJson(counts.hint))
      .Add("next", CallJson(counts.next));
  if (with_counters) o.Add("counters", CountersJson(plain.result.stats));
  return o.str();
}

/// Observability on-cost: the probe spec run plain, with an NDJSON
/// telemetry stream at a fine fixed epoch, and with the trace ring plus a
/// counting spill sink, back to back so the three see the same host load.
/// Neither attachment may change the simulated outcome.
std::string ObsRound(const RunSpec& spec, const Prepare& prepare,
                     const std::string& workdir) {
  const auto run = [&](const Prepare& attach) {
    auto system = BuildSystem(spec);
    if (prepare) prepare(*system);
    if (attach) attach(*system);
    CellRun out;
    const auto t0 = Clock::now();
    out.result = system->Run(spec.max_cycles);
    out.wall_s = SecondsSince(t0);
    return out;
  };
  const CellRun plain = run({});

  const std::string path = workdir + "/probe.ndjson";
  CellRun tele;
  perfbench::CallStat lines;
  {
    auto file = obs::FdTelemetrySink::OpenPath(path);
    perfbench::TimedTelemetrySink sink(*file);
    obs::EpochSampler sampler(kProbeEpochCycles);
    sampler.SetSink(&sink, /*retain_epochs=*/false);
    obs::TelemetryMeta meta = TelemetryMetaOf(spec);
    sink.WriteLine(obs::NdjsonHeaderLine(meta, sampler));
    tele = run([&sampler](System& s) { s.SetTelemetry(&sampler); });
    meta.exec_cycles = tele.result.exec_cycles;
    sink.WriteLine(obs::NdjsonEndLine(meta, sampler));
    if (!sink.ok()) throw std::runtime_error("telemetry probe: write failed");
    lines = sink.lines;
  }
  std::filesystem::remove(path);

  obs::TraceBuffer ring(kProbeRingEvents);
  perfbench::CountingSpill spill;
  ring.SetSpill(&spill);
  CellRun traced;
  {
    const obs::TraceScope scope(&ring);
    traced = run({});
  }
  return Obj().Add("plain", RunJson(plain))
      .Add("telemetry", RunJson(tele))
      .Add("lines", CallJson(lines))
      .Add("trace", RunJson(traced))
      .Add("trace_events", Num(ring.emitted()))
      .Add("trace_spilled", Num(spill.spilled))
      .str();
}

std::string Layers(const Workload& w, const std::string& workdir) {
  SpanLog spans;
  Obj out;
  out.Add("clock_read_ns", Num(perfbench::ClockReadNs()));
  std::vector<std::string> cells;
  Prepare prepare;
  if (w.kind == Kind::kSampled) {
    // The truth for the sampled estimate: a full detailed run.
    const RunSpec& spec = w.cells.front().spec;
    const std::uint64_t t = spans.Now();
    const CellRun truth = RunBuilt(BuildSystem(spec), spec, {}, spans, 0,
                                   "truth", t);
    out.Add("truth", RunJson(truth));
    // The decorated pass is the sampler's functional fast-forward.
    const Cycle latency = SampledOptions().functional_latency;
    prepare = [latency](System& s) { s.SetFunctionalTiming(latency); };
  }
  const std::uint64_t pass_start = spans.Now();
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const RunSpec& spec = w.cells[i].spec;
    const std::uint64_t t = spans.Now();
    cells.push_back(PlainAndTraced(CellName(spec), spec, prepare, spans,
                                   static_cast<long>(i),
                                   w.kind != Kind::kSampled));
    spans.Add("cell", static_cast<long>(i), t);
  }
  spans.Add("pass", -1, pass_start);
  out.Add("cells", Arr(cells));
  out.Add("probe", Str(CellName(ProbeSpec(w))));
  std::vector<std::string> rounds;
  for (int i = 0; i < kProbeRounds; ++i) {
    rounds.push_back(ObsRound(ProbeSpec(w), prepare, workdir));
  }
  out.Add("obs", Arr(rounds));
  out.Add("spans", spans.Json());
  return out.str();
}

/// The build and the workload's scale, recorded with every result.
std::string Info(const Workload& w) {
  std::vector<double> scales;
  for (const CellSpec& c : w.cells) scales.push_back(c.spec.scale);
  std::sort(scales.begin(), scales.end());
  scales.erase(std::unique(scales.begin(), scales.end()), scales.end());
  std::vector<std::string> items;
  for (double s : scales) items.push_back(Num(s));
  return Obj().Add("compiler", Str(PERFBENCH_COMPILER))
      .Add("flags", Str(PERFBENCH_FLAGS))
      .Add("build_type", Str(PERFBENCH_BUILD_TYPE))
      .Add("nproc", Num(std::uint64_t{std::thread::hardware_concurrency()}))
      .Add("workload", Str(w.name))
      .Add("jobs", Num(std::uint64_t{w.jobs}))
      .Add("scale", scales.size() == 1 ? items[0] : Arr(items))
      .str();
}

// --- entry point ------------------------------------------------------------------

/// The simulator reads these; the benchmark pins them by refusing to run
/// with any of them set (run.py clears them). REDCACHE_CACHE_DIR is the one
/// exception: measuring the sweep-warm workload sets it on purpose.
bool EnvironmentIsClean(bool wants_cache_dir, std::string* why) {
  for (const char* var : {"REDCACHE_REFS_SCALE", "REDCACHE_JOBS",
                          "REDCACHE_CACHE_MAX_MB", "REDCACHE_NO_SKIP"}) {
    if (std::getenv(var) != nullptr) {
      *why = std::string(var) + " is set";
      return false;
    }
  }
  const char* progress = std::getenv("REDCACHE_PROGRESS");
  if (progress == nullptr || std::string(progress) != "0") {
    *why = "REDCACHE_PROGRESS must be 0";
    return false;
  }
  if ((std::getenv("REDCACHE_CACHE_DIR") != nullptr) != wants_cache_dir) {
    *why = "REDCACHE_CACHE_DIR must be set to measure sweep-warm, and only then";
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_child info <workload>\n"
               "       perfbench_child measure <workload> --seed N [--report]\n"
               "       perfbench_child layers <workload> --seed N --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) return Usage();
  if (args.size() == 2 && args[0] == "info") {
    try {
      std::printf("%s\n", Info(MakeBenchWorkload(args[1], 1)).c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  const std::string& mode = args[0];
  const std::string& workload = args[1];
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool report = false;
  std::string workdir;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--seed" && i + 1 < args.size()) {
      char* end = nullptr;
      seed = std::strtoull(args[++i].c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !args[i].empty();
    } else if (args[i] == "--report") {
      report = true;
    } else if (args[i] == "--workdir" && i + 1 < args.size()) {
      workdir = args[++i];
    } else {
      return Usage();
    }
  }
  if (!have_seed || (mode != "measure" && mode != "layers") ||
      (mode == "layers" && workdir.empty())) {
    return Usage();
  }
  const std::string flags = PERFBENCH_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    std::fprintf(stderr, "perfbench: refusing a build with flags \"%s\"\n",
                 flags.c_str());
    return 2;
  }
  std::string why;
  if (!EnvironmentIsClean(mode == "measure" && workload == "sweep-warm",
                          &why)) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    return 2;
  }
  try {
    const Workload w = MakeBenchWorkload(workload, seed);
    const std::string json =
        mode == "measure" ? Measure(w, report) : Layers(w, workdir);
    std::printf("%s\n", json.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
