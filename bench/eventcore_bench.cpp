// Event-core economics bench: wall-clock cost of the wake-driven scheduler
// against forced single-cycle stepping (REDCACHE_NO_SKIP=1), on
//   * a loaded DRAM queue (busy channels, skip-ahead mostly inactive),
//   * an idle-heavy sparse-traffic scenario (one read burst every few
//     thousand cycles, where the wake list carries the run), and
//   * one full RedCache evaluation cell.
// Both modes of each scenario must produce identical simulation results
// (the no-skip differential, re-asserted here); only wall time may differ.
//
// Every section runs REDCACHE_BENCH_REPS repetitions (default 5), with the
// stepped and event variants interleaved so frequency drift and background
// load hit both sides alike, and reports p50/p95 wall times per variant.
// Speedups quoted (and written to results/BENCH_eventcore.json) are ratios
// of the p50s, so a single noisy sample cannot fake or hide a regression.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dram/dram_system.hpp"
#include "sim/runner.hpp"

namespace {

using namespace redcache;
using namespace redcache::bench;

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

int Reps() {
  const char* env = std::getenv("REDCACHE_BENCH_REPS");
  const int reps = env != nullptr ? std::atoi(env) : 5;
  return reps > 0 ? reps : 5;
}

/// Nearest-rank percentile over a small sample (p in [0, 100]).
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

struct SampleSet {
  std::vector<double> stepped;
  std::vector<double> event;
  double stepped_p50() const { return Percentile(stepped, 50); }
  double stepped_p95() const { return Percentile(stepped, 95); }
  double event_p50() const { return Percentile(event, 50); }
  double event_p95() const { return Percentile(event, 95); }
  double speedup() const {
    const double e = event_p50();
    return e > 0 ? stepped_p50() / e : 0;
  }
  void EmitJson(std::ofstream& json) const {
    json << "\"stepped_seconds_p50\": " << stepped_p50()
         << ", \"stepped_seconds_p95\": " << stepped_p95()
         << ", \"event_seconds_p50\": " << event_p50()
         << ", \"event_seconds_p95\": " << event_p95()
         << ", \"speedup\": " << speedup();
  }
};

struct DramPass {
  double seconds = 0;
  std::uint64_t completed = 0;
  std::uint64_t visits = 0;
};

/// Sparse traffic over a DramSystem: one read per 6000-cycle window.
/// `step` drives every cycle; otherwise the loop jumps to NextEventHint
/// the way System::Run does.
DramPass IdleSparsePass(bool step, std::uint64_t windows) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  Cycle now = 0;
  Addr addr = 0;
  DramPass out;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t w = 0; w < windows; ++w) {
    if (sys.CanAccept(addr)) sys.Enqueue(addr, false, now);
    addr = (addr + 4096) % 8_MiB;
    const Cycle horizon = now + 6000;
    while (now < horizon) {
      sys.Tick(now);
      out.completed += sys.completions().size();
      sys.completions().clear();
      now = step ? now + 1
                 : std::min(horizon,
                            std::max(now + 1, sys.NextEventHint(now)));
      ++out.visits;
    }
  }
  out.seconds = Seconds(t0, std::chrono::steady_clock::now());
  return out;
}

/// Saturated queues: four fresh requests at every even cycle up to a fixed
/// simulated horizon, so both modes do identical simulation work. Event
/// pacing is clamped to the next enqueue slot; stepping visits the odd
/// cycles too and must find them to be no-ops.
DramPass LoadedPass(bool step, Cycle horizon) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  Cycle now = 0;
  std::uint64_t lcg = 12345;
  DramPass out;
  const auto t0 = std::chrono::steady_clock::now();
  while (now < horizon) {
    if ((now & 1) == 0) {
      for (int k = 0; k < 4; ++k) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const Addr addr = ((lcg >> 16) % 8_MiB) & ~Addr{63};
        if (sys.CanAccept(addr)) sys.Enqueue(addr, ((lcg >> 12) & 7) < 3, now);
      }
    }
    sys.Tick(now);
    out.completed += sys.completions().size();
    sys.completions().clear();
    const Cycle next_enqueue = (now & ~Cycle{1}) + 2;
    now = step ? now + 1
               : std::min(next_enqueue,
                          std::max(now + 1, sys.NextEventHint(now)));
    ++out.visits;
  }
  out.seconds = Seconds(t0, std::chrono::steady_clock::now());
  return out;
}

struct CellPass {
  double seconds = 0;
  RunResult result;
};

CellPass FullSystemPass(bool no_skip) {
  if (no_skip) {
    ::setenv("REDCACHE_NO_SKIP", "1", 1);
  } else {
    ::unsetenv("REDCACHE_NO_SKIP");
  }
  RunSpec spec;
  spec.policy = "RedCache";
  spec.workload = "LU";
  spec.scale = EffectiveScale(0.25 * DefaultScale());
  spec.ignore_env_scale = true;
  CellPass out;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = RunOne(spec);
  out.seconds = Seconds(t0, std::chrono::steady_clock::now());
  ::unsetenv("REDCACHE_NO_SKIP");
  return out;
}

}  // namespace

int main() {
  const int reps = Reps();
  std::printf(
      "eventcore — wake-driven scheduler vs single-cycle stepping "
      "(%d reps, interleaved)\n\n",
      reps);

  SampleSet idle, loaded, cell;
  std::uint64_t idle_event_visits = 0, idle_stepped_visits = 0;
  std::uint64_t cell_ticks = 0, cell_skipped = 0;
  bool ok = true;

  for (int r = 0; r < reps; ++r) {
    const DramPass ie = IdleSparsePass(false, 2000);
    const DramPass is = IdleSparsePass(true, 2000);
    idle.event.push_back(ie.seconds);
    idle.stepped.push_back(is.seconds);
    idle_event_visits = ie.visits;
    idle_stepped_visits = is.visits;
    if (ie.completed != is.completed) ok = false;

    const DramPass le = LoadedPass(false, 800000);
    const DramPass ls = LoadedPass(true, 800000);
    loaded.event.push_back(le.seconds);
    loaded.stepped.push_back(ls.seconds);
    if (le.completed != ls.completed) ok = false;

    const CellPass ce = FullSystemPass(false);
    const CellPass cs = FullSystemPass(true);
    cell.event.push_back(ce.seconds);
    cell.stepped.push_back(cs.seconds);
    cell_ticks = ce.result.ticks_executed;
    cell_skipped = ce.result.cycles_skipped;
    if (ce.result.exec_cycles != cs.result.exec_cycles ||
        ce.result.stats.counters() != cs.result.stats.counters()) {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: skip vs no-skip results differ in some repetition\n");
  }

  const double skip_pct =
      cell_ticks + cell_skipped > 0
          ? 100.0 * static_cast<double>(cell_skipped) /
                static_cast<double>(cell_ticks + cell_skipped)
          : 0;

  TextTable table({"scenario", "stepped p50", "p95", "event p50", "p95",
                   "speedup"});
  const auto row = [&table](const char* name, const SampleSet& s) {
    table.AddRow({name, TextTable::Num(s.stepped_p50(), 3),
                  TextTable::Num(s.stepped_p95(), 3),
                  TextTable::Num(s.event_p50(), 3),
                  TextTable::Num(s.event_p95(), 3),
                  TextTable::Num(s.speedup(), 2)});
  };
  row("dram idle-sparse", idle);
  row("dram loaded", loaded);
  row("RedCache/LU cell", cell);
  std::printf("%s\n", table.Render().c_str());
  std::printf("cell skip ratio: %.1f%% of cycles skipped (%llu ticks, %llu "
              "skipped)\n",
              skip_pct, static_cast<unsigned long long>(cell_ticks),
              static_cast<unsigned long long>(cell_skipped));

  std::filesystem::create_directories("results");
  std::ofstream json("results/BENCH_eventcore.json");
  json << "{\n"
       << "  \"bench\": \"eventcore\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"idle_sparse\": {";
  idle.EmitJson(json);
  json << ", \"event_visits\": " << idle_event_visits
       << ", \"stepped_visits\": " << idle_stepped_visits << "},\n"
       << "  \"loaded\": {";
  loaded.EmitJson(json);
  json << "},\n"
       << "  \"full_system\": {\"arch\": \"RedCache\", \"workload\": \"LU\", ";
  cell.EmitJson(json);
  json << ", \"ticks_executed\": " << cell_ticks
       << ", \"cycles_skipped\": " << cell_skipped
       << ", \"skip_pct\": " << skip_pct << "},\n"
       << "  \"identical_results\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote results/BENCH_eventcore.json\n");
  return ok ? 0 : 1;
}
