// redcache_cli — the swiss-army driver for one-off experiments.
//
//   redcache_cli --policy RedCache --workload LU
//   redcache_cli --policy Alloy --workload RDX --scale 0.5 --stats
//   redcache_cli --policy RedCache-4way --workload FT   # associative RedCache
//   redcache_cli --policy Footprint-2KB --workload HIST  # coarse-grained cache
//   redcache_cli --policy Red-Basic --alpha 2 --gamma 16  # pinned thresholds
//   redcache_cli --capture lu.rctr --workload LU        # snapshot a trace
//   redcache_cli --policy Bear --replay lu.rctr         # replay it
//   redcache_cli --policy RedCache --workload LU
//       --telemetry t.ndjson --trace t.perfetto.json    # observability
//   redcache_cli --sweep --jobs 4                       # full eval matrix
//   redcache_cli --sweep --policies Alloy,RedCache --workloads LU,RDX
//   redcache_cli --list
//
// Every single run — plain, mix, serve/replay, checkpoint, restore or
// sampled — is one RunSpec built from the flags; --sweep runs the same
// spec per (policy x workload) cell. A flag that cannot apply to the
// requested run is a usage error, never silently ignored.
//
// Exit code 0 on success, 1 on a run error, 2 on a usage error; prints a
// one-line summary plus optional full counter dump.
#include <signal.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "dramcache/policy_registry.hpp"
#include "obs/epoch_sampler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_spill.hpp"
#include "sim/batch.hpp"
#include "sim/sampling.hpp"
#include "tenant/mix_trace.hpp"
#include "tenant/qos.hpp"
#include "verify/shadow_checker.hpp"
#include "workloads/trace_file.hpp"

namespace {

using namespace redcache;

struct CliOptions {
  std::optional<std::string> policy;    ///< default RedCache
  std::optional<std::string> workload;  ///< default LU
  std::optional<std::string> replay_path;
  std::optional<std::string> capture_path;
  std::optional<std::string> telemetry_path;  ///< NDJSON epoch stream
                                              ///< ("-" = stdout)
  std::optional<std::string> trace_out_path;  ///< Chrome trace-event JSON
  std::optional<std::string> report_path;     ///< --sweep/--sample report
  obs::EpochSpec epoch;                       ///< --epoch N | auto[:MIN:MAX]
  std::size_t trace_window = 0;  ///< --trace ring capacity; spill the rest
  std::string telemetry_dir;     ///< --sweep per-cell NDJSON directory
  double scale = 1.0;
  bool paper_preset = false;
  bool dump_stats = false;
  bool list = false;
  bool verify = false;            ///< shadow-check the run
  std::optional<std::uint64_t> hbm_mib;
  std::optional<std::uint32_t> alpha;
  std::optional<std::uint32_t> gamma;
  std::uint64_t seed = 1;
  std::string mix;                ///< --mix "LU:2,RDX:1@8" tenant list
  tenant::TenantAddressMap::Mode mix_mode =
      tenant::TenantAddressMap::Mode::kOffset;
  std::uint32_t mix_window_bits = 0;  ///< 0 = planner default
  std::string serve_path;         ///< stream an RCTR trace ("-" = stdin)
  std::string checkpoint_path;    ///< --checkpoint blob destination
  Cycle checkpoint_at = 0;        ///< --checkpoint-at cycle (default 0)
  std::string restore_path;       ///< --restore blob to resume from
  std::optional<SamplingOptions> sample;  ///< --sample P[:INTERVAL]
  bool no_solo = false;           ///< skip the solo baselines for --mix QoS
  bool sweep = false;             ///< run a (policy x workload) matrix
  std::string sweep_policies;     ///< comma list; empty = evaluation set
  std::string sweep_workloads;    ///< comma list; empty = all Table II
  unsigned jobs = 0;              ///< --sweep/--sample workers (0 = auto)
};

void PrintUsage() {
  std::printf(
      "usage: redcache_cli [options]\n"
      "  --policy NAME      registered cache policy (--list shows them;\n"
      "                     default RedCache)\n"
      "  --workload LABEL   Table II label (default LU)\n"
      "  --replay FILE      replay a captured trace file instead of a\n"
      "                     workload (composes with --checkpoint/--sample)\n"
      "  --capture FILE     write the workload's trace to FILE and exit\n"
      "  --telemetry FILE   stream the per-epoch time series as NDJSON\n"
      "                     records to FILE (a file or FIFO; \"-\" = stdout)\n"
      "                     as epochs close, whatever FILE is named\n"
      "  --trace FILE       write a Chrome trace-event JSON (Perfetto /\n"
      "                     chrome://tracing) of DRAM commands + decisions\n"
      "  --trace-window N   keep an N-event ring and spill older events to\n"
      "                     the --trace file incrementally: full-run traces\n"
      "                     in bounded memory (default: ring only, last 256K)\n"
      "  --epoch SPEC       telemetry epoch pacing: N cycles, \"auto\"\n"
      "                     (variance-driven, clamped to [preset/8, 4x]),\n"
      "                     or \"auto:MIN:MAX\" (explicit clamp band)\n"
      "  --scale X          workload scale factor > 0 (default 1.0)\n"
      "  --paper            use the verbatim Table I preset (2 GiB HBM)\n"
      "  --hbm-mib N        override HBM cache capacity (N >= 1)\n"
      "  --alpha N          pin alpha (disables adaptation; redcache family)\n"
      "  --gamma N          pin gamma (disables adaptation; redcache family)\n"
      "  --seed N           simulation seed\n"
      "  --mix SPEC         co-schedule tenants: LABEL[:WEIGHT[@MIN_GAP]]\n"
      "                     comma-separated, e.g. LU:2,RDX:1@8. The label\n"
      "                     \"serve\" streams from --serve. Prints per-tenant\n"
      "                     QoS lines (hit rate, bandwidth share, slowdown\n"
      "                     vs solo) after the run.\n"
      "  --mix-mode M       tenant address placement: offset (disjoint\n"
      "                     windows, default) or interleave (page-granular)\n"
      "  --mix-window-bits N  override the per-tenant window size (log2)\n"
      "  --no-solo          skip the solo baseline runs (QoS lines then\n"
      "                     omit the slowdown column)\n"
      "  --serve PATH       serve mode: ingest an RCTR trace stream from a\n"
      "                     pipe / FIFO / file (\"-\" = stdin); SIGTERM or\n"
      "                     EOF drains gracefully; cannot be checkpointed\n"
      "  --checkpoint FILE  write a full-state checkpoint blob to FILE\n"
      "  --checkpoint-at N  cycle for --checkpoint (default 0 = run start)\n"
      "  --restore FILE     resume from a checkpoint blob captured by a run\n"
      "                     with the same policy/workload/preset/seed;\n"
      "                     the resumed run is bit-identical to the\n"
      "                     uninterrupted one\n"
      "  --sample P[:INT]   SMARTS sampled run: fast-forward functionally,\n"
      "                     replay a fraction P of cycles in detail in\n"
      "                     parallel (interval INT cycles, default 200000)\n"
      "                     and report estimates with a 95%% CI\n"
      "  --verify           run under the shadow checker; exit 1 on any\n"
      "                     divergence from the reference memory model\n"
      "  --stats            dump every counter after the run\n"
      "  --sweep            run a (policy x workload) matrix on a worker\n"
      "                     pool; --scale/--paper/--hbm-mib/--seed/--alpha/\n"
      "                     --gamma/--mix apply to every cell\n"
      "  --report FILE      write a host-side profiling report of --sweep\n"
      "                     or --sample (per-cell wall time, cache layer,\n"
      "                     phases, per-cell telemetry paths + epoch counts)\n"
      "  --telemetry-dir D  with --sweep: stream each simulated cell's\n"
      "                     NDJSON series to D/<cell-key>.ndjson\n"
      "  --policies A,B,..  policies for --sweep (default: every policy\n"
      "                     registered with sweep=true)\n"
      "  --workloads X,Y,.. workloads for --sweep (default: all Table II)\n"
      "  --jobs N           worker threads for --sweep/--sample (default:\n"
      "                     REDCACHE_JOBS, then hardware concurrency)\n"
      "  --list             list registered policies and workloads\n");
}

/// "P[:INTERVAL]" for --sample: P in (0, 1], INTERVAL >= 1 cycles.
bool ParseSample(std::string_view text, SamplingOptions& out) {
  const std::size_t colon = text.find(':');
  return ParseNumber(text.substr(0, colon), std::numeric_limits<double>::min(),
                     1.0, out.fraction) &&
         (colon == std::string_view::npos ||
          ParseNumber(text.substr(colon + 1), Cycle{1},
                      std::numeric_limits<Cycle>::max(), out.interval_cycles));
}

bool ParseArgs(int argc, char** argv, CliOptions& opt) {
  // Value flags store through a setter; a false return is a usage error
  // whose message the setter has printed.
  using Setter = std::function<bool(const std::string& flag, const char* v)>;
  const auto text = [](auto& out) -> Setter {
    return [&out](const std::string&, const char* v) {
      out = v;
      return true;
    };
  };
  const auto number = [](const char* want, auto lo, auto hi,
                         auto& out) -> Setter {
    return [want, lo, hi, &out](const std::string& flag, const char* v) {
      decltype(lo) parsed{};
      if (!ParseNumber(v, lo, hi, parsed)) {
        std::fprintf(stderr, "bad %s %s (want %s)\n", flag.c_str(), v, want);
        return false;
      }
      out = parsed;
      return true;
    };
  };
  const auto special = [](const char* want, auto parse) -> Setter {
    return [want, parse](const std::string& flag, const char* v) {
      if (parse(v)) return true;
      std::fprintf(stderr, "bad %s %s (want %s)\n", flag.c_str(), v, want);
      return false;
    };
  };
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  const std::map<std::string, Setter> values = {
      {"--policy", text(opt.policy)},
      {"--workload", text(opt.workload)},
      {"--replay", text(opt.replay_path)},
      {"--capture", text(opt.capture_path)},
      {"--telemetry", text(opt.telemetry_path)},
      {"--trace", text(opt.trace_out_path)},
      {"--report", text(opt.report_path)},
      {"--telemetry-dir", text(opt.telemetry_dir)},
      {"--mix", text(opt.mix)},
      {"--serve", text(opt.serve_path)},
      {"--checkpoint", text(opt.checkpoint_path)},
      {"--restore", text(opt.restore_path)},
      {"--policies", text(opt.sweep_policies)},
      {"--workloads", text(opt.sweep_workloads)},
      {"--scale", number("X in (0, 1e6]", std::numeric_limits<double>::min(),
                         1e6, opt.scale)},
      {"--hbm-mib", number("N in [1, 2^20]", std::uint64_t{1},
                           std::uint64_t{1} << 20, opt.hbm_mib)},
      {"--alpha", number("N in [0, 255]", 0u, 255u, opt.alpha)},
      {"--gamma", number("N in [0, 255]", 0u, 255u, opt.gamma)},
      {"--seed", number("an unsigned 64-bit N", std::uint64_t{0}, kU64Max,
                        opt.seed)},
      {"--mix-window-bits", number("N in [0, 63]", 0u, 63u,
                                   opt.mix_window_bits)},
      {"--checkpoint-at", number("a cycle N >= 0", Cycle{0}, kU64Max,
                                 opt.checkpoint_at)},
      {"--trace-window", number("N in [1, 2^32]", std::size_t{1},
                                std::size_t{1} << 32, opt.trace_window)},
      {"--jobs", number("N in [0, 4096]", 0u, 4096u, opt.jobs)},
      {"--epoch", special("N, auto, or auto:MIN:MAX",
                          [&opt](const char* v) {
                            return obs::ParseEpochSpec(v, opt.epoch);
                          })},
      {"--sample", special("P in (0, 1], optionally :INTERVAL cycles >= 1",
                           [&opt](const char* v) {
                             SamplingOptions sopts;
                             if (!ParseSample(v, sopts)) return false;
                             opt.sample = sopts;
                             return true;
                           })},
      {"--mix-mode", special("offset or interleave", [&opt](const char* v) {
         const std::string mode = v;
         opt.mix_mode = mode == "interleave"
                            ? tenant::TenantAddressMap::Mode::kInterleave
                            : tenant::TenantAddressMap::Mode::kOffset;
         return mode == "offset" || mode == "interleave";
       })},
  };
  const std::map<std::string, bool*> switches = {
      {"--paper", &opt.paper_preset}, {"--stats", &opt.dump_stats},
      {"--list", &opt.list},          {"--verify", &opt.verify},
      {"--sweep", &opt.sweep},        {"--no-solo", &opt.no_solo},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    }
    if (const auto sw = switches.find(arg); sw != switches.end()) {
      *sw->second = true;
      continue;
    }
    const auto flag = values.find(arg);
    if (flag == values.end()) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    if (!flag->second(arg, argv[++i])) return false;
  }
  if (opt.sample) opt.sample->jobs = opt.jobs;
  return true;
}

/// Flag combinations that cannot apply to the requested run. Returns the
/// usage error, or an empty string when the flags compose.
std::string CombinationError(const CliOptions& opt) {
  struct Rule {
    bool violated;
    const char* message;
  };
  const bool checkpointed = !opt.checkpoint_path.empty() ||
                            !opt.restore_path.empty() || opt.sample;
  const Rule rules[] = {
      // --sweep runs many cells: per-run flags have no single run to
      // apply to, and the sweep has its own policy/workload lists.
      {opt.sweep && opt.policy.has_value(),
       "--sweep takes --policies, not --policy"},
      {opt.sweep && opt.workload.has_value(),
       "--sweep takes --workloads, not --workload"},
      {opt.sweep && (opt.replay_path || !opt.serve_path.empty() ||
                     opt.capture_path),
       "--sweep cannot replay, serve or capture a trace"},
      {opt.sweep && (opt.telemetry_path || opt.trace_out_path),
       "--sweep streams per-cell telemetry with --telemetry-dir; --telemetry "
       "and --trace are single-run flags"},
      {opt.sweep && (checkpointed || opt.verify || opt.dump_stats),
       "--checkpoint, --restore, --sample, --verify and --stats are "
       "single-run flags; drop them or --sweep"},
      {!opt.sweep && (!opt.sweep_policies.empty() ||
                      !opt.sweep_workloads.empty() ||
                      !opt.telemetry_dir.empty()),
       "--policies, --workloads and --telemetry-dir need --sweep"},
      {!opt.sweep && opt.report_path && !opt.sample,
       "--report needs --sweep or --sample"},
      {!opt.mix.empty() && opt.workload.has_value(),
       "--mix replaces --workload; list the tenants in --mix"},
      {opt.replay_path && !opt.serve_path.empty(),
       "--replay and --serve both name the trace stream; pick one"},
      {opt.sample && (!opt.checkpoint_path.empty() ||
                      !opt.restore_path.empty()),
       "--sample manages its own checkpoints; drop --checkpoint/--restore"},
      {opt.sample && (opt.telemetry_path || opt.trace_out_path),
       "--telemetry and --trace observe one detailed run; a sampled run "
       "has none"},
      {checkpointed && !opt.serve_path.empty(),
       "a --serve stream cannot be checkpointed or sampled; capture it to "
       "a file and --replay that"},
  };
  for (const Rule& r : rules) {
    if (r.violated) return r.message;
  }
  return "";
}

/// --alpha/--gamma pin RedCache thresholds: a usage error for any policy
/// outside the redcache family.
bool PinsApply(const CliOptions& opt, const std::string& policy) {
  if (!opt.alpha && !opt.gamma) return true;
  const PolicyInfo& info = GetPolicy(policy);
  if (AcceptsThresholdPins(info)) return true;
  std::fprintf(stderr,
               "--alpha/--gamma pin RedCache thresholds; %.*s belongs to the "
               "%.*s family\n",
               static_cast<int>(info.name.size()), info.name.data(),
               static_cast<int>(info.family.size()), info.family.data());
  return false;
}

/// The result-shaping part of the flags — exactly what a batch cell
/// carries. Sweep cells override policy/workload; mix solo baselines drop
/// the mix.
RunSpec CellSpecFromFlags(const CliOptions& opt) {
  RunSpec spec;
  spec.policy = opt.policy.value_or("RedCache");
  spec.workload = opt.workload.value_or("LU");
  spec.preset = opt.paper_preset ? PaperPreset() : EvalPreset();
  if (opt.hbm_mib) spec.preset.mem.hbm = HbmCacheConfig(*opt.hbm_mib << 20);
  spec.scale = opt.scale;
  spec.seed = opt.seed;
  spec.alpha_pin = opt.alpha;
  spec.gamma_pin = opt.gamma;
  if (!opt.mix.empty()) {
    spec.mix = tenant::MixSpec::Parse(opt.mix);
    spec.mix.mode = opt.mix_mode;
    spec.mix.window_bits = opt.mix_window_bits;
  }
  return spec;
}

/// The single run the flags describe.
RunSpec SpecFromFlags(const CliOptions& opt) {
  RunSpec spec = CellSpecFromFlags(opt);
  spec.verify = opt.verify;
  spec.serve_path = opt.replay_path.value_or(opt.serve_path);
  spec.telemetry_path = opt.telemetry_path.value_or("");
  spec.epoch = opt.epoch;
  spec.checkpoint_path = opt.checkpoint_path;
  spec.checkpoint_at = opt.checkpoint_at;
  spec.restore_path = opt.restore_path;
  return spec;
}

/// The policy plus any pins: "RedCache", "Red-Basic[alpha=2]".
std::string PolicyLabel(const RunSpec& spec) {
  std::string pins;
  if (spec.alpha_pin) pins += "alpha=" + std::to_string(*spec.alpha_pin);
  if (spec.gamma_pin) {
    pins += (pins.empty() ? "" : ",") + std::string("gamma=") +
            std::to_string(*spec.gamma_pin);
  }
  return pins.empty() ? spec.policy : spec.policy + "[" + pins + "]";
}

/// Where human-readable run output goes: stderr when `--telemetry -` owns
/// stdout for the NDJSON stream, stdout otherwise.
FILE* HumanOut(const CliOptions& opt) {
  return opt.telemetry_path && *opt.telemetry_path == "-" ? stderr : stdout;
}

/// Write the command trace through the spill writer's Finish: in windowed
/// mode the file already holds the spilled prefix; otherwise the ring is
/// written whole.
bool FinishTrace(const CliOptions& opt, obs::TraceBuffer& ring,
                 obs::TraceSpillWriter* spill, FILE* out) {
  const std::string& path = *opt.trace_out_path;
  std::optional<obs::TraceSpillWriter> whole;
  obs::TraceSpillWriter& writer =
      spill != nullptr ? *spill : whole.emplace(path);
  const std::uint64_t spilled = writer.spilled();
  if (!writer.Finish(ring)) {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
    return false;
  }
  const auto emitted = static_cast<unsigned long long>(ring.emitted());
  if (spill != nullptr) {
    std::fprintf(out,
                 "trace: %llu events (%llu spilled, window %zu, 0 dropped)",
                 emitted, static_cast<unsigned long long>(spilled),
                 ring.capacity());
  } else {
    std::fprintf(out, "trace: %llu events (%llu dropped, ring %zu)", emitted,
                 static_cast<unsigned long long>(ring.dropped()),
                 ring.capacity());
  }
  std::fprintf(out, " -> %s (load in Perfetto / chrome://tracing)\n",
               path.c_str());
  return true;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : list) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// "LU+RDX" — human-readable tenant list for cache keys and table rows.
std::string JoinedTenantLabels(const tenant::MixSpec& mix) {
  std::string joined;
  for (const tenant::TenantSpec& t : mix.tenants) {
    if (!joined.empty()) joined += "+";
    joined += t.workload;
  }
  return joined;
}

/// Print one QoS line per tenant of `mix`.
void PrintQos(FILE* out, const tenant::MixSpec& mix,
              const std::vector<tenant::TenantQos>& rows,
              const char* indent) {
  for (const tenant::TenantQos& row : rows) {
    const std::string label =
        row.tenant < mix.num_tenants() ? mix.tenants[row.tenant].workload
                                       : "?";
    std::fprintf(out, "%s%s\n", indent,
                 tenant::FormatQosLine(rows, row, label).c_str());
  }
}

/// --sweep: the (policy x workload) evaluation matrix on the batch engine.
/// Cells go through the disk cache when REDCACHE_CACHE_DIR is set.
int RunSweep(const CliOptions& opt) {
  std::vector<std::string> policies;
  if (opt.sweep_policies.empty()) {
    policies = DefaultSweepPolicies();
  } else {
    for (const std::string& name : SplitCommas(opt.sweep_policies)) {
      GetPolicy(name);  // fail fast with the full list
      policies.push_back(name);
    }
  }
  for (const std::string& p : policies) {
    if (!PinsApply(opt, p)) return 2;
  }
  // Every cell is the flags' spec with its own policy and workload. With
  // --mix the matrix is (policy x one mix cell), plus each tenant's solo
  // cell for the slowdown column.
  const RunSpec base = CellSpecFromFlags(opt);
  const tenant::MixSpec& mix = base.mix;
  const std::vector<std::string> workloads =
      mix.active() ? std::vector<std::string>{"mix:" + mix.Describe()}
      : opt.sweep_workloads.empty() ? WorkloadLabels()
                                    : SplitCommas(opt.sweep_workloads);

  std::vector<CellSpec> cells;
  cells.reserve(policies.size() * workloads.size());
  for (const std::string& wl : workloads) {
    for (const std::string& p : policies) {
      CellSpec cell{base, ""};
      cell.spec.policy = p;
      cell.spec.workload = mix.active() ? JoinedTenantLabels(mix) : wl;
      cells.push_back(std::move(cell));
    }
  }
  const std::size_t num_mix_cells = cells.size();
  if (mix.active() && !opt.no_solo) {
    for (const std::string& p : policies) {
      for (const tenant::TenantSpec& t : mix.tenants) {
        CellSpec solo{base, ""};
        solo.spec.policy = p;
        solo.spec.workload = t.workload;
        solo.spec.mix = {};
        cells.push_back(std::move(solo));
      }
    }
  }

  BatchOptions bopts;
  bopts.jobs = opt.jobs;
  bopts.label = "sweep";
  bopts.telemetry_dir = opt.telemetry_dir;
  bopts.epoch = opt.epoch;
  BatchReport report;
  if (opt.report_path || !opt.telemetry_dir.empty()) bopts.report = &report;
  const std::vector<RunResult> results = RunCells(cells, bopts);
  if (!opt.telemetry_dir.empty()) {
    std::size_t streamed = 0;
    std::uint64_t epochs = 0;
    for (const CellProfile& c : report.cells) {
      if (c.telemetry_path.empty()) continue;
      streamed++;
      epochs += c.telemetry_epochs;
    }
    std::printf("telemetry: %zu/%zu cells streamed %llu epochs -> %s/ "
                "(cache hits carry no telemetry)\n",
                streamed, report.cells.size(),
                static_cast<unsigned long long>(epochs),
                opt.telemetry_dir.c_str());
  }
  if (opt.report_path) {
    if (!WriteBatchReportJson(*opt.report_path, report)) {
      std::fprintf(stderr, "failed to write report to %s\n",
                   opt.report_path->c_str());
      return 1;
    }
    std::printf("batch report written to %s\n", opt.report_path->c_str());
  }

  std::vector<std::string> header = {"workload"};
  for (const std::string& p : policies) header.push_back(p);
  TextTable table(header);
  std::size_t idx = 0;
  for (const std::string& wl : workloads) {
    std::vector<std::string> row = {wl};
    for (std::size_t a = 0; a < policies.size(); ++a) {
      row.push_back(TextTable::Num(
          static_cast<double>(results[idx++].exec_cycles) / 1e6, 1));
    }
    table.AddRow(std::move(row));
  }
  std::printf("execution time (Mcycles), %s preset, scale %.2f:\n%s\n",
              base.preset.name, opt.scale, table.Render().c_str());

  // Per-tenant QoS under every policy — printed only for a mix sweep;
  // classic sweeps emit exactly the table above.
  if (mix.active()) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<tenant::TenantQos> rows =
          tenant::QosFromStats(results[p].stats);
      if (!opt.no_solo) {
        for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
          const RunResult& solo =
              results[num_mix_cells + p * mix.tenants.size() + t];
          tenant::ApplySoloBaseline(rows, static_cast<std::uint32_t>(t),
                                    solo.exec_cycles);
        }
      }
      std::printf("%s:\n", policies[p].c_str());
      PrintQos(stdout, mix, rows, "  ");
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Single runs.

volatile std::sig_atomic_t g_serve_stop = 0;

void OnServeStop(int) { g_serve_stop = 1; }

/// SIGTERM/SIGINT request a graceful drain: the handler only sets the flag,
/// and SA_RESTART is deliberately absent so a blocked stream read() returns
/// EINTR and notices the request instead of resuming forever.
void InstallServeSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = OnServeStop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// The StreamTraceSource feeding this run, if any: the trace itself in
/// plain serve/replay mode, or the "serve" tenant inside a mix.
StreamTraceSource* FindStream(TraceSource& trace) {
  if (auto* s = dynamic_cast<StreamTraceSource*>(&trace)) return s;
  if (auto* m = dynamic_cast<tenant::MixTraceSource*>(&trace)) {
    for (std::size_t t = 0; t < m->num_children(); ++t) {
      if (auto* s = FindStream(m->child(t))) return s;
    }
  }
  return nullptr;
}

/// --capture: write the workload's (or the replayed file's) trace and exit.
int Capture(const CliOptions& opt) {
  const SimPreset preset = opt.paper_preset ? PaperPreset() : EvalPreset();
  std::unique_ptr<TraceSource> trace;
  if (opt.replay_path) {
    trace = std::make_unique<StreamTraceSource>(*opt.replay_path);
  } else {
    WorkloadBuildParams wp;
    wp.num_cores = preset.hierarchy.num_cores;
    wp.scale = EffectiveScale(opt.scale);
    trace = MakeWorkload(opt.workload.value_or("LU"), wp);
  }
  TraceFileWriter writer(*opt.capture_path, trace->num_cores());
  writer.CaptureAll(*trace);
  writer.Flush();
  std::printf("captured %llu records to %s\n",
              static_cast<unsigned long long>(writer.records_written()),
              opt.capture_path->c_str());
  return 0;
}

/// Report one run: the headline, then the event-loop split of a detailed
/// run (`est` null) or the estimate quality of a sampled one (`r` then
/// carries the estimated counters), then the optional counter dump.
void PrintSummary(const CliOptions& opt, const std::string& run,
                  const RunResult& r, const SamplingEstimate* est) {
  FILE* out = HumanOut(opt);
  if (est != nullptr) {
    if (est->degenerate) {
      std::fprintf(out,
                   "sampling degenerated to one full detailed run (the run "
                   "fits fewer than 2 measurement intervals, so no "
                   "confidence interval exists)\n");
    }
    std::fprintf(out,
                 "%s (sampled %.1f%%): est %.0f cycles +/- %.0f "
                 "(95%% CI, +/-%.2f%%), %llu intervals, %llu refs\n",
                 run.c_str(), opt.sample->fraction * 100.0,
                 est->est_exec_cycles, est->ci_half_cycles, est->ci_pct,
                 static_cast<unsigned long long>(est->intervals),
                 static_cast<unsigned long long>(est->total_refs));
    std::fprintf(out,
                 "sampling passes: functional %.2fs + replay after it "
                 "%.2fs\n",
                 est->functional_seconds, est->replay_seconds);
  } else {
    const auto hits = r.stats.GetCounter("ctrl.cache_hits");
    const auto misses = r.stats.GetCounter("ctrl.cache_misses");
    std::fprintf(
        out,
        "%s: %llu cycles (%.2f ms @3.2GHz), hit rate %.1f%%, "
        "HBM %.3f GB, DDR4 %.3f GB, system energy %.2f mJ\n",
        run.c_str(), static_cast<unsigned long long>(r.exec_cycles),
        static_cast<double>(r.exec_cycles) / 3.2e9 * 1e3,
        hits + misses == 0 ? 0.0
                           : 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(hits + misses),
        static_cast<double>(r.HbmBytes()) / 1e9,
        static_cast<double>(r.MmBytes()) / 1e9, r.energy.SystemNj() / 1e6);
    // Event-loop economics go to stderr with the other diagnostics:
    // telemetry epochs add loop visits, and stdout must not depend on
    // observability flags (a restored run's stdout matches the original).
    const std::uint64_t span = r.ticks_executed + r.cycles_skipped;
    std::fprintf(stderr,
                 "event loop: %llu ticks executed, %llu cycles skipped "
                 "(%.1f%%)\n",
                 static_cast<unsigned long long>(r.ticks_executed),
                 static_cast<unsigned long long>(r.cycles_skipped),
                 span == 0 ? 0.0
                           : 100.0 * static_cast<double>(r.cycles_skipped) /
                                 static_cast<double>(span));
  }
  if (opt.dump_stats) {
    std::fprintf(out, "%s", r.stats.ToString().c_str());
  }
}

/// --report for a sampled run: a one-cell batch report.
bool WriteSampleReport(const CliOptions& opt, const RunSpec& spec,
                       const SamplingEstimate& est) {
  BatchReport report;
  report.label = "sample";
  report.jobs = opt.sample->jobs;
  report.wall_seconds = est.functional_seconds + est.replay_seconds;
  CellProfile prof;
  prof.key = CellKey(CellSpec{spec, ""});
  prof.policy = spec.policy;
  prof.workload = spec.workload;
  prof.wall_seconds = report.wall_seconds;
  prof.sim_seconds = report.wall_seconds;
  prof.exec_cycles = est.est_stats.GetCounter("sys.exec_cycles");
  prof.sampled = true;
  prof.sampling_intervals = est.intervals;
  prof.sampling_ci_pct = est.ci_pct;
  report.cells.push_back(prof);
  if (!WriteBatchReportJson(*opt.report_path, report)) {
    std::fprintf(stderr, "cannot write report to %s\n",
                 opt.report_path->c_str());
    return false;
  }
  return true;
}

/// Every non-sweep run: plain, mix, serve/replay, checkpoint, restore and
/// sampled runs all execute the one RunSpec the flags describe.
int RunSingle(const CliOptions& opt) {
  RunSpec spec = SpecFromFlags(opt);
  if (!PinsApply(opt, spec.policy)) return 2;
  FILE* out = HumanOut(opt);
  const std::string run =
      PolicyLabel(spec) + " on " + TelemetryMetaOf(spec).workload;

  // Solo baselines for the slowdown column: each workload tenant first runs
  // alone (through the batch cache, so repeated invocations are free under
  // REDCACHE_CACHE_DIR). A streamed "serve" tenant has no synthetic solo
  // run; its slowdown stays unreported.
  if (spec.mix.active() && !opt.no_solo) {
    for (tenant::TenantSpec& t : spec.mix.tenants) {
      if (t.workload == "serve") continue;
      CellSpec solo{CellSpecFromFlags(opt), ""};
      solo.spec.mix = {};
      solo.spec.workload = t.workload;
      const RunResult r = RunCellCached(solo);
      t.solo_exec_cycles = r.exec_cycles;
      t.solo_refs = r.stats.GetCounter("core.refs");
    }
  }

  if (opt.sample) {
    const SamplingEstimate est = RunSampled(spec, *opt.sample);
    RunResult estimated;
    estimated.stats = est.est_stats;
    PrintSummary(opt, run, estimated, &est);
    return opt.report_path && !WriteSampleReport(opt, spec, est) ? 1 : 0;
  }

  auto system = BuildSystem(spec);

  // Command trace: a ring of the last events, or — with --trace-window — a
  // bounded ring that spills older events to the file as the run goes.
  obs::TraceBuffer trace_buffer(opt.trace_window != 0
                                    ? opt.trace_window
                                    : obs::TraceBuffer::kDefaultCapacity);
  std::unique_ptr<obs::TraceSpillWriter> spill;
  std::optional<obs::TraceScope> trace_scope;
  if (opt.trace_out_path) {
    if (opt.trace_window != 0) {
      spill = std::make_unique<obs::TraceSpillWriter>(*opt.trace_out_path);
      if (!spill->ok()) {
        std::fprintf(stderr, "cannot open trace file %s\n",
                     opt.trace_out_path->c_str());
        return 1;
      }
      trace_buffer.SetSpill(spill.get());
    }
    trace_scope.emplace(&trace_buffer);
  }

  StreamTraceSource* stream = FindStream(system->trace());
  if (stream != nullptr) {
    InstallServeSignalHandlers();
    stream->SetStopFlag(&g_serve_stop);
  }

  const RunResult r = RunBuilt(*system, spec);
  trace_scope.reset();

  if (opt.trace_out_path &&
      !FinishTrace(opt, trace_buffer, spill.get(), out)) {
    return 1;
  }
  if (!r.completed) {
    std::fprintf(stderr, "simulation did not complete\n");
    return 1;
  }
  if (!opt.checkpoint_path.empty() && opt.checkpoint_at >= r.exec_cycles) {
    std::fprintf(stderr,
                 "warning: --checkpoint-at %llu is past the end of the run "
                 "(%llu cycles); no checkpoint was written\n",
                 static_cast<unsigned long long>(opt.checkpoint_at),
                 static_cast<unsigned long long>(r.exec_cycles));
  }
  if (spec.verify) {
    if (auto* checker = dynamic_cast<ShadowChecker*>(&system->controller())) {
      std::fprintf(out, "%s\n", checker->Summary().c_str());
    }
  }
  if (stream != nullptr) {
    std::fprintf(out, "stream: %llu records ingested%s\n",
                 static_cast<unsigned long long>(stream->total_records()),
                 g_serve_stop != 0 ? " (stopped by signal, drained)" : "");
  }
  if (!spec.telemetry_path.empty()) {
    std::fprintf(stderr, "telemetry: %llu epochs -> %s\n",
                 static_cast<unsigned long long>(r.telemetry_epochs),
                 spec.telemetry_path.c_str());
  }
  PrintSummary(opt, run, r, nullptr);

  // Per-tenant QoS: only a mix prints these (plain --serve runs stay
  // single-tenant and export no tenant counters at all).
  if (spec.mix.active()) {
    std::vector<tenant::TenantQos> rows = tenant::QosFromStats(r.stats);
    for (std::uint32_t t = 0; t < spec.mix.num_tenants(); ++t) {
      tenant::ApplySoloBaseline(rows, t, spec.mix.tenants[t].solo_exec_cycles);
    }
    PrintQos(out, spec.mix, rows, "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseArgs(argc, argv, opt)) {
    PrintUsage();
    return 2;
  }
  if (opt.list) {
    std::printf("registered policies:\n");
    TextTable table({"name", "family", "diff", "golden", "sweep", "summary"});
    for (const PolicyInfo& info : Policies()) {
      table.AddRow({std::string(info.name), std::string(info.family),
                    info.differential ? "y" : "-", info.golden ? "y" : "-",
                    info.sweep ? "y" : "-", std::string(info.summary)});
    }
    std::printf("%s", table.Render().c_str());
    std::printf("workloads:");
    for (const std::string& wl : WorkloadLabels()) {
      std::printf(" %s", wl.c_str());
    }
    std::printf("\n");
    return 0;
  }
  if (const std::string err = CombinationError(opt); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  try {
    if (opt.capture_path) return Capture(opt);
    if (opt.sweep) return RunSweep(opt);
    return RunSingle(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
