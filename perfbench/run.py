#!/usr/bin/env python3
"""The simulator's benchmark: four workloads, end-to-end metrics untraced,
per-layer metrics from a separate traced run. See perfbench/README.md.

    python3 perfbench/run.py --workload cell --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root (or any checkout of it). The first run builds
perfbench/ and the simulator sources into .bench_build/perfbench. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. The exit code is non-zero when any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchstats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CHILD = BUILD_DIR / "perfbench_child"
SELFTEST = BUILD_DIR / "perfbench_selftest"

WORKLOADS = ("cell", "sweep", "sweep-warm", "sampled")
BUILD_JOBS = "3"
CHILD_TIMEOUT_S = 170
# A run measures for --seconds and at least this many repetitions, so a
# median never rests on one or two samples of the longer workloads.
MIN_REPS = 3
# Simulator environment knobs that would silently change what is measured.
# They are cleared for every child; perfbench_child refuses to run if one
# leaks.
SCRUBBED_ENV = (
    "REDCACHE_REFS_SCALE",
    "REDCACHE_JOBS",
    "REDCACHE_CACHE_DIR",
    "REDCACHE_CACHE_MAX_MB",
    "REDCACHE_NO_SKIP",
    "REDCACHE_PROGRESS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "refs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_exec_cycles": "cycles",
}


class BenchError(Exception):
    """The benchmark could not run (build, environment or child failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
           "--target", "perfbench_child", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def child_env(cache_dir=None):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["REDCACHE_PROGRESS"] = "0"
    if cache_dir is not None:
        env["REDCACHE_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args, cache_dir=None):
    """Run one perfbench_child piece in a fresh process; parse its JSON line."""
    try:
        proc = subprocess.run([str(CHILD), *args], env=child_env(cache_dir),
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench_child {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"perfbench_child {' '.join(args)} exited {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"perfbench_child {' '.join(args)} printed no result") from None


class Ledger:
    """Operations attempted and failed; every cell simulation is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def cells(self, cells):
        self.attempted += len(cells)
        for c in cells:
            if not c["completed"]:
                self.fail(f"{c['name']}: did not complete")

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)

    def same(self, label, cells, reference):
        """Each cell's digest must equal the reference run's."""
        if len(cells) != len(reference):
            self.fail(f"{label}: {len(cells)} cells vs {len(reference)}")
        for c, ref in zip(cells, reference):
            if c["name"] != ref["name"] or c["digest"] != ref["digest"]:
                self.fail(f"{c['name']}: counters differ ({label})")


def prepare_cache(workload, seed, workdir, ledger):
    """sweep-warm's untimed preparation: a cold sweep fills a fresh cache.

    Returns the cache directory and the cold run's cells, or (None, None)
    for the other workloads.
    """
    if workload != "sweep-warm":
        return None, None
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    cold = run_child(["measure", workload, "--seed", str(seed)], cache_dir)
    ledger.cells(cold["cells"])
    return cache_dir, cold["cells"]


# --- untraced end-to-end run ----------------------------------------------------

def measure_run(workload, seed, seconds, workdir, ledger):
    cache_dir, reference = prepare_cache(workload, seed, workdir, ledger)
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        rep = run_child(["measure", workload, "--seed", str(seed)], cache_dir)
        ledger.cells(rep["cells"])
        if reference is None:
            reference = rep["cells"]
        else:
            ledger.same("disk-cache hit vs cold run" if cache_dir else
                        "repeated run", rep["cells"], reference)
        reps.append(rep)

    walls = [r["wall_s"] for r in reps]
    refs = sum(c["refs"] for c in reference)
    metrics = {
        "wall_s": benchstats.median(walls),
        "refs_per_s": benchstats.median([refs / w for w in walls]),
        "setup_s": benchstats.median([r["setup_s"] for r in reps]),
        "peak_rss_mb": benchstats.median([r["rss_mb"] for r in reps]),
        "sim_exec_cycles": sum(c["exec_cycles"] for c in reference),
    }
    samples = {"wall_s": walls, "setup_s": [r["setup_s"] for r in reps],
               "peak_rss_mb": [r["rss_mb"] for r in reps]}
    for name, unit in END_TO_END_UNITS.items():
        values = samples.get(name)
        detail = ""
        if values:
            q1, _, q3 = benchstats.quartiles(values)
            detail = f"  (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"{workload:10s} {name:18s} {metrics[name]:>16.6g} {unit}{detail}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


# --- traced run -------------------------------------------------------------------

PER_LAYER_UNITS = {
    "sim.visits": "count",
    "sim.visits_per_ref": "ratio",
    "sim.skip_pct": "%",
    "sim.self_ns_per_visit": "ns",
    "dramcache.tick_calls": "count",
    "dramcache.ticks_per_visit": "ratio",
    "dramcache.ns_per_tick": "ns",
    "dramcache.submit_calls": "count",
    "dramcache.hint_calls": "count",
    "dramcache.host_share_pct": "%",
    "workloads.next_calls": "count",
    "workloads.ns_per_next": "ns",
    "batch.fingerprint_pct": "%",
    "batch.sim_pct": "%",
    "batch.disk_hits": "count",
    "batch.memo_hits": "count",
    "batch.pool_busy_pct": "%",
    "batch.longest_cell_pct": "%",
    "sampling.functional_pct": "%",
    "sampling.replay_pct": "%",
    "sampling.intervals": "count",
    "sampling.ci_pct": "%",
    "sampling.err_pct": "%",
    "sampling.ci_shortfall_pct": "%",
    "core.l3_hit_rate": "ratio",
    "ctrl.read_hit_rate": "ratio",
    "ctrl.alpha_bypass_pct": "%",
    "ctrl.rcu_merged_pct": "%",
    "ctrl.gamma_invalidations": "count",
    "ctrl.refresh_bypasses": "count",
    "hbm.acts_per_burst": "ratio",
    "hbm.wait_per_txn": "cycles",
    "hbm.turnarounds": "count",
    "hbm.bytes": "bytes",
    "ddr4.acts_per_burst": "ratio",
    "ddr4.wait_per_txn": "cycles",
    "ddr4.turnarounds": "count",
    "ddr4.bytes": "bytes",
    "tenant.t0.hit_rate": "ratio",
    "tenant.t1.hit_rate": "ratio",
    "obs.telemetry_on_pct": "%",
    "obs.trace_on_pct": "%",
    "obs.sink_ns_per_line": "ns",
    "obs.trace_events": "count",
    "trace.overhead_pct": "%",
}


def counter_metrics(counters_list):
    """Simulated-counter metrics, summed over the workload's cells."""
    tot = {}
    for counters in counters_list:
        for k, v in counters.items():
            tot[k] = tot.get(k, 0) + v
    g = lambda k: tot.get(k, 0)  # noqa: E731
    r = benchstats.ratio
    m = {
        "core.l3_hit_rate": r(g("core.l3_hits"), g("core.l3_accesses")),
        "ctrl.read_hit_rate": r(g("ctrl.read_hits"), g("ctrl.reads")),
        "ctrl.alpha_bypass_pct": 100 * r(g("ctrl.alpha_bypasses"),
                                         g("ctrl.alpha_lookups")),
        "ctrl.rcu_merged_pct": 100 * r(
            g("ctrl.rcu_merged_flushes"),
            g("ctrl.rcu_merged_flushes") + g("ctrl.rcu_idle_flushes")
            + g("ctrl.rcu_capacity_flushes")),
        "ctrl.gamma_invalidations": g("ctrl.gamma_invalidations"),
        "ctrl.refresh_bypasses": g("ctrl.refresh_bypasses"),
    }
    for dev in ("hbm", "ddr4"):
        # The device's "row_hits" counts column bursts and "row_misses"
        # activates; a row can be opened and closed unused, so their ratio
        # is reported rather than a hit rate.
        m[f"{dev}.acts_per_burst"] = r(g(f"{dev}.row_misses"),
                                       g(f"{dev}.row_hits"))
        m[f"{dev}.wait_per_txn"] = r(g(f"{dev}.queue_wait_cycles"),
                                     g(f"{dev}.transactions"))
        m[f"{dev}.turnarounds"] = (g(f"{dev}.turnarounds_rw")
                                   + g(f"{dev}.turnarounds_wr"))
        m[f"{dev}.bytes"] = g(f"{dev}.bytes_transferred")
    for t in (0, 1):
        hits = g(f"tenant{t}.ctrl.serve_hits")
        m[f"tenant.t{t}.hit_rate"] = r(hits,
                                       hits + g(f"tenant{t}.ctrl.serve_misses"))
    return m


def layer_metrics(layers, ledger):
    """Host-time and call-count metrics of the decorated pass."""
    clock = layers["clock_read_ns"]
    tot = {"visits": 0, "refs": 0, "ticks": 0, "skipped": 0, "run_ns": 0.0,
           "plain_s": 0.0, "traced_s": 0.0}
    calls = {k: {"calls": 0, "ns": 0} for k in ("tick", "submit", "hint", "next")}
    for c in layers["cells"]:
        plain, traced = c["plain"], c["traced"]
        ledger.attempted += 2
        for run in (plain, traced):
            if not run["completed"]:
                ledger.fail(f"{c['name']}: traced-run simulation did not complete")
        if plain["digest"] != traced["digest"]:
            ledger.fail(f"{c['name']}: counters differ (traced vs untraced)")
        if c["visits"] != traced["ticks"] or plain["ticks"] != traced["ticks"]:
            ledger.fail(f"{c['name']}: sim.visits != ticks_executed")
        tot["visits"] += c["visits"]
        tot["refs"] += c["refs"]
        tot["ticks"] += traced["ticks"]
        tot["skipped"] += traced["skipped"]
        tot["run_ns"] += traced["wall_s"] * 1e9
        tot["plain_s"] += plain["wall_s"]
        tot["traced_s"] += traced["wall_s"]
        for k in calls:
            calls[k]["calls"] += c[k]["calls"]
            calls[k]["ns"] += c[k]["ns"]

    def net_ns(*keys):
        # Each timed call's interval holds one clock read beyond the work.
        return sum(calls[k]["ns"] - calls[k]["calls"] * clock for k in keys)

    ctrl_keys = ("tick", "submit", "hint")
    timed_calls = sum(calls[k]["calls"] for k in calls)
    # The enclosing Run pays two clock reads per timed call; the intervals
    # already hold one of them.
    self_ns = (tot["run_ns"] - sum(calls[k]["ns"] for k in calls)
               - timed_calls * clock)
    untraced_run_ns = tot["run_ns"] - 2 * timed_calls * clock
    r = benchstats.ratio
    tick = calls["tick"]
    return {
        "sim.visits": tot["visits"],
        "sim.visits_per_ref": r(tot["visits"], tot["refs"]),
        "sim.skip_pct": 100 * r(tot["skipped"], tot["skipped"] + tot["ticks"]),
        "sim.self_ns_per_visit": r(self_ns, tot["visits"]),
        "dramcache.tick_calls": tick["calls"],
        "dramcache.ticks_per_visit": r(tick["calls"], tot["visits"]),
        "dramcache.ns_per_tick": r(net_ns("tick"), tick["calls"]),
        "dramcache.submit_calls": calls["submit"]["calls"],
        "dramcache.hint_calls": calls["hint"]["calls"],
        "dramcache.host_share_pct": 100 * r(net_ns(*ctrl_keys), untraced_run_ns),
        "workloads.next_calls": calls["next"]["calls"],
        "workloads.ns_per_next": r(net_ns("next"), calls["next"]["calls"]),
        "trace.overhead_pct": 100 * (r(tot["traced_s"], tot["plain_s"]) - 1),
    }, clock


def obs_metrics(layers, probe_plain, ledger):
    """Observability on-cost: median over back-to-back probe rounds."""
    rounds = layers["obs"]
    r = benchstats.ratio
    for o in rounds:
        ledger.attempted += 3
        for key in ("plain", "telemetry", "trace"):
            if not o[key]["completed"] or o[key]["digest"] != probe_plain["digest"]:
                ledger.fail(f"obs probe ({key}): counters differ from untraced run")
    on_cost = lambda key: benchstats.median(  # noqa: E731
        [100 * (r(o[key]["wall_s"], o["plain"]["wall_s"]) - 1) for o in rounds])
    return {
        "obs.telemetry_on_pct": on_cost("telemetry"),
        "obs.trace_on_pct": on_cost("trace"),
        "obs.sink_ns_per_line": benchstats.median(
            [r(o["lines"]["ns"], o["lines"]["calls"]) for o in rounds]),
        "obs.trace_events": rounds[0]["trace_events"],
    }


def batch_metrics(batch):
    m = {k: 0 for k in ("batch.fingerprint_pct", "batch.sim_pct",
                          "batch.disk_hits", "batch.memo_hits",
                          "batch.pool_busy_pct", "batch.longest_cell_pct")}
    if batch is None:
        return m, ""
    cells = batch["cells"]
    cell_wall = sum(c["wall_s"] for c in cells)
    fp = sum(c["fingerprint_s"] for c in cells)
    sim = sum(c["sim_s"] for c in cells)
    longest = max(c["wall_s"] for c in cells)
    r = benchstats.ratio
    m.update({
        "batch.fingerprint_pct": 100 * r(fp, cell_wall),
        "batch.sim_pct": 100 * r(sim, cell_wall),
        "batch.disk_hits": sum(c["disk_hit"] for c in cells),
        "batch.memo_hits": sum(c["memo_hit"] for c in cells),
        "batch.pool_busy_pct": 100 * r(cell_wall, batch["jobs"] * batch["wall_s"]),
        "batch.longest_cell_pct": 100 * r(longest, batch["wall_s"]),
    })
    note = (f"batch: wall {batch['wall_s']:.3f} s, jobs {batch['jobs']}, "
            f"fingerprint {fp:.3f} s, sim {sim:.3f} s, longest cell {longest:.3f} s")
    return m, note


def sampling_metrics(sampling, truth, ledger):
    m = {k: 0 for k in ("sampling.functional_pct", "sampling.replay_pct",
                          "sampling.intervals", "sampling.ci_pct",
                          "sampling.err_pct", "sampling.ci_shortfall_pct")}
    if sampling is None:
        return m, ""
    ledger.attempted += 1
    if not truth["completed"]:
        ledger.fail("sampled: truth run did not complete")
    exact = truth["exec_cycles"]
    miss = abs(sampling["est_exec_cycles"] - exact)
    wall = sampling["functional_s"] + sampling["replay_s"]
    r = benchstats.ratio
    m.update({
        "sampling.functional_pct": 100 * r(sampling["functional_s"], wall),
        "sampling.replay_pct": 100 * r(sampling["replay_s"], wall),
        "sampling.intervals": sampling["intervals"],
        "sampling.ci_pct": sampling["ci_pct"],
        "sampling.err_pct": 100 * r(miss, exact),
        "sampling.ci_shortfall_pct": 100 * r(max(0.0, miss - sampling["ci_half_cycles"]),
                                             exact),
    })
    note = (f"sampling: estimate {sampling['est_exec_cycles']:.0f} cycles "
            f"+/- {sampling['ci_half_cycles']:.0f} vs truth {exact} "
            f"(functional {sampling['functional_s']:.3f} s, "
            f"replay {sampling['replay_s']:.3f} s)")
    return m, note


def trace_run(workload, seed, workdir, ledger):
    cache_dir, cold = prepare_cache(workload, seed, workdir, ledger)
    measured = run_child(["measure", workload, "--seed", str(seed), "--report"],
                      cache_dir)
    ledger.cells(measured["cells"])
    if cold is not None:
        ledger.same("disk-cache hit vs cold run", measured["cells"], cold)
    layers = run_child(["layers", workload, "--seed", str(seed),
                     "--workdir", str(workdir)])
    (BUILD_DIR / f"spans-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "cells": layers["cells"],
         "spans": layers["spans"]}))

    metrics, clock = layer_metrics(layers, ledger)
    if workload == "sampled":
        # The traced pass is the functional fast-forward; the simulated
        # counters are the estimate's.
        counters = [c["counters"] for c in measured["cells"]]
    else:
        # The serial untraced pass (jobs=1) must reproduce the measured one.
        plain_cells = [dict(c["plain"], name=c["name"]) for c in layers["cells"]]
        ledger.same("serial jobs=1 pass vs measured run", plain_cells,
                    measured["cells"])
        counters = [c["counters"] for c in layers["cells"]]
    probe = next(c["plain"] for c in layers["cells"]
                 if c["name"] == layers["probe"])
    metrics.update(obs_metrics(layers, probe, ledger))
    metrics.update(counter_metrics(counters))
    bm, batch_note = batch_metrics(measured.get("batch"))
    metrics.update(bm)
    sm, sampling_note = sampling_metrics(measured.get("sampling"),
                                         layers.get("truth"), ledger)
    metrics.update(sm)

    for name, unit in PER_LAYER_UNITS.items():
        print(f"{workload:10s} {name:26s} {metrics[name]:>16.6g} {unit}")
    print(f"{workload:10s} clock read {clock:.2f} ns (subtracted per timed call); "
          f"traced run overhead {metrics['trace.overhead_pct']:.1f}%; "
          f"observability on-cost: telemetry {metrics['obs.telemetry_on_pct']:.1f}%, "
          f"trace ring {metrics['obs.trace_on_pct']:.1f}%")
    for note in (batch_note, sampling_note):
        if note:
            print(f"{workload:10s} {note}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


# --- environment record ---------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(workload, seed, seconds, trace):
    """What every result is recorded with, so records from different
    machines, builds or scales are never silently compared."""
    rec = run_child(["info", workload])
    rec.update({"seed": seed, "seconds": seconds, "trace": trace,
                "git_commit": git_commit(), "src_sha256": source_digest()})
    return rec


# --- entry point ------------------------------------------------------------------------

def self_test():
    build()
    ok = subprocess.run([str(SELFTEST)]).returncode == 0
    ok &= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          str(BENCH_DIR), "-p", "test_*.py"]).returncode == 0
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn (metric names "
                         "then carry a '<workload>.' prefix)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build, then run the decorator and statistics self-tests")
    args = ap.parse_args()
    if args.self_test:
        try:
            return self_test()
        except BenchError as e:
            log(f"perfbench: {e}")
            return 2
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = BUILD_DIR / f"work-{os.getpid()}"
    ledger = Ledger()
    metrics = {}
    try:
        build()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for name in names:
            print("perfbench-env " + json.dumps(
                record(name, args.seed, args.seconds, args.trace)))
            if args.trace:
                m = trace_run(name, args.seed, workdir, ledger)
            else:
                m = measure_run(name, args.seed, args.seconds, workdir, ledger)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in ledger.problems:
        log(f"perfbench: FAILED {p}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
