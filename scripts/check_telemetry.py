#!/usr/bin/env python3
"""Validate a RedCache NDJSON telemetry stream (schema 2).

The simulator emits one self-contained JSON object per line the moment an
epoch closes (`--telemetry -` / `--telemetry out.ndjson`, DESIGN.md
section 14). This validator is the consumer-side contract check, used by
tests and the `telemetry-live` CI job:

  header   first line; schema == 2, run identity, epoch pacing
  epoch    seq strictly increasing from 0; begin == previous end;
           end > begin; delta/derived/gauges objects present
  end      last line; num_epochs matches the epoch lines seen, and for
           every counter in `totals` the per-epoch deltas sum EXACTLY to
           the total (the telescoping invariant — regardless of epoch
           width, adaptive resizing, or an early-EOF residual epoch)

Checkpoint-restored runs (header carries `restored_at` + `baseline`):
the first epoch must begin at `restored_at`, and the telescoping target
becomes sum(deltas) + baseline[counter] == totals[counter] — the deltas
cover only post-restore progress while totals are cumulative over the
whole (original + resumed) run.

Usage:
  redcache_cli --workload LU --telemetry - | scripts/check_telemetry.py
  scripts/check_telemetry.py run.ndjson another.ndjson
  scripts/check_telemetry.py run.ndjson --summary   # per-run digest

Exit status: 0 when every stream validates, 1 otherwise.
"""

import argparse
import json
import sys


class StreamError(Exception):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _require(cond, lineno, message):
    if not cond:
        raise StreamError(lineno, message)


def validate_stream(lines, name="<stdin>"):
    """Validate one NDJSON stream; returns a summary dict or raises
    StreamError."""
    header = None
    end = None
    epochs = []
    sums = {}
    last_end = None

    lineno = 0
    for raw in lines:
        lineno += 1
        raw = raw.strip()
        if not raw:
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as e:
            raise StreamError(lineno, f"not valid JSON: {e}") from e
        _require(isinstance(rec, dict), lineno, "record is not an object")
        kind = rec.get("type")
        _require(end is None, lineno, "record after the end record")

        if header is None:
            _require(kind == "header", lineno,
                     f"first record must be a header, got {kind!r}")
            _require(rec.get("schema") == 2, lineno,
                     f"unsupported schema {rec.get('schema')!r}")
            for key in ("workload", "policy", "epoch_cycles"):
                _require(key in rec, lineno, f"header missing {key!r}")
            if rec.get("adaptive"):
                _require(
                    0 < rec.get("epoch_min", 0) <= rec.get("epoch_max", 0),
                    lineno, "adaptive header needs 0 < epoch_min <= epoch_max")
            if "restored_at" in rec:
                _require(isinstance(rec["restored_at"], int)
                         and rec["restored_at"] >= 0, lineno,
                         "restored_at must be a non-negative integer")
                _require(isinstance(rec.get("baseline"), dict), lineno,
                         "restored header missing baseline object")
                for counter, value in rec["baseline"].items():
                    _require(isinstance(value, int), lineno,
                             f"baseline[{counter!r}] is not an integer")
            header = rec
            continue

        if kind == "epoch":
            _require(rec.get("seq") == len(epochs), lineno,
                     f"seq {rec.get('seq')} != expected {len(epochs)}")
            begin, stop = rec.get("begin"), rec.get("end")
            _require(isinstance(begin, int) and isinstance(stop, int),
                     lineno, "begin/end must be integers")
            _require(stop > begin, lineno,
                     f"empty or inverted epoch [{begin}, {stop})")
            if last_end is not None:
                _require(begin == last_end, lineno,
                         f"gap: begin {begin} != previous end {last_end}")
            elif "restored_at" in header:
                # Restored runs resume epoch accounting at the checkpoint
                # cycle — a first epoch starting anywhere else means the
                # restore corrupted the epoch telescoping.
                _require(begin == header["restored_at"], lineno,
                         f"restored stream's first epoch begins at {begin}, "
                         f"not restored_at {header['restored_at']}")
            last_end = stop
            for key in ("delta", "derived", "gauges"):
                _require(isinstance(rec.get(key), dict), lineno,
                         f"epoch missing {key!r} object")
            for counter, value in rec["delta"].items():
                _require(isinstance(value, int), lineno,
                         f"delta[{counter!r}] is not an integer")
                sums[counter] = sums.get(counter, 0) + value
            if header.get("adaptive"):
                width = rec["gauges"].get("telemetry.epoch_cycles")
                _require(isinstance(width, int) and width > 0, lineno,
                         "adaptive epoch lacks telemetry.epoch_cycles gauge")
                _require(
                    header["epoch_min"] <= width <= header["epoch_max"],
                    lineno, f"width {width} outside the clamp band")
            epochs.append(rec)
        elif kind == "end":
            _require(rec.get("num_epochs") == len(epochs), lineno,
                     f"end says {rec.get('num_epochs')} epochs, "
                     f"stream has {len(epochs)}")
            totals = rec.get("totals")
            _require(isinstance(totals, dict), lineno,
                     "end record missing totals object")
            baseline = header.get("baseline", {})
            for counter, total in totals.items():
                got = sums.get(counter, 0) + baseline.get(counter, 0)
                _require(got == total, lineno,
                         f"telescoping broke for {counter!r}: "
                         f"deltas{'+baseline' if baseline else ''} sum to "
                         f"{got}, total is {total}")
            end = rec
        else:
            raise StreamError(lineno, f"unknown record type {kind!r}")

    _require(header is not None, max(lineno, 1), "empty stream (no header)")
    _require(end is not None, lineno, "stream has no end record (truncated?)")
    return {
        "name": name,
        "header": header,
        "end": end,
        "epochs": epochs,
        "counters": len(sums),
    }


def _width_runs(epochs):
    """Consecutive runs of the adaptive width gauge: [(width, count), ...]."""
    runs = []
    for e in epochs:
        width = e["gauges"].get("telemetry.epoch_cycles")
        if runs and runs[-1][0] == width:
            runs[-1][1] += 1
        else:
            runs.append([width, 1])
    return runs


def print_summary(result):
    header, end, epochs = (result["header"], result["end"], result["epochs"])
    mix = f" mix={header['mix']}" if header.get("mix") else ""
    print(f"{result['name']}: {header['policy']}/{header['workload']}"
          f"{mix} preset={header.get('preset', '?')}")
    print(f"  {end['num_epochs']} epochs over {end['exec_cycles']} cycles, "
          f"{result['counters']} counters, telescoping OK")
    if "restored_at" in header:
        print(f"  restored at cycle {header['restored_at']}, "
              f"{len(header.get('baseline', {}))} baseline counters")
    if header.get("adaptive"):
        print(f"  adaptive: band [{header['epoch_min']}, "
              f"{header['epoch_max']}], used "
              f"[{end['epoch_min_used']}, {end['epoch_max_used']}]")
        runs = ", ".join(f"{w}x{n}" for w, n in _width_runs(epochs))
        print(f"  width runs: {runs}")
    else:
        print(f"  fixed epoch width: {header['epoch_cycles']}")


def main():
    ap = argparse.ArgumentParser(
        description="Validate RedCache NDJSON telemetry streams")
    ap.add_argument("streams", nargs="*",
                    help="NDJSON files to validate (default: stdin)")
    ap.add_argument("--summary", action="store_true",
                    help="print a per-stream digest after validating")
    args = ap.parse_args()

    failures = 0
    inputs = args.streams or ["-"]
    for path in inputs:
        try:
            if path == "-":
                result = validate_stream(sys.stdin, "<stdin>")
            else:
                with open(path, encoding="utf-8") as f:
                    result = validate_stream(f, path)
        except StreamError as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            failures += 1
            continue
        except OSError as e:
            print(f"FAIL {path}: {e}", file=sys.stderr)
            failures += 1
            continue
        if args.summary:
            print_summary(result)
        else:
            print(f"OK {result['name']}: {result['end']['num_epochs']} "
                  f"epochs, {result['counters']} counters, telescoping OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
