#!/usr/bin/env python3
"""Perf gate: fail when a bench JSON regresses against a checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.15]

Both files use the matrix_bench_json shape emitted by bench_common.h's
JsonReport ({"benchmarks": [{"name", "value", "unit"}, ...]}).  Every metric
present in the BASELINE is looked up in CURRENT; a higher-is-better metric
(the default) fails when current < baseline * (1 - tolerance).  Metrics whose
name ends in one of the LOWER_IS_BETTER suffixes (times, and `_bytes` memory
footprints) fail in the other direction: their baseline is a ceiling.

A baseline entry may carry its own "tolerance" field, which overrides the
command-line --tolerance for that metric alone — noisier metrics (wall-clock
message rates) get wider bands without loosening the gate on stable ones.

Baselines are deliberately conservative (well below a warm developer
machine's numbers) so the gate trips on real regressions — an engine change
that halves events/sec — rather than on CI-runner weather.  Refresh
bench/baselines/*.json when the engine legitimately gets faster.
"""
import argparse
import json
import sys

LOWER_IS_BETTER = ("wall_seconds", "_ms", "_seconds", "_bytes")


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: float(b["value"]) for b in doc.get("benchmarks", [])}


def load_tolerances(path):
    """Per-metric tolerance overrides declared in the baseline file."""
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: float(b["tolerance"])
            for b in doc.get("benchmarks", []) if "tolerance" in b}


def lower_is_better(name):
    return any(name.endswith(suffix) for suffix in LOWER_IS_BETTER)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    args = parser.parse_args()

    baseline = load_metrics(args.baseline)
    tolerances = load_tolerances(args.baseline)
    current = load_metrics(args.current)

    failures = []
    for name, base_value in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current report")
            continue
        value = current[name]
        tolerance = tolerances.get(name, args.tolerance)
        if lower_is_better(name):
            limit = base_value * (1.0 + tolerance)
            ok = value <= limit
            direction = "<="
        else:
            limit = base_value * (1.0 - tolerance)
            ok = value >= limit
            direction = ">="
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {name}: {value:.6g} ({direction} {limit:.6g}, "
              f"baseline {base_value:.6g}, tol {tolerance:.0%})")
        if not ok:
            failures.append(f"{name}: {value:.6g} vs baseline {base_value:.6g}"
                            f" (tol {tolerance:.0%})")

    if failures:
        print(f"\nperf gate FAILED ({len(failures)} metric(s) regressed):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed ({len(baseline)} metric(s) within tolerance).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
