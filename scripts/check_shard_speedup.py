#!/usr/bin/env python3
"""Multi-core perf gate: the sharded engine must actually buy wall time.

Usage:
    check_shard_speedup.py BENCH_engine.json [--min-speedup 1.5]
                           [--min-speedup-k2 1.0] [--min-cores 2]

Reads the matrix_bench_json emitted by bench_engine_throughput and compares
the giga workload's K=2 and K=4 wall seconds with the K=1 run's.  The
sharded engine's whole reason to exist is that K cores finish the same
simulation faster than one; this gate fails the build when the K=4 run is
not at least --min-speedup times faster than the serial run, or the K=2 run
--min-speedup-k2 times — synchronization overhead eating the cores, a
lookahead regression re-serializing the windows, a barrier handoff that
costs more than the window it dispatches, or a shard imbalance parking
three workers while one grinds.

On hosts without parallel hardware the gate SKIPS LOUDLY (exit 0): a
single-core runner measures only synchronization overhead, so failing there
would gate on the runner, not the engine.  For the same reason a floor
applies only on hosts with at least as many cores as its run has shards.
The serial events/sec floors (check_bench_regression.py) still protect
those hosts.

Stdlib only — runs anywhere CI can run python3.
"""
import argparse
import json
import os
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_engine.json from the bench run")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required K=4 vs K=1 wall-time ratio (default 1.5)")
    parser.add_argument("--min-speedup-k2", type=float, default=1.0,
                        help="required K=2 vs K=1 wall-time ratio (default 1.0)")
    parser.add_argument("--min-cores", type=int, default=2,
                        help="cores below which the gate skips (default 2)")
    args = parser.parse_args()

    cores = os.cpu_count() or 1
    if cores < args.min_cores:
        print(f"SKIP: host has {cores} core(s) < {args.min_cores} — the K=4 "
              "wall-time gate needs parallel hardware to mean anything.\n"
            "      The serial events/sec floors (check_bench_regression.py) "
            "still gate this build.")
        return 0

    with open(args.bench) as f:
        doc = json.load(f)
    metrics = {b["name"]: float(b["value"])
               for b in doc.get("benchmarks", [])}

    print(f"[shard speedup gate] {cores} cores available")
    walls = {}
    for shards in (1, 2, 4):
        name = f"engine_throughput/giga_shards_{shards}/wall_seconds"
        if name in metrics:
            walls[shards] = metrics[name]
            base = walls.get(1, metrics[name])
            print(f"  K={shards}  wall {metrics[name]:8.3f}s  "
                  f"speedup {base / metrics[name]:5.2f}x")

    for shards in (1, 2, 4):
        if shards not in walls:
            print(f"FAIL: giga_shards_{shards}/wall_seconds missing from "
                  f"{args.bench}", file=sys.stderr)
            return 1

    failed = False
    for shards, floor in ((2, args.min_speedup_k2), (4, args.min_speedup)):
        speedup = walls[1] / walls[shards]
        if cores < shards:
            print(f"SKIP: K={shards} floor needs {shards} cores, host has "
                  f"{cores} (measured {speedup:.2f}x).")
        elif speedup < floor:
            print(f"FAIL: K={shards} wall-time speedup {speedup:.2f}x < "
                  f"required {floor:.2f}x on a {cores}-core host — the "
                  "shards are not paying for their synchronization.",
                  file=sys.stderr)
            failed = True
        else:
            print(f"OK: K={shards} runs {speedup:.2f}x faster than serial "
                  f"(floor {floor:.2f}x).")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
