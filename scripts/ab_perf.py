#!/usr/bin/env python3
"""Paired A/B timing of two revisions on the repository benchmark.

    python3 scripts/ab_perf.py --parent REV --change REV
                               [--workloads fig2_hotspot,giga_k2,overload_ctl]
                               [--seed 2005] [--repo PATH] [--build-root DIR]
    python3 scripts/ab_perf.py --self-test

Both revisions are checked out with `git worktree` and built from
perfbench/CMakeLists.txt (Release) into build directories outside the
repository, one per commit (default: <tmp>/matrix-ab-perf/<commit>); a
commit already built there is reused, and the worktree is removed once its
binary is built.  Pass the same revision twice for an A/A run.

Each of ROUNDS rounds runs the two `matrix_perfbench --workload W --seed S` binaries AT
THE SAME TIME, each pinned with sched_setaffinity to its own CPU set, one
thread per CPU: 2+2 for giga_k2 (two shards), 1+1 for the serial
workloads.  The side that starts on the first set alternates between
rounds, the two sides trade sets every SWAP_PERIOD_S during the run, and
the start order is drawn from a fixed seed, so neither side keeps a core,
a cache or a head start.
Whatever else the host is doing lands on both sides of a pair at once, so
the paired ratio change/parent cancels it where a comparison of separate
runs cannot (Kalibera & Jones, "Rigorous Benchmarking in Reasonable Time",
ISMM 2013).

For each workload it reports, for `run_s` (the simulation's wall seconds,
as the binary measures them) and for the process CPU seconds (user + system
from wait4's rusage, all threads): the median change/parent ratio, its 95%
percentile-bootstrap confidence interval, and the sign-test count (rounds
in which the change was faster) with its two-sided exact p-value.  A ratio
below 1.0 means the change is faster.

Every deterministic output of the two sides (events, messages, bytes,
latency and admission figures, and every per-layer count) must be equal in
every round; otherwise the script stops with exit code 1.  The last line of
standard output is one JSON object with the per-workload results, the
per-round ratios included.

Stdlib only.  `--self-test` checks the statistics and the CPU-set plan
without building or running anything.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fig2_hotspot", "giga_k2", "overload_ctl")
# Cores each side of a pair gets: one per shard the workload runs.
CORES = {"fig2_hotspot": 1, "giga_k2": 2, "overload_ctl": 1}
# Outputs that depend only on workload and seed (perfbench/run.py checks
# the same set across the runs of one revision).
DETERMINISTIC = ("events", "messages", "bytes", "latency_samples", "mean_ms",
                 "p50_ms", "p99_ms", "offered", "admitted", "goodput")
RUN_DEADLINE_S = 300.0
# Pairs per workload: the fewest with which a claimed gain can be checked
# as "better in at least nine of ten pairs".
ROUNDS = 10
ORDER_SEED = 1
# How long the sides keep one CPU set before trading.  On a virtual host one
# vCPU can run 10-15% slower than another for a whole run; trading sets ten
# times a second cancels that inside each pair (a migration costs
# microseconds).
SWAP_PERIOD_S = 0.1
BOOTSTRAP_RESAMPLES = 4000
SIDES = ("parent", "change")


def fail(message):
    print(f"ab_perf: {message}", file=sys.stderr)
    sys.exit(2)


# ---- statistics -------------------------------------------------------------

def bootstrap_ci(values, resamples=BOOTSTRAP_RESAMPLES, level=0.95, seed=0):
    """Percentile-bootstrap confidence interval of the median of `values`."""
    rng = random.Random(seed)
    n = len(values)
    medians = sorted(
        statistics.median(rng.choice(values) for _ in range(n))
        for _ in range(resamples))
    tail = (1.0 - level) / 2.0
    lo = medians[int(math.floor(tail * (resamples - 1)))]
    hi = medians[int(math.ceil((1.0 - tail) * (resamples - 1)))]
    return lo, hi


def sign_test(ratios):
    """(rounds the change was faster, rounds that were not ties, two-sided
    exact binomial p-value under 'either side equally likely')."""
    faster = sum(1 for r in ratios if r < 1.0)
    slower = sum(1 for r in ratios if r > 1.0)
    n = faster + slower
    if n == 0:
        return 0, 0, 1.0
    k = min(faster, slower)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return faster, n, min(1.0, 2.0 * tail)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(parent, change, seed=0):
    """Paired summary of one metric: per-round values of each side."""
    ratios = [c / p for p, c in zip(parent, change)]
    lo, hi = bootstrap_ci(ratios, seed=seed)
    faster, n, p_value = sign_test(ratios)
    return {
        "parent_median": statistics.median(parent),
        "parent_quartiles": quartiles(parent),
        "change_median": statistics.median(change),
        "change_quartiles": quartiles(change),
        "ratio_median": statistics.median(ratios),
        "ci95": [lo, hi],
        "ci_width": hi - lo,
        "contains_one": lo <= 1.0 <= hi,
        "change_faster": faster,
        "decided_rounds": n,
        "sign_p": p_value,
        "ratios": ratios,
    }


def verdict(summary):
    lo, hi = summary["ci95"]
    if hi < 1.0:
        return "change faster"
    if lo > 1.0:
        return "change slower"
    return "no difference resolved"


# ---- CPU sets ---------------------------------------------------------------

def cpu_sets(available, cores, round_index):
    """The (parent, change) CPU sets of one round: two disjoint blocks of
    `cores` CPUs, swapped between the sides every round."""
    cpus = sorted(available)
    if len(cpus) < 2 * cores:
        fail(f"need {2 * cores} CPUs for a pair, have {len(cpus)}")
    first, second = set(cpus[:cores]), set(cpus[cores:2 * cores])
    return (first, second) if round_index % 2 == 0 else (second, first)


def deterministic_differences(a, b):
    """Names of the deterministic outputs on which runs a and b differ."""
    diffs = [key for key in DETERMINISTIC if a.get(key) != b.get(key)]
    layer_a, layer_b = a.get("layer", {}), b.get("layer", {})
    for key in sorted(set(layer_a) | set(layer_b)):
        if layer_a.get(key) != layer_b.get(key):
            diffs.append(key)
    return diffs


# ---- build ------------------------------------------------------------------

def git(repo, *args):
    result = subprocess.run(["git", "-C", repo, *args], capture_output=True,
                            text=True)
    if result.returncode != 0:
        fail(f"git {' '.join(args)}: {result.stderr.strip()}")
    return result.stdout.strip()


def build(repo, rev, build_root):
    """Path of the perfbench binary of `rev`, building it if needed."""
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
    out = os.path.join(build_root, commit)
    binary = os.path.join(out, "build", "matrix_perfbench")
    if os.path.exists(binary):
        return commit, binary
    source = os.path.join(out, "src")
    git(repo, "worktree", "prune")
    if os.path.exists(source):
        shutil.rmtree(source)
    os.makedirs(out, exist_ok=True)
    git(repo, "worktree", "add", "--detach", source, commit)
    try:
        for step in (["cmake", "-S", os.path.join(source, "perfbench"), "-B",
                      os.path.join(out, "build"),
                      "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", os.path.join(out, "build"), "-j",
                      str(min(4, os.cpu_count() or 1))]):
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                fail(f"building {commit[:12]} failed: {' '.join(step)}")
    finally:
        git(repo, "worktree", "remove", "--force", source)
    return commit, binary


# ---- one round --------------------------------------------------------------

def launch(binary, workload, seed, cpus, stdout):
    def pin():
        os.sched_setaffinity(0, cpus)
    return subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed)],
        stdout=stdout, stderr=subprocess.DEVNULL, cwd=tempfile.gettempdir(),
        preexec_fn=pin)


def pin_threads(pid, cpus):
    """Pins the threads of process `pid` one to a CPU of `cpus`, in thread
    id order, wrapping round (a thread that has just exited is skipped).
    One thread per CPU keeps a waking shard thread off its sibling's CPU."""
    try:
        tids = sorted(int(tid) for tid in os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return
    cpus = sorted(cpus)
    for index, tid in enumerate(tids):
        try:
            os.sched_setaffinity(tid, {cpus[index % len(cpus)]})
        except OSError:
            pass


def run_pair(binaries, workload, seed, sets, parent_first):
    """Runs both sides at once; returns {side: (result JSON, CPU seconds)}.
    The sides trade CPU sets every SWAP_PERIOD_S, so each spends half its
    run on each set."""
    order = SIDES if parent_first else SIDES[::-1]
    outputs = {side: tempfile.TemporaryFile("w+") for side in SIDES}
    procs = {}
    try:
        for side in order:
            procs[side] = launch(binaries[side], workload, seed,
                                 sets[SIDES.index(side)], outputs[side])
        deadline = time.monotonic() + RUN_DEADLINE_S
        done = {}
        swapped = False
        while len(done) < len(procs):
            time.sleep(SWAP_PERIOD_S)
            for side, proc in procs.items():
                if side in done:
                    continue
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid == 0:
                    continue
                proc.returncode = os.waitstatus_to_exitcode(status)
                done[side] = usage.ru_utime + usage.ru_stime
            swapped = not swapped
            for index, side in enumerate(SIDES):
                if side not in done:
                    pin_threads(procs[side].pid, sets[index ^ swapped])
            if len(done) < len(procs) and time.monotonic() > deadline:
                fail(f"{workload} pair ran past {RUN_DEADLINE_S:.0f} s")
        results = {}
        for side in SIDES:
            if procs[side].returncode != 0:
                fail(f"{side} {workload} run exited with "
                     f"{procs[side].returncode}")
            outputs[side].seek(0)
            lines = outputs[side].read().strip().splitlines()
            if not lines:
                fail(f"{side} {workload} run printed nothing")
            results[side] = (json.loads(lines[-1]), done[side])
        return results
    finally:
        for proc in procs.values():
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        for f in outputs.values():
            f.close()


# ---- report -----------------------------------------------------------------

def print_summary(metric, summary):
    lo, hi = summary["ci95"]
    (p1, p3), (c1, c3) = summary["parent_quartiles"], summary["change_quartiles"]
    print(f"  {metric:<6} parent {summary['parent_median']:.3f} s "
          f"[{p1:.3f}-{p3:.3f}], change {summary['change_median']:.3f} s "
          f"[{c1:.3f}-{c3:.3f}] (median [quartiles]); change/parent "
          f"{summary['ratio_median']:.4f} [{lo:.4f}, {hi:.4f}] "
          f"(95% CI, width {100 * summary['ci_width']:.2f}%); change faster "
          f"in {summary['change_faster']}/{summary['decided_rounds']} "
          f"(sign test p={summary['sign_p']:.3g}): {verdict(summary)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent revision (git rev)")
    parser.add_argument("--change", help="change revision (git rev)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2005,
                        help="workload seed passed to matrix_perfbench")
    parser.add_argument("--repo", default=ROOT,
                        help="git repository holding both revisions")
    parser.add_argument("--build-root",
                        default=os.path.join(tempfile.gettempdir(),
                                             "matrix-ab-perf"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    workloads = [w for w in args.workloads.split(",") if w]
    for workload in workloads:
        if workload not in CORES:
            parser.error(f"unknown workload {workload}")
    build_root = os.path.abspath(args.build_root)
    repo = os.path.abspath(args.repo)
    if build_root.startswith(repo + os.sep):
        parser.error("--build-root must be outside the repository")

    binaries, commits = {}, {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        commits[side], binaries[side] = build(repo, rev, build_root)

    available = os.sched_getaffinity(0)
    order_rng = random.Random(ORDER_SEED)
    print(f"ab_perf: parent {commits['parent'][:12]}, change "
          f"{commits['change'][:12]}, seed {args.seed}, {ROUNDS} rounds, "
          f"{len(available)} CPUs available")
    report = {}
    for workload in workloads:
        samples = {side: {"run_s": [], "cpu_s": []} for side in SIDES}
        for index in range(ROUNDS):
            sets = cpu_sets(available, CORES[workload], index)
            parent_first = order_rng.random() < 0.5
            results = run_pair(binaries, workload, args.seed, sets,
                               parent_first)
            diffs = deterministic_differences(results["parent"][0],
                                              results["change"][0])
            if diffs:
                print(f"ab_perf: {workload} round {index}: deterministic "
                      f"outputs differ: {', '.join(diffs)}", file=sys.stderr)
                print(json.dumps({"error": "deterministic outputs differ",
                                  "workload": workload, "round": index,
                                  "keys": diffs}))
                return 1
            for side in SIDES:
                run, cpu = results[side]
                samples[side]["run_s"].append(run["run_s"])
                samples[side]["cpu_s"].append(cpu)
        print(f"{workload}: {ROUNDS} rounds, {CORES[workload]}+"
              f"{CORES[workload]} CPUs, deterministic outputs identical")
        report[workload] = {}
        for metric in ("run_s", "cpu_s"):
            summary = summarize(samples["parent"][metric],
                                samples["change"][metric], seed=args.seed)
            print_summary(metric, summary)
            report[workload][metric] = {
                key: summary[key] for key in ("ratio_median", "ci95",
                                              "change_faster",
                                              "decided_rounds", "ratios")}
    print(json.dumps(report))
    return 0


# ---- self-test --------------------------------------------------------------

class StatisticsTest(unittest.TestCase):
    def test_identical_sides_give_a_point_interval_at_one(self):
        summary = summarize([5.0] * 10, [5.0] * 10)
        self.assertEqual(summary["ci95"], [1.0, 1.0])
        self.assertTrue(summary["contains_one"])
        self.assertEqual(summary["decided_rounds"], 0)
        self.assertEqual(verdict(summary), "no difference resolved")

    def test_consistent_slowdown_is_detected(self):
        rng = random.Random(7)
        parent = [5.0 + rng.uniform(-0.5, 0.5) for _ in range(10)]
        change = [p * (1.05 + rng.uniform(-0.01, 0.01)) for p in parent]
        summary = summarize(parent, change)
        self.assertGreater(summary["ci95"][0], 1.0)
        self.assertEqual(summary["change_faster"], 0)
        self.assertLess(summary["sign_p"], 0.01)
        self.assertEqual(verdict(summary), "change slower")

    def test_noise_around_one_is_not_a_difference(self):
        rng = random.Random(3)
        parent = [5.0] * 12
        change = [5.0 * (1.0 + rng.uniform(-0.02, 0.02)) for _ in range(12)]
        summary = summarize(parent, change)
        self.assertTrue(summary["contains_one"])
        self.assertLess(summary["ci_width"], 0.04)

    def test_bootstrap_interval_brackets_the_median_and_is_seeded(self):
        values = [0.9, 0.95, 1.0, 1.02, 1.1, 1.3, 0.97]
        lo, hi = bootstrap_ci(values, seed=5)
        self.assertLessEqual(lo, statistics.median(values))
        self.assertGreaterEqual(hi, statistics.median(values))
        self.assertEqual((lo, hi), bootstrap_ci(values, seed=5))

    def test_sign_test_matches_the_binomial(self):
        self.assertEqual(sign_test([0.9] * 10), (10, 10, 2.0 / 1024))
        faster, n, p = sign_test([0.9] * 8 + [1.1] * 2)
        self.assertEqual((faster, n), (8, 10))
        self.assertAlmostEqual(p, 2 * (1 + 10 + 45) / 1024)
        self.assertEqual(sign_test([1.0, 1.0]), (0, 0, 1.0))
        self.assertEqual(sign_test([0.9, 1.1])[2], 1.0)


class PlanTest(unittest.TestCase):
    def test_sets_are_disjoint_and_swap_every_round(self):
        for cores in (1, 2):
            a0, b0 = cpu_sets({0, 1, 2, 3}, cores, 0)
            a1, b1 = cpu_sets({0, 1, 2, 3}, cores, 1)
            self.assertEqual(len(a0), cores)
            self.assertFalse(a0 & b0)
            self.assertEqual((a1, b1), (b0, a0))

    def test_any_deterministic_difference_is_reported(self):
        run = {key: 1 for key in DETERMINISTIC}
        run["layer"] = {"net.events": 10, "game.actions": 3}
        same = json.loads(json.dumps(run))
        self.assertEqual(deterministic_differences(run, same), [])
        other = json.loads(json.dumps(run))
        other["p99_ms"] = 2
        other["layer"]["game.actions"] = 4
        other["layer"]["net.extra"] = 1
        self.assertEqual(deterministic_differences(run, other),
                         ["p99_ms", "game.actions", "net.extra"])


def self_test():
    suite = unittest.TestSuite()
    loader = unittest.TestLoader()
    for case in (StatisticsTest, PlanTest):
        suite.addTests(loader.loadTestsFromTestCase(case))
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
