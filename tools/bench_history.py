#!/usr/bin/env python
"""Append perfbench runs to the committed benchmark history.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in one
or more checkouts and appends one JSON line per run to ``BENCH_history.jsonl``
at the repository root: the checkout's commit, ``nproc``, the python, numpy
and scipy versions, the workload, the seed and the end-to-end metrics that
``BENCHMARK.json`` declares.  Rows are only ever appended, so the file keeps
the trajectory across changes instead of overwriting it.

With several ``--checkout`` directories every (seed, workload) runs once in
each, and the order flips from one (seed, workload) to the next, so host
drift hits each checkout alike: pass the parent commit's checkout and the
changed one to get alternating pairs.  At the end the median and quartiles
of this invocation's runs are printed per workload, metric and checkout,
and with two checkouts the number of pairs the second one wins.

Run from the repository root:

    python3 tools/bench_history.py --seeds 1 2 3 --seconds 30
    python3 tools/bench_history.py --checkout ../parent --checkout . \\
        --workloads hiacc-3d --seeds 11 12 13

The perfbench files are run as they are; the tool only reads their output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("iter-2d", "hiacc-3d", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append",
                        help="checkout to run (repeatable; default: this repo)")
    parser.add_argument("--commit", action="append",
                        help="commit label per checkout, for checkouts without "
                             "git metadata (default: its git HEAD)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--history", default=os.path.join(REPO_ROOT,
                                                          "BENCH_history.jsonl"))
    args = parser.parse_args(argv)
    args.checkout = [os.path.abspath(c) for c in (args.checkout or [REPO_ROOT])]
    if args.commit is not None and len(args.commit) != len(args.checkout):
        parser.error("give one --commit per --checkout")
    return args


def _git(checkout, *cmd):
    try:
        out = subprocess.run(["git", "-C", checkout, *cmd], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _commit(checkout):
    """``(commit, dirty)`` of a checkout; ``("unknown", None)`` without git."""
    head = _git(checkout, "rev-parse", "HEAD")
    if head is None:
        return "unknown", None
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return head, bool(status)


def _environment():
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _end_to_end_metrics():
    """``{name: "higher" | "lower"}`` of the declared end-to-end metrics."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run; returns its last-line JSON summary."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def summarize(records, better, commits):
    """Print median [q1, q3] of each metric per workload and commit; with two
    commits, also the pairs (same workload and seed) the second one wins."""
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        print(f"\n{workload}: median [q1, q3] of {len(rows)} runs")
        print(f"  {'metric':<14}" + "".join(f"{c[:16]:>36}" for c in commits)
              + ("   wins" if len(commits) == 2 else ""))
        for name, direction in better.items():
            line = f"  {name:<14}"
            for c in commits:
                q1, q2, q3 = np.percentile(
                    [r["metrics"][name] for r in rows if r["commit"] == c], [25, 50, 75])
                line += f"{q2:>14.6g} [{q1:>9.4g}, {q3:>9.4g}]"
            if len(commits) == 2:
                by_seed = [{r["seed"]: r["metrics"][name] for r in rows
                            if r["commit"] == c} for c in commits]
                seeds = [k for k in by_seed[0] if k in by_seed[1]]
                sign = 1 if direction == "higher" else -1
                wins = sum(sign * (by_seed[1][k] - by_seed[0][k]) > 0 for k in seeds)
                line += f" {wins:>3}/{len(seeds)}"
            print(line)


def main(argv=None):
    args = _parse(argv)
    better = _end_to_end_metrics()
    env = _environment()
    labels = []
    for i, checkout in enumerate(args.checkout):
        commit, dirty = _commit(checkout)
        if args.commit is not None:
            commit = args.commit[i]
        labels.append((commit, dirty))
    records = []
    runs = [(seed, workload) for seed in args.seeds for workload in args.workloads]
    for i, (seed, workload) in enumerate(runs):
        sides = list(zip(args.checkout, labels))
        for checkout, (commit, dirty) in (sides if i % 2 == 0 else sides[::-1]):
            summary = run_once(checkout, workload, seed, args.seconds)
            record = dict(
                {"commit": commit, "dirty": dirty}, **env,
                workload=workload, seed=seed, seconds=args.seconds,
                correct=summary["correct"],
                metrics={n: summary["metrics"][n]["value"] for n in better},
            )
            with open(args.history, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            records.append(record)
            print(f"{workload} seed={seed} {commit[:16]}: correct="
                  f"{record['correct']}", flush=True)
    summarize(records, better, [commit for commit, _ in labels])
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
