"""Alternating parent/change runs of perfbench, summarized into BENCH_<n>.json.

Usage (from anywhere; each checkout is a directory holding its own
`perfbench/run.py`, `src/` and `BENCHMARK.json`):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seeds 0 1 2 3 4 --out BENCH_11.json --description "..."

For every seed, two rounds run: in the first the parent goes first, in the
second the change does. Within a round the workloads run interleaved, one
pair each, so a slow spell of the machine falls on both sides of a pair.
Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in its checkout, for every workload W of the change's
BENCHMARK.json and its `run_seconds` T; the run's closing JSON line is
recorded. The output file is rewritten after every pair, so an interrupted
session keeps what it measured. The summary gives, per end-to-end metric of
BENCHMARK.json, each side's median and inclusive quartiles and the number
of pairs the change won (ties count for neither side); per workload, the
`runs` block gives each side's range of instances attempted, whether every
run was correct, and the total failed. The `benchmark` block gives, per
side, the sha256 of its BENCHMARK.json and of each `perfbench/*.py`, so a
reader can see that both sides ran the same benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGITS = 6


def run_once(checkout: Path, workload: str, seed: int, seconds: float
             ) -> dict:
    """One untraced perfbench run: its metric values, correct, failed and
    attempted."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    last = [line for line in proc.stdout.splitlines()
            if line.startswith("{")][-1]
    report = json.loads(last)
    out = {name: round(m["value"], DIGITS)
           for name, m in report["metrics"].items()}
    out.update(correct=report["correct"], failed=report["failed"],
               attempted=report["attempted"])
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3), inclusive method, rounded like the runs."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return tuple(round(q, DIGITS) for q in (q1, q2, q3))


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric (a BENCHMARK.json `end_to_end` entry), each side's median
    and quartiles over the pairs and the pairs the change won."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        entry = {}
        for side in SIDES:
            q1, med, q3 = quartiles([pair[side][name] for pair in pairs])
            entry.update({f"{side}_median": med, f"{side}_q1": q1,
                          f"{side}_q3": q3})
        wins = 0
        for pair in pairs:
            parent, change = pair["parent"][name], pair["change"][name]
            wins += change > parent if higher else change < parent
        entry.update(change_better_pairs=wins, pairs=len(pairs))
        out[name] = entry
    return out


def runs(pairs: list) -> dict:
    """Per side, over the pairs: the min, median and max of the instances
    attempted in a run, whether every run was correct, and the total
    failed."""
    out = {}
    for side in SIDES:
        attempted = [pair[side]["attempted"] for pair in pairs]
        out[side] = {"attempted_min": min(attempted),
                     "attempted_median": statistics.median(attempted),
                     "attempted_max": max(attempted),
                     "all_correct": all(pair[side]["correct"]
                                        for pair in pairs),
                     "failed": sum(pair[side]["failed"] for pair in pairs)}
    return out


def benchmark_digests(checkout: Path) -> dict:
    """sha256 of the checkout's BENCHMARK.json and of each perfbench/*.py,
    keyed by path relative to the checkout."""
    files = [checkout / "BENCHMARK.json",
             *sorted((checkout / "perfbench").glob("*.py"))]
    return {f.relative_to(checkout).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--description", default="")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs: dict = {w: [] for w in workloads}
    benchmark = {side: benchmark_digests(path)
                 for side, path in checkouts.items()}
    for seed in args.seeds:
        for first in SIDES:
            order = (first, *(s for s in SIDES if s != first))
            for workload in workloads:
                pair = {"seed": seed, "first": first}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed,
                                          spec["run_seconds"])
                    print(f"{workload} seed {seed} {side}: {pair[side]}",
                          file=sys.stderr, flush=True)
                pairs[workload].append(pair)
                write(args.out, args.description, pairs, spec["end_to_end"],
                      benchmark)
    return 0


def write(path: Path, description: str, pairs: dict, metrics: list,
          benchmark: dict | None = None) -> None:
    body = {"description": description, "benchmark": benchmark or {},
            "workloads": {w: {"pairs": ps, "summary": summarize(ps, metrics),
                              "runs": runs(ps)}
                          for w, ps in pairs.items() if ps}}
    path.write_text(json.dumps(body, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
