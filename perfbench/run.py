"""simplcs benchmark: one seeded workload per process, closed loop, one
instance in flight.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Untraced (`--trace 0`) the last line of stdout is a JSON object with the
end-to-end metrics; traced (`--trace 1`) it carries the per-layer metrics,
and each instance runs twice, traced and untraced in alternating order, so
the tracing overhead is measured on the same inputs. Spans are written to
`.perfbench/trace-<workload>-<seed>.jsonl` when a traced run ends.

An instance's clock stops while its answer is checked (`Checker.seconds`),
so instance times and instances_per_s measure the library's work; the run
prints how much time the checks took.

Exit code 0 when the run completed (check failures are reported in the
JSON, not by the exit code), 2 when the checkout has no `src/simplcs`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import Checker

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# Instances every run completes, whatever --seconds says. The answer digest
# covers exactly these, and the per-layer metrics of a traced run are taken
# over them (plus set-up), so that counts repeat exactly for a fixed seed.
MIN_INSTANCES = {"sweep": 40, "deep": 6, "certify": 12}
RECORD = HERE / "record.json"
ROOT_SPAN = "perfbench.instance"   # around each traced instance
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t = time.perf_counter(); import tracing, workloads; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(MIN_INSTANCES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile): the mean of the 10 slowest instances, which lie
    beyond the highest percentile that has 10 instances beyond it (all of
    them, beyond p0, when a run holds 10 or fewer).

    The value at that percentile would sit on the gap between two slot
    kinds of very different cost (sweep's 2.5 s extracted systems and 1.2 s
    Todd-Coxeter runs) whenever a run holds about 10 of the slowest kind,
    and jump by 2x with the instance count; the mean of the 10 slowest
    moves smoothly with it.
    """
    ordered = sorted(durations)
    n = len(ordered)
    return statistics.fmean(ordered[-10:]), 100.0 * max(n - 10, 0) / n


def digest(answers: list) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fresh_import_seconds() -> float:
    """Time to import the library and the benchmark in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE.parent / "src"),
         str(HERE)], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def recorded_digest(workload: str, seed: int, count: int):
    """The committed seed-0 digest for this prefix length, if there is one."""
    if seed != 0 or not RECORD.exists():
        return None
    entry = json.loads(RECORD.read_text())["answer_digests"].get(workload)
    if entry is None or entry["instances"] != count:
        return None
    return entry["digest"]


class Run:
    """Runs instances and keeps their answers and failures."""

    def __init__(self, run_fn, shared):
        self.run_fn = run_fn
        self.shared = shared
        self.answers: list = []
        self.failures: list[str] = []
        self.failed = 0
        self.inconclusive = 0
        self.check_s = 0.0

    def once(self, lib, spec):
        """(answer, inconclusive, failure messages, seconds) for one
        instance; the seconds leave out the time spent checking it."""
        ck = Checker()
        t0 = time.perf_counter()
        try:
            answer, inconclusive = self.run_fn(lib, self.shared, spec, ck)
        except Exception as exc:  # a raising instance counts as failed
            traceback.print_exc(file=sys.stderr)
            answer, inconclusive = ["raised", type(exc).__name__], False
            ck.failures.append(f"raised {type(exc).__name__}: {exc}")
        self.check_s += ck.seconds
        return (answer, inconclusive, ck.failures,
                time.perf_counter() - t0 - ck.seconds)

    def record(self, index, answer, inconclusive, failures):
        self.answers.append(answer)
        self.inconclusive += bool(inconclusive)
        if failures:
            self.failed += 1
            self.failures.extend(f"instance {index}: {m}" for m in failures)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = HERE.parent / "src"
    if not (src / "simplcs").is_dir():
        # measure the checkout's library, never an installed copy
        print(f"no library at {src / 'simplcs'}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    from tracing import Tracer, make_lib
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t_import

    setup_fn, run_fn = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    plain = make_lib(None)
    traced = make_lib(tracer) if tracer else None

    setups = []
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        if tracer and last:
            tracer.instance = "setup"
        t0 = time.perf_counter()
        shared = setup_fn(traced if tracer and last else plain, args.seed)
        setups.append(time.perf_counter() - t0)
    imports = [import_s] + [fresh_import_seconds()
                            for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(imports) + statistics.median(setups)

    min_n = MIN_INSTANCES[args.workload]
    corpus = shared["corpus"]
    run = Run(run_fn, shared)
    plain_s: list[float] = []
    traced_s: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i < len(corpus) and (i < min_n or time.perf_counter() < deadline):
        spec = corpus[i]
        if tracer is None:
            answer, inc, fails, dt = run.once(plain, spec)
            plain_s.append(dt)
        else:
            results = {}
            for mode in (("traced", "plain") if i % 2 == 0
                         else ("plain", "traced")):
                if mode == "traced":
                    tracer.instance = i
                    root = tracer.open(ROOT_SPAN)
                    results[mode] = run.once(traced, spec)
                    tracer.close(root)
                else:
                    results[mode] = run.once(plain, spec)
            answer, inc, fails, dt = results["traced"]
            traced_s.append(dt)
            plain_s.append(results["plain"][3])
            fails = fails + results["plain"][2]
            if results["plain"][0] != answer:
                fails.append("traced and untraced answers differ")
        run.record(i, answer, inc, fails)
        i += 1
    wall = time.perf_counter() - start

    n = len(run.answers)
    print(f"checks took {run.check_s:.3f} s of the {wall:.3f} s run "
          f"({100 * run.check_s / wall:.1f}%), off the instance clock")
    for msg in run.failures[:20]:
        print("FAIL", msg)
    prefix = min(min_n, n)
    got = digest(run.answers[:prefix])
    want = recorded_digest(args.workload, args.seed, prefix)
    digest_ok = want is None or want == got
    print(f"answer digest of the first {prefix} instances: {got}"
          + ("" if want is None else
             " (matches the recorded seed-0 digest)" if digest_ok else
             f" (DIFFERS from the recorded seed-0 digest {want})"))
    print(f"failed_ratio = {run.failed / n:.4f} 1 ({run.failed}/{n}); "
          f"inconclusive_ratio = {run.inconclusive / n:.4f} 1 "
          f"({run.inconclusive}/{n})")
    correct = run.failed == 0 and digest_ok

    if tracer is None:
        tail_s, tail_pct = tail(plain_s)
        metrics = {
            "instances_per_s": (n / (wall - run.check_s), "1/s"),
            "instance_p50_s": (statistics.median(plain_s), "s"),
            "instance_tail_s": (tail_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        print(f"instance_tail_s is the mean of the instances beyond "
              f"p{tail_pct:.1f} of {n} instances")
    else:
        summary = tracer.summary({"setup", *range(prefix)})
        metrics = layer_metrics(summary)
        own = summary[ROOT_SPAN]
        print(f"the benchmark's own time (checks and glue) is "
              f"{own['self_s']:.3f} s of {own['total_s']:.3f} s in traced "
              f"instances ({100 * own['self_s'] / own['total_s']:.1f}%)")
        bad = tracer.nesting_violations()
        if bad:
            print(f"spans outside their parent or overlapping a sibling: "
                  f"{bad[:10]}")
            correct = False
        t_ips, p_ips = n / sum(traced_s), n / sum(plain_s)
        print(f"tracing overhead: traced {t_ips:.4f} instances/s against "
              f"untraced {p_ips:.4f} instances/s "
              f"({100 * (p_ips / t_ips - 1):+.2f}% time)")
        out_dir = Path(".perfbench")
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl"))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def layer_metrics(summary: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, 0 where a layer is idle."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = {}
    for m in spec["per_layer"]:
        span, _, field = m["name"].rpartition(".")
        if field in ("calls", "total_s", "self_s"):
            value = summary.get(span, {}).get(field, 0)
        else:
            value = summary.get(m["name"], {}).get("count", 0)
        out[m["name"]] = (value, m["unit"])
    return out


if __name__ == "__main__":
    sys.exit(main())
