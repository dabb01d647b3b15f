"""Smoke test of the benchmark at a tiny size. Run from the repository root:

    python3 perfbench/smoke.py

It runs each workload on seed 0 for the instances the answer digest
covers, traced and untraced, and checks that no instance fails, that every
end-to-end and per-layer metric of BENCHMARK.json prints with its unit,
that both runs match the recorded seed-0 answer digest, and that the
benchmark refuses to run without the library. It then proves that every
check can fail: a wrong expected value fed to each check (Checker's fault
injection) must be reported as a failure, the benchmark's own independent
checkers must reject corrupted answers, and the span check must reject
corrupted spans. Exits 1 on the first problem. Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def run_workload(name: str, trace: int) -> tuple[dict, str]:
    proc = bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace))
    if proc.returncode != 0:
        fail(f"{name} trace={trace} exited {proc.returncode}: "
             f"{proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        fail(f"{name} trace={trace}: {proc.stdout[-800:]}")
    if not any(ln.startswith("failed_ratio = 0.0000 1") for ln in lines):
        fail(f"{name}: failed_ratio is not printed as 0")
    want = SPEC["per_layer" if trace else "end_to_end"]
    for m in want:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{name} trace={trace}: metric {m['name']} is {got}")
        if not any(ln.startswith(f"{m['name']} = ") and
                   ln.endswith(f" {m['unit']}") for ln in lines):
            fail(f"{name}: {m['name']} is not printed with its unit")
    if trace and not any(ln.startswith("tracing overhead:") for ln in lines):
        fail(f"{name}: no tracing overhead line")
    digest = next(ln for ln in lines if ln.startswith("answer digest"))
    if "matches the recorded seed-0 digest" not in digest:
        fail(f"{name} trace={trace}: {digest}")
    return result


def check_runs() -> None:
    for w in SPEC["workloads"]:
        run_workload(w["name"], 0)
        run_workload(w["name"], 1)
        print(f"smoke: {w['name']} runs, metrics print, traced and untraced "
              "answers match the recorded digest")


def check_bare_directory() -> None:
    """Without src/, the benchmark must exit nonzero and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", "sweep", "--seed", "0", "--seconds",
                 "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("the benchmark ran without the library")
    print("smoke: without the library the benchmark exits "
          f"{proc.returncode} and prints no result")


def check_faults() -> None:
    """Every check a workload evaluates must report a wrong expected value."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from checks import Checker
    from tracing import make_lib
    from workloads import (CERTIFY_CYCLE, DEEP_CYCLE, SWEEP_SLOTS,
                           WORKLOADS)
    lib = make_lib(None)
    # one cycle of slots runs every kind of instance, so every check
    cycle = {"sweep": SWEEP_SLOTS, "deep": len(DEEP_CYCLE),
             "certify": len(CERTIFY_CYCLE)}
    for name, (setup, run) in WORKLOADS.items():
        shared = setup(lib, 0)
        specs = shared["corpus"][:cycle[name]]
        seen: dict[str, int] = {}
        for i, spec in enumerate(specs):
            ck = Checker()
            run(lib, shared, spec, ck)
            if ck.failures:
                fail(f"{name} instance {i}: {ck.failures}")
            for check in ck.evaluated:
                seen.setdefault(check, i)
        for check, i in sorted(seen.items()):
            ck = Checker(fault=check)
            run(lib, shared, specs[i], ck)
            if not any(f.startswith(f"{check}:") for f in ck.failures):
                fail(f"{name}: a wrong expected value for {check} "
                     "was not reported")
        print(f"smoke: {name}: each of {len(seen)} checks reports a wrong "
              f"expected value ({', '.join(sorted(seen))})")


def check_checkers() -> None:
    """The benchmark's own checkers reject corrupted answers."""
    from fractions import Fraction

    from checks import bad_isomorphism, bad_solutions
    from simplcs import contextuality as cx
    from simplcs import groups, linsys, presentations, simplicial
    g = groups.build_group("dihedral:8")
    system = linsys.two_vertex_system((1, 0))
    sols = presentations.solutions(system, g)
    if not sols or bad_solutions(g, system, sols):
        fail("bad_solutions rejects true solutions")
    broken = [tuple(g.identity for _ in sols[0])]
    if bad_solutions(g, system, broken) != 1:
        fail("bad_solutions accepts an assignment that breaks a row")
    ident = {x: x for x in range(g.n)}
    if bad_isomorphism(g, g, ident):
        fail("bad_isomorphism rejects the identity")
    swapped = dict(ident)
    a = next(x for x in range(g.n) if g.order(x) == 4)
    b = next(x for x in range(g.n) if g.order(x) == 2 and x != g.j)
    swapped[a], swapped[b] = b, a
    if not bad_isomorphism(g, g, swapped):
        fail("bad_isomorphism accepts a map that swaps orders 2 and 4")

    k33 = linsys.k33_system((0, 0, 0, 0, 0, 1))
    host = simplicial.nzd_sigma(simplicial.complex_of_system(k33), 2, cap=2)
    dets = cx.enumerate_deterministic(host, 2)
    p = cx.theta({dets[0]: Fraction(1, 2), dets[1]: Fraction(1, 2)})
    verdict = cx.is_contextual(p, dets)
    wrong = cx.Verdict(False, weights={dets[0]: Fraction(1)},
                       row_labels=verdict.row_labels)
    try:
        cx.verify_verdict(p, wrong, dets)
    except AssertionError:
        print("smoke: independent checkers reject corrupted answers")
        return
    fail("verify_verdict accepts a wrong convex decomposition")


def check_spans() -> None:
    """nesting_violations accepts nested spans and rejects corrupted ones."""
    from tracing import Tracer
    tracer = Tracer()
    # (name, start, end, parent, instance)
    tracer.spans = [["root", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
                    ["b", 5.0, 9.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
    if tracer.nesting_violations():
        fail("nesting_violations rejects well-nested spans")
    corrupt = {"child past its parent's end": (2, [5.0, 11.0]),
               "child before its parent's start": (3, [0.5, 3.0]),
               "child overlapping its sibling": (2, [3.0, 9.0]),
               "span that ends before it starts": (3, [3.0, 2.0])}
    for what, (idx, (start, end)) in corrupt.items():
        saved = tracer.spans[idx][1:3]
        tracer.spans[idx][1:3] = [start, end]
        if idx not in tracer.nesting_violations():
            fail(f"nesting_violations accepts a {what}")
        tracer.spans[idx][1:3] = saved
    print("smoke: the span check rejects corrupted spans")


if __name__ == "__main__":
    check_runs()
    check_bare_directory()
    check_faults()
    check_checkers()
    check_spans()
    print("smoke: PASS")
