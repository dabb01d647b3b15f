import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "instances_per_s", "better": "higher"},
           {"name": "instance_p50_s", "better": "lower"}]


def fake_run(ips, p50, attempted=10, failed=0):
    return {"instances_per_s": ips, "instance_p50_s": p50,
            "correct": not failed, "failed": failed, "attempted": attempted}


def test_summary_of_fixed_runs():
    # five pairs: the change wins four on throughput (one tie) and three on
    # latency (one tie, one loss)
    runs = [((4.0, 0.20), (8.0, 0.10)), ((5.0, 0.25), (5.0, 0.25)),
            ((6.0, 0.15), (9.0, 0.30)), ((4.5, 0.22), (9.5, 0.09)),
            ((5.5, 0.21), (10.0, 0.20))]
    pairs = [{"seed": k // 2, "first": ("parent", "change")[k % 2],
              "parent": fake_run(*parent), "change": fake_run(*change)}
             for k, (parent, change) in enumerate(runs)]
    got = bench_pairs.summarize(pairs, METRICS)
    assert got == {
        "instances_per_s": {
            "parent_median": 5.0, "parent_q1": 4.5, "parent_q3": 5.5,
            "change_median": 9.0, "change_q1": 8.0, "change_q3": 9.5,
            "change_better_pairs": 4, "pairs": 5},
        "instance_p50_s": {
            "parent_median": 0.21, "parent_q1": 0.2, "parent_q3": 0.22,
            "change_median": 0.2, "change_q1": 0.1, "change_q3": 0.25,
            "change_better_pairs": 3, "pairs": 5},
    }


def test_summary_reproduces_a_recorded_bench_file():
    # the summaries in BENCH_10.json were made from its pairs by the same
    # rule: inclusive quartiles, six decimals, ties counting for neither
    recorded = json.loads((ROOT / "BENCH_10.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in recorded["workloads"].values():
        assert bench_pairs.summarize(workload["pairs"], metrics) \
            == workload["summary"]


def test_runs_block(tmp_path):
    # the change stops at a 300-instance corpus in every run; one parent
    # run fails two instances
    pairs = [{"seed": k, "first": "parent",
              "parent": fake_run(1.0, 0.5, attempted=a, failed=f),
              "change": fake_run(2.0, 0.2, attempted=300)}
             for k, (a, f) in enumerate(((180, 0), (240, 2), (200, 0)))]
    out = tmp_path / "bench.json"
    bench_pairs.write(out, "fixed runs", {"certify": pairs}, METRICS)
    written = json.loads(out.read_text())["workloads"]["certify"]
    assert written["runs"] == {
        "parent": {"attempted_min": 180, "attempted_median": 200,
                   "attempted_max": 240, "all_correct": False, "failed": 2},
        "change": {"attempted_min": 300, "attempted_median": 300,
                   "attempted_max": 300, "all_correct": True, "failed": 0},
    }
    assert written["summary"] == bench_pairs.summarize(pairs, METRICS)


def test_benchmark_digests(tmp_path):
    # both sides' BENCHMARK.json and perfbench/*.py, hashed; a change to
    # one file shows in that file's digest only
    sides = {}
    for side, run_py in (("parent", b"print(1)\n"), ("change", b"print(2)\n")):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_bytes(b"{}\n")
        (root / "perfbench" / "run.py").write_bytes(run_py)
        (root / "perfbench" / "checks.py").write_bytes(b"")
        (root / "perfbench" / "record.json").write_bytes(b"[]\n")
        sides[side] = bench_pairs.benchmark_digests(root)
    assert list(sides["parent"]) == ["BENCHMARK.json", "perfbench/checks.py",
                                      "perfbench/run.py"]
    assert sides["parent"]["perfbench/checks.py"] == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    differ = [k for k in sides["parent"]
              if sides["parent"][k] != sides["change"][k]]
    assert differ == ["perfbench/run.py"]
    out = tmp_path / "bench.json"
    bench_pairs.write(out, "digests", {}, METRICS, sides)
    assert json.loads(out.read_text())["benchmark"] == sides
    # this checkout's own benchmark files are all covered
    own = bench_pairs.benchmark_digests(ROOT)
    assert set(own) == {"BENCHMARK.json"} | {
        f"perfbench/{p.name}" for p in (ROOT / "perfbench").glob("*.py")}
