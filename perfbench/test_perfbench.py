"""Self-test of the benchmark harness at tiny size.

    python3 -m pytest perfbench

Checks that every end-to-end metric is printed with its unit for each
workload, that a traced run emits every per-layer metric, that a fixed seed
reproduces the same ops and the same counts, and that the runner refuses to
run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {"quote": 5, "verify": 1, "cli": 2}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads as wl  # noqa: E402


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--ops", str(TINY_OPS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_metrics(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]


@pytest.mark.parametrize("workload", wl.CYCLES)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = _run(workload, trace=0)
    _assert_metrics(lines, result, BENCH["end_to_end"])
    assert result["correct"] is True
    for name, unit in (("latency_p50_ms", "ms"), ("error_rate", "ratio")):
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", wl.CYCLES)
def test_traced_run_emits_every_layer_metric(workload):
    lines, result = _run(workload, trace=1)
    _assert_metrics(lines, result, BENCH["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.overhead"] > 0
    if workload == "quote":
        assert metrics["kernels.calls"] == 0
        assert metrics["root.solves"] > 0
    if workload == "verify":
        assert metrics["kernels.calls"] > 0
        assert 0 < metrics["kernels.feasible_ratio"] <= 1
    if workload == "cli":
        assert metrics["cli.calls"] == 1
        assert metrics["cli.price.wall_ms"] > 0


@pytest.mark.parametrize("workload", wl.CYCLES)
def test_fixed_seed_reproduces_ops(workload):
    ops = [wl.describe(s) for s in wl.first_ops(workload, 7, 30)]
    assert ops == [wl.describe(s) for s in wl.first_ops(workload, 7, 30)]
    assert ops != [wl.describe(s) for s in wl.first_ops(workload, 8, 30)]


def test_fixed_seed_reproduces_counts():
    counted = ("calls", "solves", "evals", "candidates")
    runs = [_run("quote", trace=1, seed=5)[1] for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.split(".")[-1] in counted} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["attempted"] == runs[1]["attempted"]
    assert runs[0]["failed"] == runs[1]["failed"]


def test_quote_cycle_mix_and_strata():
    cycle = wl.quote_cycle(11, 0)
    kinds = [s.kind for s in cycle]
    assert (kinds.count("variance"), kinds.count("power"), kinds.count("custom")) == (40, 8, 2)
    lo, hi = wl.LOG10_K_RANGE
    for kind in ("variance", "power", "custom"):
        scales = sorted(s.log10_k for s in cycle if s.kind == kind)
        width = (hi - lo) / len(scales)
        assert all(lo + i * width <= k < lo + (i + 1) * width for i, k in enumerate(scales))


def test_metric_map_matches_benchmark():
    doc = json.loads((HERE / "METRICS.json").read_text())
    assert set(doc["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    assert doc["per_layer_units"] == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    mapped = [name for row in doc["layer_map"] for name in row["metrics"]]
    assert sorted(mapped) == sorted(doc["per_layer_units"])
    for m in BENCH["end_to_end"]:
        assert doc["end_to_end"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quote",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
