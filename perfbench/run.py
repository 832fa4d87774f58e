"""robustprice benchmark: seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload quote|verify|cli|all --seed N \
        --seconds S --trace 0|1

One client runs a closed loop (the next op starts when the previous one has
returned and been checked) over whole cycles of the workload's mix, until at
least S seconds have passed.  Every op's output is checked; ops that raise
or fail a check are counted, by class, and never dropped.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs a fixed prefix of the op sequence under the
layer-boundary hook of ``tracer.py``, replays the same ops untraced, and
reports the per-layer metrics, normalised per op, with the hook's overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Spans of a traced run
are saved to ``.perfbench/spans_<workload>.npz`` in the checkout.  The
program is imported from the checkout's ``src/`` and never installed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("quote", "verify", "cli")
SETUP_RUNS = 5
PROBE_RUNS = 3
TAIL_BEYOND = 10
# Printed on the summary lines but not end-to-end metrics of BENCHMARK.json:
# error_rate is 0 on a clean workload, and the median latency of sub-second
# ops follows the host's fast and slow CPU phases, so it cannot hold a bound.
REPORTED_ONLY = {"latency_p50_ms": "ms", "error_rate": "ratio"}
# Ops traced per run: a fixed prefix, so counts repeat for a seed.  quote:
# half a cycle (20 variance, 4 power, 1 custom); verify: one op per grid
# size plus two, one with the four-point control; cli: each invocation once.
TRACE_OPS = {"quote": 25, "verify": 5, "cli": 8}
CLI_TIMEOUT_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _wall(cmd) -> tuple:
    """(seconds, completed process) of one child run to completion."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def tail_latency(lat_s):
    """(ms, percentile) at the highest percentile with >= 10 ops beyond it.

    Never below the median: with fewer than 20 ops the tail is the median.
    """
    import numpy as np
    pct = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(lat_s)))
    return float(np.percentile(lat_s, pct)) * 1e3, pct


# --------------------------------------------------------------------------
# ops


class Record:
    __slots__ = ("spec", "latency", "error", "fails", "stdout", "code")

    def __init__(self, spec, latency, error=None, fails=(), stdout="", code=0):
        self.spec, self.latency, self.error = spec, latency, error
        self.fails, self.stdout, self.code = list(fails), stdout, code

    @property
    def ok(self) -> bool:
        return self.error is None and not self.fails


def _in_process_op(workload: str):
    import workloads as wl
    run, check = {"quote": (wl.run_quote, wl.check_quote),
                  "verify": (wl.run_verify, wl.check_verify)}[workload]

    def op(spec, tracer=None):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = run(spec)
            else:
                with tracer:
                    out = run(spec)
        except Exception as exc:  # an op that raises is a counted failure
            return Record(spec, time.perf_counter() - t0, error=type(exc).__name__)
        latency = time.perf_counter() - t0
        try:
            fails = check(spec, out)
        except Exception as exc:
            fails = [f"check_raised_{type(exc).__name__}"]
        return Record(spec, latency, fails=fails)
    return op


def _cli_op(spec, spans_path=None) -> Record:
    if spans_path is None:
        cmd = [sys.executable, "-m", "robustprice.cli", *spec.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *spec.argv]
    latency, proc = _wall(cmd)
    return Record(spec, latency, stdout=proc.stdout, code=proc.returncode)


def _check_cli_records(records) -> None:
    """Compare each CLI op's output with an in-process computation."""
    import workloads as wl
    refs = {}
    for rec in records:
        if rec.spec not in refs:
            try:
                refs[rec.spec] = wl.cli_reference(rec.spec)
            except Exception as exc:
                refs[rec.spec] = exc
        ref = refs[rec.spec]
        if rec.code != 0:
            rec.fails = [f"exit_{rec.code}"]
        elif isinstance(ref, Exception):
            rec.fails = [f"reference_raised_{type(ref).__name__}"]
        else:
            rec.fails = wl.check_cli(rec.spec, rec.stdout, ref)


def closed_loop(workload, seed, seconds, max_ops, op):
    """Run whole cycles until `seconds` have passed, or exactly `max_ops` ops.

    Returns (records, wall seconds, cycles started).
    """
    import workloads as wl
    records, t0 = [], time.perf_counter()
    for cycle in itertools.count(1):
        for spec in wl.CYCLES[workload](seed, cycle - 1):
            if max_ops and len(records) == max_ops:
                break
            records.append(op(spec))
        wall = time.perf_counter() - t0
        if (len(records) == max_ops) if max_ops else wall >= seconds:
            return records, wall, cycle


# --------------------------------------------------------------------------
# set-up and import probes


def warm_up(workload: str, seed: int) -> None:
    """Run one untimed op, so lazy set-up inside the program is done."""
    import workloads as wl
    spec = {"quote": wl.quote_warmup, "verify": wl.verify_warmup}[workload](seed)
    _in_process_op(workload)(spec)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that set the workload up."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import robustprice.cli"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t, proc = _wall(cmd)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(t)
    return statistics.median(times)


def import_metrics(workload: str) -> dict:
    """Interpreter start and per-package import self time, medians of fresh runs."""
    module = "robustprice.cli" if workload == "cli" else "robustprice"
    interp, by_pkg = [], {"numpy": [], "scipy": [], "robustprice": []}
    for _ in range(PROBE_RUNS):
        interp.append(_wall([sys.executable, "-c", "pass"])[0] * 1e3)
        _, proc = _wall([sys.executable, "-X", "importtime", "-c", f"import {module}"])
        self_us = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            self_us[fields[2].strip().split(".")[0]] += int(fields[0])
        for pkg in by_pkg:
            by_pkg[pkg].append(self_us[pkg] / 1e3)
    return {"import.interpreter_ms": statistics.median(interp),
            "import.numpy_ms": statistics.median(by_pkg["numpy"]),
            "import.scipy_ms": statistics.median(by_pkg["scipy"]),
            "import.robustprice_self_ms": statistics.median(by_pkg["robustprice"])}


# --------------------------------------------------------------------------
# pre-checks and metadata


def prechecks(workload: str, seed: int) -> list:
    """Reference checks made once, outside the timed phase; returns failures."""
    import workloads as wl
    fails = []
    if workload == "quote":
        dev = wl.table1_precheck()
        if not dev <= wl.TABLE1_TOL:
            fails.append(f"table1_deviation_{dev:.3e}")
    if workload == "verify" and _numba_importable():
        fails += _backend_agreement(wl.verify_cycle(seed, 0))
    return fails


def _numba_importable() -> bool:
    import importlib.util
    return importlib.util.find_spec("numba") is not None


def _backend_agreement(specs) -> list:
    """Both kernel backends give the same minima on the sampled verify grids."""
    import numpy as np
    from numba import njit
    from robustprice import _kernels
    from robustprice.oracle import oracle_grid
    compiled = njit(cache=False)(_kernels._enumerate_impl)
    fails, seen = [], set()
    for spec in specs:
        if spec.grid in seen:
            continue
        seen.add(spec.grid)
        g, _ = oracle_grid(spec.market, spec.p, spec.grid)
        phi = np.asarray(spec.market.measure.value(g), dtype=float)
        args = (g, phi, spec.market.mu, spec.market.s, spec.p,
                _kernels.DISP_TOL, _kernels.MASS_TOL)
        a, b = compiled(*args), _kernels._enumerate_numpy(*args)
        if abs(a[0] - b[0]) >= 1e-12 or abs(a[1] - b[1]) >= 1e-12:
            fails.append(f"backends_disagree_grid{spec.grid}")
    return fails


def metadata(workload, seed, n_ops, cycles) -> dict:
    import numpy
    import scipy
    from robustprice import _kernels
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "ops": n_ops, "cycles": cycles,
            "git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "kernel_backend": _kernels.KERNEL_BACKEND,
            "numba_importable": _numba_importable()}


# --------------------------------------------------------------------------
# runs


def _summary(records) -> dict:
    failures = Counter()
    for rec in records:
        if rec.error is not None:
            failures[rec.error] += 1
        for f in rec.fails:
            failures[f"check:{f}"] += 1
    return dict(failures)


def untraced_run(workload, seed, seconds, max_ops) -> tuple:
    setup_s = measure_setup(workload, seed)
    pre = prechecks(workload, seed)
    if workload != "cli":
        warm_up(workload, seed)
    op = _cli_op if workload == "cli" else _in_process_op(workload)
    records, wall, cycles = closed_loop(workload, seed, seconds, max_ops, op)
    if workload == "cli":
        _check_cli_records(records)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = [r.latency for r in records if r.ok]
    tail_ms, tail_pct = tail_latency(ok) if ok else (float("nan"), None)
    metrics = {
        "error_rate": sum(not r.ok for r in records) / len(records),
        "ops_per_s": len(records) / wall,
        "latency_p50_ms": statistics.median(ok) * 1e3 if ok else float("nan"),
        "latency_tail_ms": tail_ms,
        "setup_s": setup_s,
        "rss_peak_mb": rss_kb / 1024.0,
    }
    info = {"tail_percentile": tail_pct, "tail_n": len(ok), "wall_s": wall,
            "failures": _summary(records), "prechecks_failed": pre}
    return records, cycles, metrics, info, not pre


def traced_run(workload, seed, seconds, max_ops) -> tuple:
    """Trace a fixed prefix of the op sequence, then replay it untraced."""
    import workloads as wl
    from tracer import Spans, Tracer
    metrics = import_metrics(workload)
    pre = prechecks(workload, seed)
    if workload != "cli":
        warm_up(workload, seed)
    spans = Spans()
    OUT_DIR.mkdir(exist_ok=True)
    in_process = None if workload == "cli" else _in_process_op(workload)
    op_ids = itertools.count()

    def traced_op(spec):
        op_id = next(op_ids)
        if in_process is not None:
            tracer = Tracer()
            tracer.op_id = op_id
            rec = in_process(spec, tracer=tracer)
            spans.add_tracer(tracer)
            return rec
        path = OUT_DIR / "spans_cli_op.npz"
        rec = _cli_op(spec, spans_path=path)
        if path.exists():
            spans.add_file(str(path), op_id=op_id)
            path.unlink()
        return rec

    traced, _, cycles = closed_loop(workload, seed, 0.0,
                                    max_ops or TRACE_OPS[workload], traced_op)
    base = [(in_process or _cli_op)(rec.spec) for rec in traced]
    if workload == "cli":
        _check_cli_records(traced + base)
    spans.save(str(OUT_DIR / f"spans_{workload}.npz"))
    n = len(traced)
    metrics.update(spans.layer_metrics(n))
    for sub in wl.CLI_INVOCATIONS:
        walls = [r.latency for r in base if workload == "cli" and r.spec.sub == sub]
        metrics[f"cli.{sub}.wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    metrics["trace.overhead"] = (sum(r.latency for r in traced)
                                 / sum(r.latency for r in base))
    records = traced + base
    info = {"traced_ops": n, "failures": _summary(records), "prechecks_failed": pre}
    return records, cycles, metrics, info, not pre


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]
                              + (["--ops", str(args.ops)] if args.ops else []),
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="stop after this many ops instead of after --seconds "
                         "(small self-test runs)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "robustprice" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no robustprice sources under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import robustprice
    if Path(robustprice.__file__).resolve().parent != SRC / "robustprice":
        sys.stderr.write(f"perfbench: imported robustprice from {robustprice.__file__}\n")
        return 2

    if args.setup_probe:
        warm_up(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = traced_run if args.trace else untraced_run
    records, cycles, values, info, prechecks_ok = run(
        args.workload, args.seed, args.seconds, args.ops)

    failed = sum(not r.ok for r in records)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} ops, {failed} failed, {cycles} cycles")
    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units.update(REPORTED_ONLY)
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    print("info " + json.dumps(info))
    print("meta " + json.dumps(metadata(args.workload, args.seed, len(records), cycles)))
    print(json.dumps({
        "correct": prechecks_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
