"""Layer-boundary spans recorded by a ``sys.setprofile`` hook.

The layers are the modules of ``robustprice`` (``_kernels`` is reported as
``kernels``) plus the pseudo-layer ``root`` for the ``scipy.optimize``
solvers the package calls.  A span opens whenever control enters a function
of a different layer from the current top span, and closes when that
function returns or raises.  Calls inside one layer open no span, so a
layer's ``calls`` count is the number of times it was entered from outside.
A ``robustprice`` span whose parent is a ``root`` span is an objective
evaluation made by the solver.

Spans stay in memory in flat arrays and are saved once, at the end.  Self
time is a span's duration minus the time covered by its child spans.

Run as a script, this module executes ``robustprice.cli`` under the hook in
a child process and saves that process's spans:

    python3 perfbench/tracer.py SPANS.npz -- price --mu 0.5 --sigma 0.3 --beta 1
"""

from __future__ import annotations

import sys
import time
from array import array
from math import comb

import numpy as np

PACKAGE = "robustprice"
ROOT_PREFIX = "scipy.optimize"
ROOT = "root"
LAYERS = ("dispersion", "ambiguity", "bounds", "ratio", "extremal", "optimizer",
          "oracle", "kernels", "cli")
# Per-span columns, then one row per entry into the enumeration kernel.
FIELDS = ("start", "end", "parent", "name", "op",
          "kernel_spans", "kernel_candidates", "kernel_feasible")


def _layer_of(module: str) -> str:
    name = module[len(PACKAGE) + 1:] if module.startswith(PACKAGE + ".") else module
    return "kernels" if name == "_kernels" else name


class Tracer:
    def __init__(self):
        self.names = []            # span name table: "layer.function"
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.kernel_spans = array("q")      # span index of each kernel entry
        self.kernel_candidates = array("q")
        self.kernel_feasible = array("q")
        self.op_id = -1
        self._stack = []           # (span index, frame, layer)

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def _name_id(self, layer: str, func: str) -> int:
        key = (layer, func)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(f"{layer}.{func}")
        return nid

    def _hook(self, frame, event, arg):
        stack = self._stack
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith(PACKAGE):
                code = frame.f_code
                if code.co_name == "<module>":
                    return
                layer = _layer_of(module)
            elif stack and module.startswith(ROOT_PREFIX) and stack[-1][2] != ROOT:
                layer = ROOT
            else:
                return
            if stack and stack[-1][2] == layer:
                return
            idx = len(self.start)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(self._name_id(layer, frame.f_code.co_name))
            self.op.append(self.op_id)
            stack.append((idx, frame, layer))
            if layer == "kernels" and frame.f_code.co_name == "enumerate_min":
                n = len(frame.f_locals["g"])
                self.kernel_spans.append(idx)
                self.kernel_candidates.append(comb(n, 2) + comb(n, 3))
                self.kernel_feasible.append(-1)
        elif event == "return" and stack and stack[-1][1] is frame:
            idx, _, layer = stack.pop()
            self.end[idx] = time.perf_counter()
            if layer == "kernels" and self.kernel_spans and self.kernel_spans[-1] == idx \
                    and isinstance(arg, tuple):
                self.kernel_feasible[-1] = int(arg[4])

    def arrays(self) -> dict:
        return {f: np.frombuffer(getattr(self, f), dtype=np.float64 if f in ("start", "end")
                                 else np.int64) for f in FIELDS}


class Spans:
    """Spans of one or more traced processes, merged, with their aggregates."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.data = {f: [] for f in FIELDS}
        self._offset = 0

    def add(self, names, arrays: dict) -> None:
        """Append one process's spans, re-basing span and name indices."""
        for n in names:
            self._name_ids.setdefault(n, len(self._name_ids))
        self.names = list(self._name_ids)
        remap = np.array([self._name_ids[n] for n in names], dtype=np.int64)
        parent = arrays["parent"]
        arrays = dict(arrays, parent=np.where(parent >= 0, parent + self._offset, -1),
                      name=remap[arrays["name"]],
                      kernel_spans=arrays["kernel_spans"] + self._offset)
        for f in FIELDS:
            self.data[f].append(arrays[f])
        self._offset += len(arrays["start"])

    def add_tracer(self, tr: Tracer) -> None:
        self.add(tr.names, tr.arrays())

    def add_file(self, path: str, op_id: int) -> None:
        """Append the spans a traced child process saved, as op `op_id`."""
        with np.load(path) as z:
            names, arrays = list(z["names"]), {f: z[f] for f in FIELDS}
        arrays["op"] = np.full(len(arrays["start"]), op_id, dtype=np.int64)
        self.add(names, arrays)

    def _cat(self, f: str) -> np.ndarray:
        parts = self.data[f]
        dtype = np.float64 if f in ("start", "end") else np.int64
        return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 **{f: self._cat(f) for f in FIELDS})

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op calls and self time of every layer, plus solver and kernel counts."""
        start, end, parent, name = (self._cat(f) for f in ("start", "end", "parent", "name"))
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        layer = np.array([nm.split(".", 1)[0] for nm in self.names] or [""])[name]
        out = {}
        for lay in LAYERS + (ROOT,):
            mask = layer == lay
            key = "solves" if lay == ROOT else "calls"
            out[f"{lay}.{key}"] = int(mask.sum()) / n_ops
            out[f"{lay}.self_ms"] = float(self_t[mask].sum()) * 1e3 / n_ops
        in_root = np.zeros(n, dtype=bool)
        in_root[has_parent] = layer[parent[has_parent]] == ROOT
        out["root.evals"] = int((in_root & (layer != ROOT)).sum()) / n_ops

        spans, cand, feas = (self._cat(f) for f in
                             ("kernel_spans", "kernel_candidates", "kernel_feasible"))
        total = int(cand.sum())
        kernel_s = float(dur[spans].sum()) if len(spans) else 0.0
        out["kernels.candidates"] = total / n_ops
        out["kernels.feasible_ratio"] = int(feas[feas >= 0].sum()) / total if total else 0.0
        out["kernels.candidates_per_s"] = total / kernel_s if kernel_s > 0 else 0.0
        return out


def _main(argv) -> int:
    """Run robustprice.cli under the hook; save this process's spans."""
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.npz -- CLI-ARGS...")
    from robustprice import cli
    tracer = Tracer()
    with tracer:
        code = cli.main(cli_args)
    spans = Spans()
    spans.add_tracer(tracer)
    spans.save(out)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
