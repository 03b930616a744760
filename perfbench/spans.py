"""Span recording at the layer boundaries of simplexsp, from outside the program.

``instrument`` wraps the public function at each boundary and puts the
wrapper in place of the function's name in every ``simplexsp`` module
namespace that holds it, so calls made through ``from .x import f`` are
recorded too; the source is untouched and everything is restored on exit.
A class is recorded through its ``__init__``.  Spans stay in memory until
the run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) at each layer boundary; metric names drop the package prefix.
BOUNDARIES = [
    ("cli", "main"),
    ("io", "load_graph"),
    ("io", "load_complex"),
    ("io", "save_matrix_csv"),
    ("complex_core", "SimplicialComplex"),
    ("complex_core", "enumerate_candidate_triangles"),
    ("complex_core", "maximal_simplices"),
    ("laplacian", "complex_laplacian"),
    ("structure_learning", "build_family"),
    ("structure_learning", "filtration_bands"),
    ("structure_learning", "order_within_band"),
    ("structure_learning", "select_model"),
    ("spectral", "eigendecompose"),
    ("spectral", "gft"),
    ("spectral", "igft"),
    ("tasks", "detect_anomaly"),
    ("tasks", "denoise_labels"),
    ("diagnostics", "diagnostics_report"),
    ("diagnostics", "sandwich_bounds"),
    ("diagnostics", "distinctive_check"),
]


def _eigen_cols(args, kwargs, result) -> int:
    return result.eigenvectors.shape[1]


def _gft_cols(args, kwargs, result) -> int:
    return result.shape[0]


def _csv_bytes(args, kwargs, result) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# work counters computed from argument and result shapes, or from files written
COUNTERS = {
    "spectral.eigendecompose": ("cols", _eigen_cols),
    "spectral.gft": ("cols", _gft_cols),
    "io.save_matrix_csv": ("bytes", _csv_bytes),
}


class Recorder:
    """Spans of one traced run: (id, name, start_ns, end_ns, parent id or None)."""

    def __init__(self, trace_id: int = 0):
        self.trace_id = trace_id
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent)
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return recorded

    def write(self, fh) -> None:
        for sid, name, start, end, parent in self.spans:
            fh.write(json.dumps({"trace": self.trace_id, "id": sid, "name": name,
                                 "start_ns": start, "end_ns": end, "parent": parent}) + "\n")

    def self_times(self) -> dict:
        """name -> (summed self seconds, calls); self time excludes direct child spans."""
        child_ns = defaultdict(int)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict = {}
        for sid, name, start, end, _ in self.spans:
            ns, calls = totals.get(name, (0, 0))
            totals[name] = (ns + (end - start) - child_ns[sid], calls + 1)
        return {name: (ns / 1e9, calls) for name, (ns, calls) in totals.items()}


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Record spans at every boundary in BOUNDARIES while the block runs."""
    modules = [m for k, m in sys.modules.items() if k == "simplexsp" or k.startswith("simplexsp.")]
    undo = []
    try:
        for module, attr in BOUNDARIES:
            name = f"{module}.{attr}"
            original = getattr(sys.modules.get(f"simplexsp.{module}"), attr, None)
            if original is None:
                print(f"perfbench: no boundary {name}; its metrics read 0", file=sys.stderr)
                continue
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                original.__init__ = recorder.wrap(name, init)
                undo.append((original, "__init__", init))
                continue
            wrapper = recorder.wrap(name, original)
            for m in modules:
                if vars(m).get(attr) is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def write_spans(path: Path, recorders: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for r in recorders:
            r.write(fh)
