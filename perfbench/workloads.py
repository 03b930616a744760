"""Benchmark workloads: seeded input generators and the CLI command each runs.

Inputs are generated here, with numpy only, so that they do not change when
the library's own generators change.  The program under test receives only
the files written into the work directory.  Every path handed to the CLI is
relative to that directory, which makes the manifests independent of where
the benchmark runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
MAGNITUDES = [10.0, 20.0, 30.0, 40.0, 50.0]  # detect's default magnitudes
SNRS = [2.0, 1.0, 0.0, -1.0, -2.0]  # denoise's default SNR sweep


@dataclass
class Inputs:
    """What one generated workload instance hands to the CLI and to the checks."""

    argv: list
    outputs: list  # data output files, relative to the work directory
    manifest: str  # the run manifest, relative to the work directory
    sizes: dict  # sizes.* counters: vertices, edges, triangles, levels
    params: dict  # values the output checks need
    edges: list = field(repr=False, default_factory=list)
    triangles: list = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict
    smoke: dict

    def generate(self, seed: int, work: Path, smoke: bool = False) -> Inputs:
        params = dict(self.smoke if smoke else self.full)
        return _GENERATORS[self.name](np.random.default_rng(seed), seed, params, work)


def knn_edges(rng, n: int, k: int) -> list:
    """Unit-square points; edge (i, j) iff j is among the k nearest of i or vice versa."""
    pts = rng.random((n, 2))
    d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d, np.inf)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = nearest.ravel()
    pairs = np.unique(np.stack([np.minimum(rows, cols), np.maximum(rows, cols)], axis=1), axis=0)
    return [tuple(p) for p in pairs.tolist()]


def two_cluster_edges(rng, n: int, p_in: float, p_out: float) -> list:
    """Two random clusters of n/2 vertices, each kept connected by a path, plus one bridge."""
    half = n // 2
    iu, ju = np.triu_indices(n, 1)
    same = (iu < half) == (ju < half)
    keep = rng.random(iu.size) < np.where(same, p_in, p_out)
    edges = set(zip(iu[keep].tolist(), ju[keep].tolist()))
    edges.update((i, i + 1) for i in range(n - 1))  # both paths and the bridge (half-1, half)
    return sorted(edges)


def closed_triangles(edges) -> list:
    """All 3-cliques (u, v, w) with u < v < w, sorted."""
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return sorted((u, v, w) for u, v in edges for w in adj[u] & adj[v] if w > v)


def _draw(rng, params: dict, make_edges) -> tuple:
    """A graph and its closed triangles.

    With a "triangles" target in params, graphs are drawn until the count is
    within 1 % of it: the count varies by 3-7 % between seeds, and ordering
    and maximal-simplex costs grow with its square, which would otherwise
    make run-to-run spread a property of the seed.
    """
    target = params.get("triangles")
    for _ in range(1000):
        edges = make_edges(rng)
        tris = closed_triangles(edges)
        if target is None or abs(len(tris) - target) <= 0.01 * target:
            return edges, tris
    raise ValueError(f"no graph with about {target} triangles in 1000 draws")


def _write_edges(path: Path, edges) -> None:
    path.write_text("".join(f"{u},{v},1.0\n" for u, v in edges))


def _write_column(path: Path, values: np.ndarray) -> None:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")


def _learn(rng, seed, params, work) -> Inputs:
    n, p = params["n"], params["p"]
    edges, tris = _draw(rng, params, lambda r: knn_edges(r, n, params["k"]))
    _write_edges(work / "graph.csv", edges)
    _write_column(work / "signals.csv", rng.standard_normal((n, params["signals"])))
    outputs = ["out/family.json"] + [f"out/laplacian_{i:02d}.csv" for i in range(p + 1)]
    outputs.append("out/residuals.csv")
    argv = ["learn", "--graph", "graph.csv", "--signals", "signals.csv",
            "--p", str(p), "--seed", str(seed), "--out", "out"]
    sizes = {"vertices": n, "edges": len(edges), "triangles": len(tris), "levels": p + 1}
    return Inputs(argv, outputs, "out/learn.manifest.json", sizes,
                  {"n": n, "p": p, "seed": seed}, edges, tris)


def _config_run(command, output, seed, params, work, edges, tris, extra) -> Inputs:
    """An experiment subcommand driven by a JSON config (detect, denoise)."""
    n, p = params["n"], params["p"]
    _write_edges(work / "graph.csv", edges)
    config = {"graph": "graph.csv", "p": p, "trials": params["trials"], "seed": seed,
              "out_dir": "out", **extra}
    (work / f"{command}.json").write_text(json.dumps(config, sort_keys=True))
    sizes = {"vertices": n, "edges": len(edges), "triangles": len(tris), "levels": p + 1}
    return Inputs([command, "--config", f"{command}.json"], [f"out/{output}"],
                  f"out/{command}.manifest.json", sizes,
                  {"n": n, "p": p, "seed": seed, "trials": params["trials"], "config": config},
                  edges, tris)


def _detect(rng, seed, params, work) -> Inputs:
    edges, tris = _draw(rng, params, lambda r: knn_edges(r, params["n"], params["k"]))
    return _config_run("detect", "detection.csv", seed, params, work, edges, tris,
                       {"strategies": ["S1", "S4"]})


def _denoise(rng, seed, params, work) -> Inputs:
    n = params["n"]
    edges, tris = _draw(rng, params,
                        lambda r: two_cluster_edges(r, n, params["p_in"], params["p_out"]))
    labels = np.where(np.arange(n) < n // 2, 1.0, 2.0)
    _write_column(work / "labels.csv", labels[:, None])
    return _config_run("denoise", "denoise.csv", seed, params, work, edges, tris,
                       {"labels": "labels.csv"})


def _diagnose(rng, seed, params, work) -> Inputs:
    n = params["n"]
    edges, tris = _draw(rng, params, lambda r: knn_edges(r, n, params["k"]))
    m = int(round(params["fraction"] * len(tris)))
    planted = [tris[i] for i in np.sort(rng.choice(len(tris), size=m, replace=False))]
    complex_ = {
        "vertices": list(range(n)),
        "edges": [[u, v, 1.0] for u, v in edges],
        "simplices": [list(t) for t in planted],
    }
    (work / "complex.json").write_text(json.dumps(complex_))
    sizes = {"vertices": n, "edges": len(edges), "triangles": len(planted), "levels": 1}
    return Inputs(["diagnose", "--complex", "complex.json", "--out", "out/diagnose.json"],
                  ["out/diagnose.json"], "out/diagnose.manifest.json", sizes,
                  {"n": n, "seed": None}, edges, planted)


_GENERATORS = {
    "learn-knn": _learn,
    "detect-sparse": _detect,
    "denoise-clusters": _denoise,
    "diagnose-planted": _diagnose,
}

# Sizes are chosen so that one command takes 1.5-2.5 s on a 2-core machine:
# a run then holds several fresh-process samples, whose median is steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "learn-knn",
            "learn with 20 signals on a kNN(k=8) graph: the one workload dominated by "
            "structure_learning ordering and by io writes of 21 Laplacian CSVs",
            full={"n": 160, "k": 8, "triangles": 1270, "signals": 20, "p": 20},
            smoke={"n": 40, "k": 8, "signals": 5, "p": 20},
        ),
        Workload(
            "detect-sparse",
            "detect with S1 and S4 on a sparse kNN(k=4) graph: dominated by spectral "
            "eigendecompose and thousands of per-signal gft calls in tasks",
            full={"n": 400, "k": 4, "triangles": 690, "p": 20, "trials": 20},
            smoke={"n": 40, "k": 4, "p": 20, "trials": 1},
        ),
        Workload(
            "denoise-clusters",
            "denoise on a two-cluster graph with true labels: the full-spectrum gft/igft "
            "consumer, the control a partial-eigensolver change must leave unchanged",
            full={"n": 600, "p_in": 0.03, "p_out": 0.002, "triangles": 414, "p": 10,
                  "trials": 8},
            smoke={"n": 40, "p_in": 0.3, "p_out": 0.02, "p": 10, "trials": 1},
        ),
        Workload(
            "diagnose-planted",
            "diagnose a complex with half the kNN(k=8) triangles planted: the only workload "
            "where laplacian assembly, maximal_simplices and diagnostics dominate",
            full={"n": 500, "k": 8, "triangles": 3790, "fraction": 0.5},
            smoke={"n": 40, "k": 8, "fraction": 0.5},
        ),
    )
}
