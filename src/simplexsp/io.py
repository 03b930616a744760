"""File formats: complexes/graphs (JSON, CSV edge lists), signals, matrices.

Every loader validates on the way in and raises :class:`ParseError` with
line context; serialize -> parse roundtrips are exact.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .complex_core import ComplexError, SimplicialComplex, WeightedGraph
from .laplacian import GeneralizedLaplacian

__all__ = [
    "ParseError",
    "load_complex",
    "load_graph",
    "save_complex",
    "load_signals",
    "save_signals",
    "load_points",
    "load_matrix",
    "save_matrix_csv",
    "save_matrix_json",
    "file_digest",
]


class ParseError(ValueError):
    """Malformed input file; message carries file and line context."""


def _coerce_vertex(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def _maybe_invert(w: float, invert: bool, ctx: str) -> float:
    if invert:
        if w <= 0:
            raise ParseError(f"{ctx}: cannot invert non-positive similarity {w}")
        return 1.0 / w
    return w


def load_complex(path, invert_similarity: bool = False) -> SimplicialComplex:
    """Load a complex from JSON ({vertices, edges, simplices}) or a CSV edge list."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        try:
            vertices = data["vertices"]
            edges = {}
            for k, row in enumerate(data.get("edges", [])):
                u, v, w = row
                edges[(u, v)] = _maybe_invert(float(w), invert_similarity, f"{path} edge {k}")
            simplices = [tuple(s) for s in data.get("simplices", [])]
            return SimplicialComplex(vertices, edges, simplices)
        except (KeyError, TypeError, ValueError, ComplexError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return _load_edge_csv(path, invert_similarity)


def _load_edge_csv(path: Path, invert_similarity: bool) -> SimplicialComplex:
    edges = {}
    vertices: dict = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            if lineno == 1 and not _looks_numericish(row):
                continue  # header
            if len(row) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 'u,v[,w]', got {row}")
            u, v = _coerce_vertex(row[0]), _coerce_vertex(row[1])
            try:
                w = float(row[2]) if len(row) == 3 else 1.0
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad weight {row[2]!r}") from exc
            w = _maybe_invert(w, invert_similarity, f"{path}:{lineno}")
            if w <= 0:
                raise ParseError(f"{path}:{lineno}: non-positive weight {w}")
            if u == v:
                raise ParseError(f"{path}:{lineno}: self-loop at {u!r}")
            vertices.setdefault(u)
            vertices.setdefault(v)
            key = frozenset((u, v))
            if key in edges and edges[key] != w:
                raise ParseError(f"{path}:{lineno}: conflicting duplicate edge {u!r},{v!r}")
            edges[key] = w
    try:
        return SimplicialComplex(list(vertices), {tuple(k): w for k, w in edges.items()})
    except ComplexError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _looks_numericish(row) -> bool:
    # edge rows have vertex ids in the first two columns and an optional
    # numeric weight; a header row has a non-numeric third column
    if len(row) == 3:
        try:
            float(row[2])
            return True
        except ValueError:
            return False
    return not any(cell.strip().lower() in ("u", "v", "w", "source", "target") for cell in row)


def load_graph(path, invert_similarity: bool = False) -> WeightedGraph:
    x = load_complex(path, invert_similarity)
    return x.graph()


def save_complex(x: SimplicialComplex, path) -> None:
    data = {
        "vertices": list(x.vertices),
        "edges": [[u, v, w] for (u, v), w in sorted(x.edges.items(), key=lambda kv: (x.index[kv[0][0]], x.index[kv[0][1]]))],
        "simplices": [list(s) for s in x.sorted_simplices()],
    }
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True))


def load_signals(path):
    """Signal CSV: one column per signal, optional header row of vertex ids.

    Returns (vertex_ids or None, array of shape n x num_signals).
    """
    path = Path(path)
    rows = []
    header = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                if lineno == 1:
                    header = [_coerce_vertex(c) for c in row]
                else:
                    raise ParseError(f"{path}:{lineno}: non-numeric signal value in {row}")
    if not rows:
        raise ParseError(f"{path}: no signal rows")
    width = len(rows[0])
    for k, r in enumerate(rows):
        if len(r) != width:
            raise ParseError(f"{path}: ragged signal matrix at data row {k + 1}")
    return header, np.array(rows)


def save_signals(signals: np.ndarray, path, vertex_ids=None) -> None:
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if vertex_ids is not None:
            writer.writerow(list(vertex_ids))
        for row in signals:
            writer.writerow([repr(float(v)) for v in row])


def load_points(path) -> np.ndarray:
    """Point-cloud CSV: one row per point, numeric columns."""
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ParseError(f"{path}:{lineno}: non-numeric coordinate in {row}")
    if not rows:
        raise ParseError(f"{path}: no points")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged point rows")
    return np.array(rows)


def load_matrix(path) -> np.ndarray:
    """Dense matrix from CSV rows or the JSON envelope {n, rows, provenance}."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        try:
            m = np.array(data["rows"], dtype=float)
            if m.shape != (data["n"], data["n"]):
                raise ParseError(f"{path}: rows do not match declared n={data['n']}")
            return m
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_matrix_csv(m: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(m, dtype=float), delimiter=",", fmt="%.17g")


def save_matrix_json(l: GeneralizedLaplacian, path) -> None:
    data = {
        "n": int(l.matrix.shape[0]),
        "rows": l.matrix.tolist(),
        "provenance": [list(s) for s in l.provenance],
    }
    Path(path).write_text(json.dumps(data, sort_keys=True))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

