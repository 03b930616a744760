"""File formats: complexes/graphs (JSON, CSV edge lists), signals, matrices.

Every loader validates on the way in and raises :class:`ParseError` with
line context; serialize -> parse roundtrips are exact.
"""

from __future__ import annotations

import csv
import json
import warnings
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


def _load_json(path: Path, what: str, keys: tuple) -> dict:
    """A JSON file holding one object with the given keys."""
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: a {what} is a JSON object")
    for key in keys:
        if key not in data:
            raise ParseError(f"{path}: missing key {key!r}")
    return data


def _array(path: Path, data: dict, key: str) -> list:
    """``data[key]``, or [] when the key is absent, refused unless a JSON array."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{path}: {key!r} must be a JSON array, got {type(value).__name__}")
    return value


def load_complex(path, invert_similarity: bool = False) -> SimplicialComplex:
    """Load a complex from JSON ({vertices, edges, simplices}) or a CSV edge list."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        data = _load_json(path, "complex", ("vertices",))
        try:
            vertices = _array(path, data, "vertices")
            edges = {}
            for k, row in enumerate(_array(path, data, "edges")):
                if not isinstance(row, list) or len(row) != 3:
                    raise ParseError(f"{path} edge {k}: expected [u, v, w], got {row!r}")
                u, v, w = row
                if type(w) not in (int, float):  # no string, null or boolean
                    raise ParseError(f"{path} edge {k}: the weight {w!r} is not a number")
                w = _maybe_invert(float(w), invert_similarity, f"{path} edge {k}")
                if edges.setdefault((u, v), w) != w or edges.get((v, u), w) != w:
                    raise ParseError(f"{path} edge {k}: conflicting duplicate edge {u!r},{v!r}")
            simplices = _array(path, data, "simplices")
            for k, s in enumerate(simplices):
                if not isinstance(s, list):
                    raise ParseError(f"{path} simplex {k}: expected a JSON array, got {s!r}")
            return SimplicialComplex(vertices, edges, simplices)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError, ComplexError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return _load_edge_csv(path, invert_similarity)


def _rows(path: Path):
    """(line number, cells) of each CSV row of a file that has a non-blank cell."""
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if any(cell.strip() for cell in row):
                yield lineno, row


def _load_edge_csv(path: Path, invert_similarity: bool) -> SimplicialComplex:
    edges = {}
    vertices: dict = {}
    for k, (lineno, row) in enumerate(_rows(path)):
        if k == 0 and not _looks_numericish(row):
            continue  # header: the first row that is not blank
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


def load_signals(path) -> np.ndarray:
    """Signal CSV as an n x num_signals array: one row per vertex, one
    column per signal, every value finite.  A non-numeric first row is a
    header and is skipped."""
    path = Path(path)
    rows = []
    for k, (lineno, row) in enumerate(_rows(path)):
        try:
            values = [float(c) for c in row]
        except ValueError:
            if k == 0:  # the first row that is not blank
                continue
            raise ParseError(f"{path}:{lineno}: non-numeric value in {row}")
        if not np.isfinite(values).all():
            raise ParseError(f"{path}:{lineno}: non-finite value in {row}")
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    for k, r in enumerate(rows):
        if len(r) != width:
            raise ParseError(f"{path}: ragged rows at data row {k + 1}")
    return np.array(rows)


def save_signals(signals: np.ndarray, path) -> None:
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in signals:
            writer.writerow([repr(float(v)) for v in row])


def load_matrix(path) -> np.ndarray:
    """Dense matrix from CSV rows or the JSON envelope {n, rows, provenance}.

    An empty or non-square matrix, JSON rows that do not match the declared
    n, or a JSON n or entry that is no number is a :class:`ParseError`
    naming the file.
    """
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            data = _load_json(path, "matrix", ("n", "rows"))
            rows, n = _array(path, data, "rows"), data["n"]
            if type(n) is not int:
                raise ParseError(f"{path}: 'n' must be a count, got {n!r}")
            for k, row in enumerate(rows):
                if not isinstance(row, list):
                    raise ParseError(f"{path} row {k}: expected a JSON array, got {row!r}")
                if not {*map(type, row)} <= {int, float}:
                    bad = next(v for v in row if type(v) not in (int, float))
                    raise ParseError(f"{path} row {k}: the entry {bad!r} is not a number")
            m = np.array(rows, dtype=float)
        else:
            with warnings.catch_warnings():
                # numpy warns on a file without rows; the check below names it
                warnings.simplefilter("ignore", UserWarning)
                m = np.loadtxt(path, delimiter=",", ndmin=2)
            n = len(m)
    except ParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not m.size:
        raise ParseError(f"{path}: no matrix rows")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParseError(f"{path}: need a square matrix, got shape {m.shape}")
    if m.shape[0] != n:
        raise ParseError(f"{path}: rows do not match declared n={n}")
    return m


def save_matrix_csv(m: np.ndarray, path) -> None:
    """Write a matrix as the bytes of ``np.savetxt(path, m, delimiter=",",
    fmt="%.17g")``, formatting only the entries that are not +0.0: a level
    of a learned family is about 1 % nonzero at n=1000."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:  # a vector is one column, as np.savetxt writes it
        m = m[:, None]
    formatted = (m != 0) | np.signbit(m)  # -0.0 is written "-0"
    with open(path, "w") as fh:
        for row, mask in zip(m, formatted):
            cells = ["0"] * len(row)
            cols = np.flatnonzero(mask)
            for j, v in zip(cols.tolist(), row[cols].tolist()):
                cells[j] = "%.17g" % v
            fh.write(",".join(cells) + "\n")


def save_matrix_json(l: GeneralizedLaplacian, path) -> None:
    data = {
        "n": int(l.matrix.shape[0]),
        "rows": l.matrix.tolist(),
        "provenance": [list(s) for s in l.provenance],
    }
    Path(path).write_text(json.dumps(data, sort_keys=True))


def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    import hashlib  # loads OpenSSL (about 3.7 MB), so only when a digest is taken

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

