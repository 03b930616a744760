"""Output checks for one CLI run of a workload.

Every run gets structural checks: files present and parseable, p+1
symmetric zero-row-sum Laplacians whose batches partition the candidate
triangles, rates and fractions in [0, 1].  At the default seed the decoded
outputs are also compared with the reference recorded in ``reference/``:
discrete fields (batches, level counts, selected level, detection rates,
denoise best-fractions, diagnose counts and booleans) must match exactly,
floats within ``TOL`` relative to ``max(1, |reference|)`` (for a Laplacian,
relative to its largest entry).  Manifests are compared without
``elapsed_seconds`` and the path-keyed ``input_digests``.  Byte identity
of the data files is counted separately and does not decide correctness.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, MAGNITUDES, SNRS

TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_DIAGNOSE_EXACT = ("graph_type", "k_min", "k_max", "m1", "m2", "m3", "m4", "distinctive",
                   "trivially_distinctive", "prop1_conditions", "theorem_certificate")
_DIAGNOSE_FLOAT = ("gamma_min", "commutator", "sandwich", "difference_ratio_samples")


class CheckError(Exception):
    """An output is missing, malformed or violates a structural invariant."""


@dataclass
class Summary:
    """Decoded outputs: compared exactly, within TOL, and as Laplacian matrices."""

    exact: dict
    approx: dict
    laplacians: list = field(default_factory=list)


@dataclass
class Verdict:
    ok: bool
    problems: list
    byte_identical: int | None = None  # data files equal to the reference bytes


def _expect(cond, message):
    if not cond:
        raise CheckError(message)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def _check_laplacian(m: np.ndarray, n: int, name: str) -> None:
    _expect(m.shape == (n, n), f"{name}: shape {m.shape}, expected {(n, n)}")
    _expect(bool(np.all(np.isfinite(m))), f"{name}: non-finite entries")
    tol = TOL * max(1.0, float(np.abs(m).max()))
    _expect(float(np.abs(m - m.T).max()) <= tol, f"{name}: not symmetric")
    _expect(float(np.abs(m.sum(axis=1)).max()) <= tol * n, f"{name}: row sums are not zero")


def _learn(work: Path, inp) -> Summary:
    n, p, seed = inp.params["n"], inp.params["p"], inp.params["seed"]
    fam = json.loads((work / "out/family.json").read_text())
    _expect((fam["n"], fam["p"], fam["seed"]) == (n, p, seed), "family.json: wrong n, p or seed")
    batches = [[tuple(t) for t in b] for b in fam["batches"]]
    _expect(len(batches) == p, f"family.json: {len(batches)} batches, expected {p}")
    _expect(sorted(t for b in batches for t in b) == inp.triangles,
            "family.json: batches do not partition the candidate triangles")
    levels = [{"num_edges": lv["num_edges"], "num_triangles": lv["num_triangles"]}
              for lv in fam["levels"]]
    cumulative = np.cumsum([0] + [len(b) for b in batches]).tolist()
    _expect(levels == [{"num_edges": len(inp.edges), "num_triangles": c} for c in cumulative],
            "family.json: level edge or triangle counts disagree with the batches")

    laps = []
    for i in range(p + 1):
        m = np.loadtxt(work / f"out/laplacian_{i:02d}.csv", delimiter=",", ndmin=2)
        _check_laplacian(m, n, f"laplacian_{i:02d}.csv")
        laps.append(m)
    graph_lap = np.zeros((n, n))
    for u, v in inp.edges:
        graph_lap[u, v] = graph_lap[v, u] = -1.0
    graph_lap[np.diag_indices(n)] = -graph_lap.sum(axis=1)
    _expect(float(np.abs(laps[0] - graph_lap).max()) <= TOL * n,
            "laplacian_00.csv: level 0 is not the graph Laplacian")

    rows = _read_csv(work / "out/residuals.csv")
    _expect(rows[0] == ["level", "residual", "selected"], "residuals.csv: bad header")
    body = rows[1:]
    _expect([int(r[0]) for r in body] == list(range(p + 1)), "residuals.csv: bad level column")
    residuals = [float(r[1]) for r in body]
    flags = [int(r[2]) for r in body]
    _expect(all(_finite(e) and e >= 0 for e in residuals), "residuals.csv: bad residual")
    _expect(sorted(flags) == [0] * p + [1], "residuals.csv: not exactly one selected level")
    selected = flags.index(1)
    best = min(residuals)
    _expect(residuals[selected] <= best + TOL * max(1.0, best),
            "residuals.csv: selected level is not a minimiser")

    family = {"n": n, "p": p, "seed": seed, "batches": fam["batches"], "levels": levels}
    return Summary({"family": family, "selected": selected},
                   {"bands": fam["bands"], "residuals": residuals}, laps)


def _detect(work: Path, inp) -> Summary:
    rows = _read_csv(work / "out/detection.csv")
    _expect(rows[0] == ["magnitude", "strategy", "rate"], "detection.csv: bad header")
    body = [[float(m), s, float(r)] for m, s, r in rows[1:]]
    strategies = inp.params["config"]["strategies"]
    _expect([b[:2] for b in body] == [[m, s] for m in MAGNITUDES for s in sorted(strategies)],
            "detection.csv: wrong magnitude/strategy rows")
    trials = inp.params["trials"]
    for m, s, r in body:
        _expect(0.0 <= r <= 1.0 and abs(r * trials - round(r * trials)) <= 1e-9,
                f"detection.csv: rate {r} for {m}/{s} is not a count over {trials} trials")
    return Summary({"rates": body}, {})


def _denoise(work: Path, inp) -> Summary:
    p = inp.params["p"]
    rows = _read_csv(work / "out/denoise.csv")
    _expect(rows[0] == ["snr_db"] + [f"L_X{i}" for i in range(p + 1)], "denoise.csv: bad header")
    body = [[float(c) for c in r] for r in rows[1:]]
    _expect([r[0] for r in body] == SNRS, "denoise.csv: wrong SNR rows")
    for r in body:
        fracs = r[1:]
        _expect(len(fracs) == p + 1 and all(0.0 <= f <= 1.0 for f in fracs),
                f"denoise.csv: fractions out of [0, 1] at snr {r[0]}")
        # each trial splits one win among its best levels; values are rounded to 4 places
        _expect(abs(sum(fracs) - 1.0) <= (p + 1) * 5e-5 + TOL,
                f"denoise.csv: fractions at snr {r[0]} do not sum to 1")
    return Summary({"best_frac": body}, {})


def _diagnose(work: Path, inp) -> Summary:
    d = json.loads((work / "out/diagnose.json").read_text())
    _expect(set(d) == set(_DIAGNOSE_EXACT) | set(_DIAGNOSE_FLOAT), "diagnose.json: wrong keys")
    n = inp.params["n"]
    for k in ("k_min", "k_max", "m1", "m2", "m3", "m4"):
        _expect(isinstance(d[k], int) and 0 <= d[k] <= n * n, f"diagnose.json: bad count {k}")
    _expect(d["k_min"] <= d["k_max"], "diagnose.json: k_min > k_max")
    for k in ("graph_type", "trivially_distinctive", "theorem_certificate"):
        _expect(isinstance(d[k], bool), f"diagnose.json: {k} is not a boolean")
    _expect(len(d["prop1_conditions"]) == 3 and all(isinstance(c, bool) for c in d["prop1_conditions"]),
            "diagnose.json: bad prop1_conditions")
    _expect(isinstance(d["distinctive"], str), "diagnose.json: bad distinctive")
    _expect(_finite(d["commutator"]) and d["commutator"] >= 0, "diagnose.json: bad commutator")
    _expect(d["gamma_min"] is None or _finite(d["gamma_min"]), "diagnose.json: bad gamma_min")
    _expect(d["sandwich"] is None or all(_finite(v) for v in d["sandwich"]),
            "diagnose.json: bad sandwich")
    _expect(all(_finite(v) for v in d["difference_ratio_samples"]),
            "diagnose.json: bad difference_ratio_samples")
    return Summary({k: d[k] for k in _DIAGNOSE_EXACT}, {k: d[k] for k in _DIAGNOSE_FLOAT})


_SUMMARIZERS = {
    "learn-knn": _learn,
    "detect-sparse": _detect,
    "denoise-clusters": _denoise,
    "diagnose-planted": _diagnose,
}


def _manifest(work: Path, inp) -> dict:
    m = json.loads((work / inp.manifest).read_text())
    _expect(m["command"] == inp.argv[0], f"{inp.manifest}: wrong command")
    _expect(m["outputs"] == inp.outputs, f"{inp.manifest}: wrong output list")
    _expect(m["seed"] == inp.params["seed"], f"{inp.manifest}: wrong seed")
    _expect(_finite(m["elapsed_seconds"]) and m["elapsed_seconds"] >= 0,
            f"{inp.manifest}: bad elapsed_seconds")
    return {k: v for k, v in m.items() if k not in ("elapsed_seconds", "input_digests")}


def summarize(name: str, work: Path, inp) -> Summary:
    """Structural checks of the data outputs, then their decoded form."""
    return _SUMMARIZERS[name](work, inp)


def _digests(work: Path, inp) -> dict:
    return {rel: hashlib.sha256((work / rel).read_bytes()).hexdigest() for rel in inp.outputs}


def _compare_approx(ref, got, path: str, problems: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            problems.append(f"{path}: keys differ")
            return
        for k in ref:
            _compare_approx(ref[k], got[k], f"{path}.{k}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, (list, tuple)) or len(ref) != len(got):
            problems.append(f"{path}: length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_approx(r, g, f"{path}[{i}]", problems)
    elif _finite(ref):
        if not _finite(got) or abs(got - ref) > TOL * max(1.0, abs(ref)):
            problems.append(f"{path}: {got!r} differs from reference {ref!r}")
    elif ref != got:
        problems.append(f"{path}: {got!r} differs from reference {ref!r}")


def compare(summary: Summary, reference: dict) -> list:
    """Mismatches between a decoded run and the recorded reference."""
    problems = []
    # JSON round trip so tuples and lists compare alike
    exact = json.loads(json.dumps(summary.exact))
    ref_exact = {k: v for k, v in reference["exact"].items() if k != "manifest"}
    for k in sorted(set(exact) | set(ref_exact)):
        if exact.get(k) != ref_exact.get(k):
            problems.append(f"{k}: differs from reference")
    _compare_approx(reference["approx"], summary.approx, "approx", problems)
    if len(reference["laplacians"]) != len(summary.laplacians):
        problems.append("laplacians: level count differs from reference")
    for i, (ref, got) in enumerate(zip(reference["laplacians"], summary.laplacians)):
        scale = max(1.0, float(np.abs(ref).max()))
        if ref.shape != got.shape or float(np.abs(got - ref).max()) > TOL * scale:
            problems.append(f"laplacian_{i:02d}.csv: differs from reference")
    return problems


def _reference_paths(name: str, directory: Path) -> tuple:
    return directory / f"{name}.json", directory / f"{name}.laplacians.npz"


def _pack_laplacians(path: Path, laps: list) -> None:
    """Store level 0 and, per later level, only the entries that changed."""
    level, row, col, val = [], [], [], []
    prev = np.zeros_like(laps[0])
    for i, m in enumerate(laps):
        r, c = np.nonzero(m != prev)
        level.append(np.full(r.size, i))
        row.append(r)
        col.append(c)
        val.append(m[r, c])
        prev = m
    np.savez_compressed(path, n=laps[0].shape[0], level=np.concatenate(level).astype(np.int32),
                        row=np.concatenate(row).astype(np.int32),
                        col=np.concatenate(col).astype(np.int32), val=np.concatenate(val))


def _unpack_laplacians(path: Path) -> list:
    with np.load(path) as z:
        n, level, row, col, val = int(z["n"]), z["level"], z["row"], z["col"], z["val"]
    laps = []
    m = np.zeros((n, n))
    for i in range(int(level.max()) + 1 if level.size else 0):
        m = m.copy()
        sel = level == i
        m[row[sel], col[sel]] = val[sel]
        laps.append(m)
    return laps


def record_reference(name: str, params: dict, work: Path, inp, commit: str,
                     directory: Path = REFERENCE_DIR) -> None:
    summary = summarize(name, work, inp)
    json_path, npz_path = _reference_paths(name, directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"workload": name, "seed": DEFAULT_SEED, "size": params, "recorded_from": commit,
           "tolerance": TOL, "sha256": _digests(work, inp),
           "exact": {**summary.exact, "manifest": _manifest(work, inp)},
           "approx": summary.approx}
    json_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if summary.laplacians:
        _pack_laplacians(npz_path, summary.laplacians)


def load_reference(name: str, params: dict, directory: Path = REFERENCE_DIR):
    """The recorded reference for this workload and size, or None."""
    json_path, npz_path = _reference_paths(name, directory)
    if not json_path.exists():
        return None
    doc = json.loads(json_path.read_text())
    if doc["size"] != params:
        raise CheckError(f"{json_path.name} was recorded at size {doc['size']}, not {params}")
    doc["laplacians"] = _unpack_laplacians(npz_path) if npz_path.exists() else []
    return doc


class Checker:
    """Checks every run of one workload instance; byte-identical outputs are checked once."""

    def __init__(self, name: str, inp, reference: dict | None):
        self.name, self.inp, self.reference = name, inp, reference
        self._verified: dict = {}  # digests of data outputs -> problems

    def __call__(self, work: Path) -> Verdict:
        try:
            digests = _digests(work, self.inp)
            key = tuple(sorted(digests.items()))
            manifest = _manifest(work, self.inp)
            if key not in self._verified:
                summary = summarize(self.name, work, self.inp)
                self._verified[key] = compare(summary, self.reference) if self.reference else []
            problems = list(self._verified[key])
            if self.reference and manifest != self.reference["exact"]["manifest"]:
                problems.append("manifest: differs from reference")
        except (OSError, ValueError, KeyError, IndexError, TypeError, CheckError) as exc:
            return Verdict(False, [f"{type(exc).__name__}: {exc}"])
        identical = None
        if self.reference:
            identical = sum(d == self.reference["sha256"].get(rel) for rel, d in digests.items())
        return Verdict(not problems, problems, identical)
