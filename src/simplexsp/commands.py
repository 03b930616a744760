"""The CLI's commands: each reads its inputs, runs the library and writes
its outputs, and ``run`` maps the command's errors to the exit codes.

Only the modules every command uses load with this one; a command that
diagnoses, builds a family or runs a task imports that module itself.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from argparse import ArgumentTypeError
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cli import BANDS, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, FRACTION, LEVELS, SEED, _number
from .complex_core import ComplexError
from .io import (
    ParseError,
    file_digest,
    load_complex,
    load_graph,
    load_matrix,
    load_signals,
    save_matrix_csv,
    save_matrix_json,
    save_signals,
)
from .laplacian import complex_laplacian
from .spectral import (
    NumericalError,
    bandpass,
    eigendecompose,
    fit_continuous_filter,
    poly_filter,
)

LABEL_MAX = 2**31 - 1  # class labels; the bound keeps their int casts and squares finite
# denoise's generated graph: its pair loop grows as n^2 (0.27 s at n = 1,000, 2.5 s at 3,000,
# 30 s at 10^4) and each level it solves is a dense n x n array, 800 MB at 10^4
N_MAX = 10**4
UNIT = _number(float, 0, 1)  # [0, 1]


def _write_manifest(command: str, config: dict, inputs: list, outputs: list, seed, t0: float):
    """Record one run next to its first output; each cmd_* returns the
    (config, inputs, outputs, seed) that ``run`` passes here."""
    manifest = {
        "command": command,
        "config": config,
        "input_digests": {str(p): file_digest(p) for p in inputs if p and Path(p).exists()},
        "seed": seed,
        "version": __version__,
        "elapsed_seconds": round(time.monotonic() - t0, 6),
        "outputs": [str(o) for o in outputs],
    }
    _write_json(Path(outputs[0]).parent / f"{command}.manifest.json", manifest, indent=1)


def _write_json(path: Path, data, indent=None) -> Path:
    path.write_text(json.dumps(data, indent=indent, sort_keys=True))
    return path


def _write_table(path: Path, header: list, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _many(convert):
    """Converter of a config list whose converted values must not repeat."""

    def convert_all(raw) -> list:
        if not isinstance(raw, list):
            raise ArgumentTypeError(f"{raw}: need a list")
        values = [convert(v) for v in raw]
        if len(set(values)) < len(values):
            raise ArgumentTypeError(f"{raw}: need distinct values")
        return values

    return convert_all


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise ArgumentTypeError(f"{raw}: need a string")
    return raw


def _flag(raw) -> bool:
    if not isinstance(raw, bool):
        raise ArgumentTypeError(f"{raw}: need true or false")
    return raw


# keys every experiment config may set: key -> (default, converter); seed, p and
# bands convert as the flags of learn and fit-filter do
_SHARED_KEYS = {
    "graph": (None, _text),
    "invert_similarity": (False, _flag),
    "seed": (0, SEED),
    "p": (20, LEVELS),
    "bands": (1, BANDS),
    "out_dir": (".", _text),
}


def _experiment(args, **keys):
    """Read an experiment config and set its run up.

    ``keys`` maps each key of the command to (default, converter).  Every
    value present, shared keys included, is converted here, and a bad one
    is a ParseError naming its key.  The graph is loaded (a command with an
    ``n`` key generates a two-cluster graph when none is given), the family
    built and out_dir created.  Returns (raw config, values, graph, family,
    out_dir).
    """
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError(f"{args.config}: an experiment config is a JSON object")
    values = {}
    for key, (default, convert) in {**_SHARED_KEYS, **keys}.items():
        try:
            values[key] = convert(cfg[key]) if key in cfg else default
        except ArgumentTypeError as exc:
            raise ParseError(f"{args.config}: config key {key!r}: {exc}") from exc
    from . import structure_learning, tasks

    c = SimpleNamespace(**values)
    if c.graph is not None:
        g = load_graph(c.graph, c.invert_similarity)
    elif "n" in keys:
        g = tasks.two_cluster_graph(c.n, seed=c.seed)
    else:
        raise ParseError(f"{args.config}: config key 'graph' is missing")
    family = structure_learning.build_family(g, p=c.p, num_bands=c.bands, seed=c.seed)
    out_dir = Path(c.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, c, g, family, out_dir


def _check_rows(path, values: np.ndarray, n: int) -> None:
    if values.shape[0] != n:
        raise ParseError(f"{path}: {values.shape[0]} rows, need one per vertex ({n})")


def cmd_laplacian(args):
    x = load_complex(args.complex, args.invert_similarity)
    l = complex_laplacian(x)
    out = Path(args.out)
    if out.suffix.lower() == ".json":
        save_matrix_json(l, out)
    else:
        save_matrix_csv(l.matrix, out)
    return {"complex": args.complex}, [args.complex], [out], None


def cmd_spectrum(args):
    m = load_matrix(args.laplacian)
    s = eigendecompose(m)
    spectrum = {"eigenvalues": s.eigenvalues.tolist(), "eigenvectors": s.eigenvectors.tolist()}
    out = _write_json(Path(args.out), spectrum)
    return {"laplacian": args.laplacian}, [args.laplacian], [out], None


def _parse_band(text: str, n: int) -> tuple:
    lo, _, hi = text.partition(":")
    try:
        lo = int(lo) if lo else 1
        hi = int(hi) if hi else n
    except ValueError as exc:
        raise ParseError(f"--band {text!r}: {exc}") from exc
    if not 1 <= lo <= hi <= n:
        raise ParseError(f"--band {text!r}: need 1 <= lo <= hi <= {n}")
    return tuple(range(lo, hi + 1))


def _parse_poly(text: str) -> tuple:
    try:
        return tuple(_number()(a) for a in text.split(","))
    except ArgumentTypeError as exc:
        raise ParseError(f"--poly {text!r}: {exc}") from exc


def cmd_filter(args):
    m = load_matrix(args.laplacian)
    signals = load_signals(args.signals)
    _check_rows(args.signals, signals, m.shape[0])
    if args.band is not None:
        band = _parse_band(args.band, m.shape[0])
        s = eigendecompose(m)
        filtered = [bandpass(s, band, x) for x in signals.T]
    else:
        coeffs = _parse_poly(args.poly)
        filtered = [poly_filter(m, coeffs, x) for x in signals.T]
    save_signals(np.column_stack(filtered), args.out)
    return {"band": args.band, "poly": args.poly}, [args.laplacian, args.signals], [args.out], None


def cmd_learn(args):
    from .structure_learning import build_family, family_manifest, select_model

    g = load_graph(args.graph, args.invert_similarity)
    inputs = [args.graph]
    if args.signals:
        signals = load_signals(args.signals)
        _check_rows(args.signals, signals, g.n)
        inputs.append(args.signals)
    family = build_family(g, p=args.p, num_bands=args.bands, seed=args.seed, mode=args.mode)
    # select before writing, so that a failure leaves no outputs
    selected = select_model(family, signals, args.r1) if args.signals else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [_write_json(out_dir / "family.json", family_manifest(family), indent=1)]
    for i, m in enumerate(family.levels()):
        outputs.append(out_dir / f"laplacian_{i:02d}.csv")
        save_matrix_csv(m, outputs[-1])
    if selected:
        b, errors = selected
        rows = [[i, repr(float(e)), int(i == b)] for i, e in enumerate(errors)]
        outputs.append(_write_table(out_dir / "residuals.csv", ["level", "residual", "selected"], rows))
    config = {"p": args.p, "bands": args.bands, "r1": args.r1, "mode": args.mode}
    return config, inputs, outputs, args.seed


def cmd_compress(args):
    from .tasks import compression_trials, planted_complex

    cfg, c, g, family, out_dir = _experiment(
        args,
        trials=(10, _number(int, 1)),
        count=(20, _number(int, 1)),
        r1=(0.3, FRACTION),
        r2=(None, FRACTION),
        planted_fraction=(0.5, UNIT),
        signals=(None, _text),
    )
    if c.signals is not None:
        source = load_signals(c.signals)
        _check_rows(c.signals, source, g.n)
    else:
        source = eigendecompose(complex_laplacian(planted_complex(g, c.planted_fraction, c.seed)))
    rows = compression_trials(
        family, source, c.r1, c.r1 if c.r2 is None else c.r2, c.trials, c.count, c.seed
    )
    header = ["trial", "selected_level", "err_selected", "err_level0"]
    table = _write_table(out_dir / "compression.csv", header, rows)
    gains = [1 - r[2] / r[3] for r in rows if r[3] > 0]
    summary = _write_json(
        out_dir / "compression_summary.json",
        {
            "trials": len(rows),
            "mean_gain": float(np.mean(gains)) if gains else 0.0,
            "wins": sum(1 for r in rows if r[2] < r[3]),
        },
    )
    return cfg, [c.graph, c.signals], [table, summary], c.seed


def cmd_detect(args):
    from .tasks import detection_rates, planted_complex

    cfg, c, g, family, out_dir = _experiment(
        args,
        trials=(100, _number(int, 1)),
        r=(0.8, UNIT),
        epsilon=(0.05, _number()),
        magnitudes=([10.0, 20.0, 30.0, 40.0, 50.0], _many(_number())),
        strategies=(["S1", "S4"], _many(_text)),
        s3_level=(2, _number(int)),
        planted_fraction=(0.5, UNIT),
        amplitude=(50.0, _number()),
    )
    truth = eigendecompose(complex_laplacian(planted_complex(g, c.planted_fraction, c.seed)))
    rates = detection_rates(
        family, truth, c.magnitudes, c.strategies, c.trials, c.r, c.epsilon,
        c.amplitude, c.s3_level, c.seed,
    )
    rows = [[mag, strat, hits / c.trials] for (mag, strat), hits in sorted(rates.items())]
    table = _write_table(out_dir / "detection.csv", ["magnitude", "strategy", "rate"], rows)
    return cfg, [c.graph], [table], c.seed


def cmd_denoise(args):
    from .tasks import denoise_best_fractions

    cfg, c, g, family, out_dir = _experiment(
        args,
        n=(100, _number(int, 4, N_MAX)),
        p=(10, LEVELS),
        trials=(50, _number(int, 1)),
        labels=(None, _text),
        num_classes=(None, _number(int, 1)),
        r=(0.01, _number(float, math.nextafter(0, 1), math.nextafter(1, 0))),
        s=(0.9, UNIT),
        noise_fraction=(0.6, FRACTION),
        snr_db=([2.0, 1.0, 0.0, -1.0, -2.0], _many(_number())),
    )
    inputs = [] if c.graph is None else [c.graph]
    if c.labels is not None:
        lab = load_signals(c.labels)
        _check_rows(c.labels, lab, g.n)
        labels = lab[:, 0]
        bad = np.flatnonzero((labels != np.rint(labels)) | (np.abs(labels) > LABEL_MAX))
        if bad.size:
            raise ParseError(f"{c.labels}: data row {bad[0] + 1}: label {float(labels[bad[0]])!r} "
                             f"is not an integer in [-{LABEL_MAX}, {LABEL_MAX}]")
        if c.num_classes is None and labels.max() < 1:
            raise ParseError(f"{c.labels}: the largest label is {int(labels.max())}; "
                             "class labels start at 1")
        inputs.append(c.labels)
    else:
        labels = np.array([1 if v < g.n // 2 else 2 for v in range(g.n)], dtype=float)
    num_classes = int(labels.max()) if c.num_classes is None else c.num_classes
    best_frac = denoise_best_fractions(
        family, labels, c.snr_db, c.trials, c.r, c.s, c.noise_fraction, num_classes, c.seed
    )
    rows = [[snr] + [round(v, 4) for v in best_frac[snr]] for snr in c.snr_db]
    header = ["snr_db"] + [f"L_X{i}" for i in range(family.p + 1)]
    return cfg, inputs, [_write_table(out_dir / "denoise.csv", header, rows)], c.seed


def cmd_diagnose(args):
    from .diagnostics import diagnostics_report

    x = load_complex(args.complex, args.invert_similarity)
    report = diagnostics_report(x)
    out = _write_json(Path(args.out), report.as_dict(), indent=1)
    return {"complex": args.complex}, [args.complex], [out], None


def cmd_fit_filter(args):
    from .structure_learning import build_family

    g = load_graph(args.graph, args.invert_similarity)
    # L x, ..., L^b x span at most n dimensions, and the fit's Gram matrix
    # has b^2 entries
    if args.degree > g.n:
        raise ParseError(f"--degree {args.degree}: the polynomial degree must be at most "
                         f"the vertex count ({g.n})")
    signals = load_signals(args.signals)
    _check_rows(args.signals, signals, g.n)
    if signals.shape[1] < 2:
        raise ParseError("fit-filter needs two signal columns (input, target)")
    family = build_family(g, p=args.p, num_bands=args.bands, seed=args.seed)
    fit = fit_continuous_filter(family.levels(), signals[:, 0], signals[:, 1], args.degree,
                                args.t_grid)
    result = {"level": fit.level, "t": fit.t, "coeffs": fit.coeffs.tolist(), "residual": fit.residual}
    out = _write_json(Path(args.out), result)
    config = {"degree": args.degree, "p": args.p, "t_grid": args.t_grid}
    return config, [args.graph, args.signals], [out], args.seed


COMMANDS = {
    "laplacian": cmd_laplacian,
    "spectrum": cmd_spectrum,
    "filter": cmd_filter,
    "learn": cmd_learn,
    "compress": cmd_compress,
    "detect": cmd_detect,
    "denoise": cmd_denoise,
    "diagnose": cmd_diagnose,
    "fit-filter": cmd_fit_filter,
}


def run(args) -> int:
    """Run a parsed command line, write its manifest and return the exit code."""
    t0 = time.monotonic()
    try:
        config, inputs, outputs, seed = COMMANDS[args.command](args)
        _write_manifest(args.command, config, inputs, outputs, seed, t0)
    except (ParseError, ComplexError, OSError, KeyError) as exc:
        print(f"simplexsp: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError, MemoryError) as exc:
        # a bare MemoryError has no message; numpy's names the allocation
        print(f"simplexsp: numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK
