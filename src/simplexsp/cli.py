"""Command-line surface tying the library together.

Subcommands: laplacian, spectrum, filter, learn, compress, detect, denoise,
diagnose, fit-filter.  Every run emits a manifest JSON with input digests
and timing.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .complex_core import ComplexError
from .diagnostics import diagnostics_report
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
    FilterSpec,
    NumericalError,
    eigendecompose,
    fit_continuous_filter,
)
from .structure_learning import build_family, family_manifest, select_model
from .tasks import (
    compression_trials,
    denoise_best_fractions,
    detection_rates,
    planted_complex,
    two_cluster_graph,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_manifest(command: str, config: dict, inputs: list, outputs: list, seed, t0: float):
    """Record one run next to its first output; each cmd_* returns the
    (config, inputs, outputs, seed) that ``main`` passes here."""
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


def _number(kind=float, lo=-math.inf, hi=math.inf):
    """Converter of a config value to a finite ``kind`` within [lo, hi]; a
    boolean, or a fractional float for an int, is refused, not truncated."""

    def convert(raw):
        value = kind(raw)
        fractional = isinstance(raw, float) and value != raw
        if isinstance(raw, bool) or fractional or not (math.isfinite(value) and lo <= value <= hi):
            raise ValueError(f"need a finite {kind.__name__} in [{lo}, {hi}], got {raw!r}")
        return value

    return convert


def _many(convert):
    """Converter of a config list whose converted values must not repeat."""

    def convert_all(raw) -> list:
        if not isinstance(raw, list):
            raise ValueError(f"need a list, got {raw!r}")
        values = [convert(v) for v in raw]
        if len(set(values)) < len(values):
            raise ValueError(f"need distinct values, got {raw!r}")
        return values

    return convert_all


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"need a string, got {raw!r}")
    return raw


def _flag(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"need true or false, got {raw!r}")
    return raw


# keys every experiment config may set: key -> (default, converter)
_SHARED_KEYS = {
    "graph": (None, _text),
    "invert_similarity": (False, _flag),
    "seed": (0, _number(int, 0)),
    "bands": (1, _number(int)),
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{args.config}: config key {key!r}: {exc}") from exc
    c = SimpleNamespace(**values)
    if c.graph is not None:
        g = load_graph(c.graph, c.invert_similarity)
    elif "n" in keys:
        g = two_cluster_graph(c.n, seed=c.seed)
    else:
        raise ParseError(f"{args.config}: config key 'graph' is missing")
    family = build_family(g, p=c.p, num_bands=c.bands, seed=c.seed)
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
    except ValueError as exc:
        raise ParseError(f"--poly {text!r}: {exc}") from exc


def cmd_filter(args):
    m = load_matrix(args.laplacian)
    _, signals = load_signals(args.signals)
    _check_rows(args.signals, signals, m.shape[0])
    if args.band is not None:
        spec = FilterSpec(band=_parse_band(args.band, m.shape[0]))
    else:
        spec = FilterSpec(coeffs=_parse_poly(args.poly))
    s = eigendecompose(m) if args.band is not None else None
    filtered = np.column_stack(
        [spec.apply(m, s, signals[:, j]) for j in range(signals.shape[1])]
    )
    save_signals(filtered, args.out)
    return {"band": args.band, "poly": args.poly}, [args.laplacian, args.signals], [args.out], None


def cmd_learn(args):
    g = load_graph(args.graph, args.invert_similarity)
    family = build_family(g, p=args.p, num_bands=args.bands, seed=args.seed, mode=args.mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [_write_json(out_dir / "family.json", family_manifest(family), indent=1)]
    for i, l in enumerate(family.laplacians):
        p = out_dir / f"laplacian_{i:02d}.csv"
        save_matrix_csv(l.matrix, p)
        outputs.append(p)
    inputs = [args.graph]
    if args.signals:
        _, signals = load_signals(args.signals)
        b, errors = select_model(family, signals, args.r1)
        rows = [[i, repr(float(e)), int(i == b)] for i, e in enumerate(errors)]
        outputs.append(_write_table(out_dir / "residuals.csv", ["level", "residual", "selected"], rows))
        inputs.append(args.signals)
    config = {"p": args.p, "bands": args.bands, "r1": args.r1, "mode": args.mode}
    return config, inputs, outputs, args.seed


def cmd_compress(args):
    cfg, c, g, family, out_dir = _experiment(
        args,
        p=(20, _number(int)),
        trials=(10, _number(int, 1)),
        count=(20, _number(int)),
        r1=(0.3, _number(float, 0, 1)),
        r2=(None, _number(float, 0, 1)),
        planted_fraction=(0.5, _number()),
        signals=(None, _text),
    )
    if c.signals is not None:
        _, source = load_signals(c.signals)
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
    cfg, c, g, family, out_dir = _experiment(
        args,
        p=(20, _number(int)),
        trials=(100, _number(int, 1)),
        r=(0.8, _number(float, 0, 1)),
        epsilon=(0.05, _number()),
        magnitudes=([10.0, 20.0, 30.0, 40.0, 50.0], _many(_number())),
        strategies=(["S1", "S4"], _many(_text)),
        s3_level=(2, _number(int)),
        planted_fraction=(0.5, _number()),
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
    cfg, c, g, family, out_dir = _experiment(
        args,
        n=(100, _number(int)),
        p=(10, _number(int)),
        trials=(50, _number(int, 1)),
        labels=(None, _text),
        num_classes=(None, _number(int)),
        r=(0.01, _number()),
        s=(0.9, _number()),
        noise_fraction=(0.6, _number()),
        snr_db=([2.0, 1.0, 0.0, -1.0, -2.0], _many(_number())),
    )
    inputs = [] if c.graph is None else [c.graph]
    if c.labels is not None:
        _, lab = load_signals(c.labels)
        _check_rows(c.labels, lab, g.n)
        labels = lab[:, 0]
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
    x = load_complex(args.complex, args.invert_similarity)
    report = diagnostics_report(x)
    out = _write_json(Path(args.out), report.as_dict(), indent=1)
    return {"complex": args.complex}, [args.complex], [out], None


def cmd_fit_filter(args):
    g = load_graph(args.graph, args.invert_similarity)
    _, signals = load_signals(args.signals)
    if signals.shape[1] < 2:
        raise ParseError("fit-filter needs two signal columns (input, target)")
    family = build_family(g, p=args.p, num_bands=args.bands, seed=args.seed)
    fit = fit_continuous_filter(
        family, signals[:, 0], signals[:, 1], args.degree, args.t_grid
    )
    result = {"level": fit.level, "t": fit.t, "coeffs": fit.coeffs.tolist(), "residual": fit.residual}
    out = _write_json(Path(args.out), result)
    config = {"degree": args.degree, "p": args.p, "t_grid": args.t_grid}
    return config, [args.graph, args.signals], [out], args.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexsp",
        description="Signal processing on weighted simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_invert(p):
        p.add_argument(
            "--invert-similarity",
            action="store_true",
            help="treat input weights as similarities; use 1/w as the length",
        )

    p = sub.add_parser("laplacian", help="generalized Laplacian of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--out", required=True)
    add_invert(p)
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("spectrum", help="eigendecomposition of a Laplacian")
    p.add_argument("--laplacian", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("filter", help="bandpass or polynomial filtering of signals")
    p.add_argument("--laplacian", required=True)
    p.add_argument("--signals", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--band", help="1-based index range lo:hi")
    group.add_argument("--poly", help="comma-separated coefficients a1,a2,...")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("learn", help="learn the nested Laplacian family")
    p.add_argument("--graph", required=True)
    p.add_argument("--signals")
    p.add_argument("--p", type=int, default=20)
    p.add_argument("--bands", type=int, default=1)
    p.add_argument("--r1", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["closed", "all"], default="closed")
    p.add_argument("--out", required=True)
    add_invert(p)
    p.set_defaults(func=cmd_learn)

    for name, func in (("compress", cmd_compress), ("detect", cmd_detect), ("denoise", cmd_denoise)):
        p = sub.add_parser(name, help=f"{name} experiment from a JSON config")
        p.add_argument("--config", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("diagnose", help="structural/spectral diagnostics report")
    p.add_argument("--complex", required=True)
    p.add_argument("--out", required=True)
    add_invert(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("fit-filter", help="continuous filter fit over the family")
    p.add_argument("--graph", required=True)
    p.add_argument("--signals", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--bands", type=int, default=1)
    p.add_argument("--t-grid", type=int, default=21)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_invert(p)
    p.set_defaults(func=cmd_fit_filter)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        config, inputs, outputs, seed = args.func(args)
        _write_manifest(args.command, config, inputs, outputs, seed, t0)
    except (ParseError, ComplexError, OSError, KeyError) as exc:
        print(f"simplexsp: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"simplexsp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
