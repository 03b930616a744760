"""Command-line surface tying the library together.

Subcommands: laplacian, spectrum, filter, learn, compress, detect, denoise,
diagnose, fit-filter.  Every run emits a manifest JSON with input digests
and timing.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .complex_core import ComplexError, skeleton
from .diagnostics import diagnostics_report
from .io import (
    ParseError,
    RunManifest,
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
    compression_error,
    denoise_labels,
    detect_anomaly,
    generate_bandlimited_set,
    generate_smooth_signals,
    inject_label_noise,
    perturb_node,
    planted_complex,
    two_cluster_graph,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_manifest(args, config: dict, inputs: list, outputs: list, seed, t0: float):
    digests = {str(p): file_digest(p) for p in inputs if p and Path(p).exists()}
    manifest = RunManifest(
        command=args.command,
        config=config,
        input_digests=digests,
        seed=seed,
        version=__version__,
        elapsed_seconds=round(time.monotonic() - t0, 6),
        outputs=[str(o) for o in outputs],
    )
    if outputs:
        base = Path(outputs[0])
        target = base if base.is_dir() else base.parent
    else:
        target = Path(".")
    path = target / f"{args.command}.manifest.json"
    manifest.write(path)
    return path


def _load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_laplacian(args):
    t0 = time.monotonic()
    x = load_complex(args.complex, args.invert_similarity)
    l = complex_laplacian(x)
    out = Path(args.out)
    if out.suffix.lower() == ".json":
        save_matrix_json(l, out)
    else:
        save_matrix_csv(l.matrix, out)
    _write_manifest(args, {"complex": args.complex}, [args.complex], [out], None, t0)
    return EXIT_OK


def cmd_spectrum(args):
    t0 = time.monotonic()
    m = load_matrix(args.laplacian)
    s = eigendecompose(m)
    out = Path(args.out)
    out.write_text(
        json.dumps(
            {"eigenvalues": s.eigenvalues.tolist(), "eigenvectors": s.eigenvectors.tolist()},
            sort_keys=True,
        )
    )
    _write_manifest(args, {"laplacian": args.laplacian}, [args.laplacian], [out], None, t0)
    return EXIT_OK


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
        return tuple(float(a) for a in text.split(","))
    except ValueError as exc:
        raise ParseError(f"--poly {text!r}: {exc}") from exc


def cmd_filter(args):
    t0 = time.monotonic()
    m = load_matrix(args.laplacian)
    _, signals = load_signals(args.signals)
    if signals.shape[0] != m.shape[0]:
        raise ParseError(
            f"signal length {signals.shape[0]} does not match laplacian size {m.shape[0]}"
        )
    if args.band is not None:
        spec = FilterSpec(band=_parse_band(args.band, m.shape[0]))
    else:
        spec = FilterSpec(coeffs=_parse_poly(args.poly))
    s = eigendecompose(m) if args.band is not None else None
    filtered = np.column_stack(
        [spec.apply(m, s, signals[:, j]) for j in range(signals.shape[1])]
    )
    save_signals(filtered, args.out)
    _write_manifest(
        args,
        {"band": args.band, "poly": args.poly},
        [args.laplacian, args.signals],
        [args.out],
        None,
        t0,
    )
    return EXIT_OK


def cmd_learn(args):
    t0 = time.monotonic()
    g = load_graph(args.graph, args.invert_similarity)
    family = build_family(g, p=args.p, num_bands=args.bands, seed=args.seed, mode=args.mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    manifest_path = out_dir / "family.json"
    manifest_path.write_text(json.dumps(family_manifest(family), indent=1, sort_keys=True))
    outputs.append(manifest_path)
    for i, l in enumerate(family.laplacians):
        p = out_dir / f"laplacian_{i:02d}.csv"
        save_matrix_csv(l.matrix, p)
        outputs.append(p)
    inputs = [args.graph]
    if args.signals:
        _, signals = load_signals(args.signals)
        b, errors = select_model(family, signals, args.r1)
        table = out_dir / "residuals.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "residual", "selected"])
            for i, e in enumerate(errors):
                writer.writerow([i, repr(float(e)), int(i == b)])
        outputs.append(table)
        inputs.append(args.signals)
    _write_manifest(
        args,
        {"p": args.p, "bands": args.bands, "r1": args.r1, "mode": args.mode},
        inputs,
        outputs,
        args.seed,
        t0,
    )
    return EXIT_OK


def cmd_compress(args):
    t0 = time.monotonic()
    cfg = _load_config(args.config)
    seed = int(cfg.get("seed", 0))
    g = load_graph(cfg["graph"], cfg.get("invert_similarity", False))
    family = build_family(
        g, p=int(cfg.get("p", 20)), num_bands=int(cfg.get("bands", 1)), seed=seed
    )
    r1 = float(cfg.get("r1", 0.3))
    r2 = float(cfg.get("r2", r1))
    trials = int(cfg.get("trials", 10))
    count = int(cfg.get("count", 20))
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    if "signals" in cfg:
        _, sigs = load_signals(cfg["signals"])
        trials = 1
        sig_source = None
    else:
        truth = planted_complex(g, float(cfg.get("planted_fraction", 0.5)), seed)
        sig_source = eigendecompose(complex_laplacian(truth))

    rows = []
    for trial in range(trials):
        if sig_source is not None:
            s1 = generate_bandlimited_set(sig_source, r1, count, seed + 1000 + trial)
            s2 = generate_bandlimited_set(sig_source, r2, count, seed + 2000 + trial)
        else:
            s1 = s2 = sigs
        b, errors = select_model(family, s1, r1)
        err_b = compression_error(family.spectrum(b), s2, r2)
        err_0 = compression_error(family.spectrum(0), s2, r2)
        rows.append([trial, b, err_b, err_0])

    table = out_dir / "compression.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "selected_level", "err_selected", "err_level0"])
        writer.writerows(rows)
    summary = out_dir / "compression_summary.json"
    gains = [1 - r[2] / r[3] for r in rows if r[3] > 0]
    summary.write_text(
        json.dumps(
            {
                "trials": trials,
                "mean_gain": float(np.mean(gains)) if gains else 0.0,
                "wins": sum(1 for r in rows if r[2] < r[3]),
            },
            sort_keys=True,
        )
    )
    _write_manifest(args, cfg, [cfg["graph"]], [table, summary], seed, t0)
    return EXIT_OK


def cmd_detect(args):
    t0 = time.monotonic()
    cfg = _load_config(args.config)
    seed = int(cfg.get("seed", 0))
    g = load_graph(cfg["graph"], cfg.get("invert_similarity", False))
    family = build_family(
        g, p=int(cfg.get("p", 20)), num_bands=int(cfg.get("bands", 1)), seed=seed
    )
    r = float(cfg.get("r", 0.8))
    epsilon = float(cfg.get("epsilon", 0.05))
    magnitudes = [float(m) for m in cfg.get("magnitudes", [10, 20, 30, 40, 50])]
    strategies = cfg.get("strategies", ["S1", "S4"])
    trials = int(cfg.get("trials", 100))
    level = int(cfg.get("s3_level", 2))
    truth = planted_complex(g, float(cfg.get("planted_fraction", 0.5)), seed)
    truth_spec = eigendecompose(complex_laplacian(truth))
    amplitude = float(cfg.get("amplitude", 50.0))
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    rates = {(m, s): 0 for m in magnitudes for s in strategies}
    for trial in range(trials):
        sigs = generate_smooth_signals(
            truth_spec, 4, amplitude=amplitude, seed=seed + 10_000 + trial
        )
        baselines = [sigs[:, j] for j in range(3)]
        vertex = int(rng.integers(0, g.n))
        for mag in magnitudes:
            anomalous = perturb_node(sigs[:, 3], vertex, mag, seed + trial)
            for strat in strategies:
                verdict = detect_anomaly(
                    family, baselines, anomalous, r, epsilon, strat, level
                )
                if verdict.flagged:
                    rates[(mag, strat)] += 1

    table = out_dir / "detection.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["magnitude", "strategy", "rate"])
        for (mag, strat), hits in sorted(rates.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            writer.writerow([mag, strat, hits / trials])
    _write_manifest(args, cfg, [cfg["graph"]], [table], seed, t0)
    return EXIT_OK


def cmd_denoise(args):
    t0 = time.monotonic()
    cfg = _load_config(args.config)
    seed = int(cfg.get("seed", 0))
    if "graph" in cfg:
        g = load_graph(cfg["graph"], cfg.get("invert_similarity", False))
        inputs = [cfg["graph"]]
    else:
        g = two_cluster_graph(int(cfg.get("n", 100)), seed=seed)
        inputs = []
    family = build_family(
        g, p=int(cfg.get("p", 10)), num_bands=int(cfg.get("bands", 1)), seed=seed
    )
    if "labels" in cfg:
        _, lab = load_signals(cfg["labels"])
        labels = lab[:, 0]
        inputs.append(cfg["labels"])
    else:
        labels = np.array([1 if v < g.n // 2 else 2 for v in range(g.n)], dtype=float)
    num_classes = int(cfg.get("num_classes", int(labels.max())))
    r = float(cfg.get("r", 0.01))
    s = float(cfg.get("s", 0.9))
    fraction = float(cfg.get("noise_fraction", 0.6))
    snrs = [float(v) for v in cfg.get("snr_db", [2, 1, 0, -1, -2])]
    trials = int(cfg.get("trials", 50))
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    best_frac = {}
    for snr in snrs:
        best_counts = np.zeros(family.p + 1)
        for trial in range(trials):
            noisy = inject_label_noise(labels, fraction, snr, seed + 31 * trial)
            correct = [
                int(
                    np.sum(
                        denoise_labels(family.spectrum(i), noisy, r, s, num_classes)
                        == labels.astype(int)
                    )
                )
                for i in range(family.p + 1)
            ]
            best = max(correct)
            winners = [i for i, c in enumerate(correct) if c == best]
            for i in winners:
                best_counts[i] += 1.0 / len(winners)
        best_frac[snr] = (best_counts / trials).tolist()

    table = out_dir / "denoise.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db"] + [f"L_X{i}" for i in range(family.p + 1)])
        for snr in snrs:
            writer.writerow([snr] + [round(v, 4) for v in best_frac[snr]])
    _write_manifest(args, cfg, inputs, [table], seed, t0)
    return EXIT_OK


def cmd_diagnose(args):
    t0 = time.monotonic()
    x = load_complex(args.complex, args.invert_similarity)
    report = diagnostics_report(x)
    out = Path(args.out)
    out.write_text(json.dumps(report.as_dict(), indent=1, sort_keys=True))
    _write_manifest(args, {"complex": args.complex}, [args.complex], [out], None, t0)
    return EXIT_OK


def cmd_fit_filter(args):
    t0 = time.monotonic()
    g = load_graph(args.graph, args.invert_similarity)
    _, signals = load_signals(args.signals)
    if signals.shape[1] < 2:
        raise ParseError("fit-filter needs two signal columns (input, target)")
    family = build_family(g, p=args.p, num_bands=args.bands, seed=args.seed)
    fit = fit_continuous_filter(
        family, signals[:, 0], signals[:, 1], args.degree, args.t_grid
    )
    out = Path(args.out)
    out.write_text(
        json.dumps(
            {
                "level": fit.level,
                "t": fit.t,
                "coeffs": fit.coeffs.tolist(),
                "residual": fit.residual,
            },
            sort_keys=True,
        )
    )
    _write_manifest(
        args,
        {"degree": args.degree, "p": args.p, "t_grid": args.t_grid},
        [args.graph, args.signals],
        [out],
        args.seed,
        t0,
    )
    return EXIT_OK


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
    # SIMPLEXSP_THREADS caps parallel trial fan-out; the harnesses run
    # serially, so any positive cap is honored
    threads = os.environ.get("SIMPLEXSP_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        print(f"simplexsp: invalid SIMPLEXSP_THREADS={threads!r}", file=sys.stderr)
        return EXIT_VALIDATION
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ComplexError, FileNotFoundError, KeyError) as exc:
        print(f"simplexsp: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"simplexsp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
