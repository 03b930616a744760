"""Command-line surface tying the library together.

Subcommands: laplacian, spectrum, filter, learn, compress, detect, denoise,
diagnose, fit-filter.  Every run emits a manifest JSON with input digests
and timing.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# fit-filter's t grid: a point costs one fit per level pair (41 us on 3 vertices), so a
# million points, 1e-6 apart, take 41 s a pair; larger grids are refused before allocation
T_GRID_MAX = 10**6
# levels: learn writes each as an n x n CSV and the tasks solve each, so a run grows as p
# times one level; learn --p 1000 took 0.2 s on six vertices, 1.6 s and 45 MB on 100
P_MAX = 1000
# bands: each costs a seeded shuffle and a manifest entry even when empty, as every band past
# the triangle count is; on six vertices 10^5 bands took 2.4 s, 10^6 24 s and 511 MB
BANDS_MAX = 10**4


def _number(kind=float, lo=-math.inf, hi=math.inf):
    """Converter of a flag or config value to a finite ``kind`` within [lo, hi]; a
    boolean, or a fractional float for an int, is refused, not truncated.  The
    refusal's message starts with the value, which ``main`` puts after the flag."""

    def convert(raw):
        try:
            value = kind(raw)
            ok = lo <= value <= hi and math.isfinite(value)  # isfinite overflows on a huge int
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok or isinstance(raw, bool) or isinstance(raw, float) and value != raw:
            need = f"need a finite {kind.__name__} in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"{raw}: {need}")
        return value

    return convert


# each range a flag shares with a config key, written once
SEED = _number(int, 0)
LEVELS = _number(int, 1, P_MAX)
BANDS = _number(int, 1, BANDS_MAX)
FRACTION = _number(float, math.nextafter(0, 1), 1)  # (0, 1]


def build_parser() -> argparse.ArgumentParser:
    # a bad flag value reaches main as an ArgumentError rather than exiting
    new_parser = partial(argparse.ArgumentParser, exit_on_error=False)
    parser = new_parser(prog="simplexsp",
                        description="Signal processing on weighted simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

    def command(name, help, *required, invert=False):
        p = sub.add_parser(name, help=help)
        for flag in required:
            p.add_argument(flag, required=True)
        if invert:
            p.add_argument("--invert-similarity", action="store_true",
                           help="treat input weights as similarities; use 1/w as the length")
        return p

    command("laplacian", "generalized Laplacian of a complex", "--complex", "--out", invert=True)
    command("spectrum", "eigendecomposition of a Laplacian", "--laplacian", "--out")

    p = command("filter", "bandpass or polynomial filtering of signals",
                "--laplacian", "--signals", "--out")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--band", help="1-based index range lo:hi")
    group.add_argument("--poly", help="comma-separated coefficients a1,a2,...")

    p = command("learn", "learn the nested Laplacian family", "--graph", "--out", invert=True)
    p.add_argument("--signals")
    p.add_argument("--p", type=LEVELS, default=20)
    p.add_argument("--bands", type=BANDS, default=1)
    p.add_argument("--r1", type=FRACTION, default=0.3)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--mode", choices=["closed", "all"], default="closed")

    for name in ("compress", "detect", "denoise"):
        command(name, f"{name} experiment from a JSON config", "--config")
    command("diagnose", "structural/spectral diagnostics report", "--complex", "--out", invert=True)

    p = command("fit-filter", "continuous filter fit over the family",
                "--graph", "--signals", "--out", invert=True)
    p.add_argument("--degree", type=_number(int, 1), default=2)
    p.add_argument("--p", type=LEVELS, default=5)
    p.add_argument("--bands", type=BANDS, default=1)
    p.add_argument("--t-grid", type=_number(int, 2, T_GRID_MAX), default=21)
    p.add_argument("--seed", type=SEED, default=0)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        # one line, "<flag> <value>: <reason>" for a bad value, and nothing is read
        print("simplexsp:", *filter(None, (exc.argument_name, exc.message)), file=sys.stderr)
        return EXIT_VALIDATION
    # one BLAS thread unless the caller set a count: the last bits of some outputs depend on it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # the command's modules, numpy among them, load only after argv parses
    from . import commands

    return commands.run(args)


if __name__ == "__main__":
    sys.exit(main())
