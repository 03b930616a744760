"""Command-line surface tying the library together.

Subcommands: laplacian, spectrum, filter, learn, compress, detect, denoise,
diagnose, fit-filter.  Every run emits a manifest JSON with input digests
and timing.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


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

    p = sub.add_parser("spectrum", help="eigendecomposition of a Laplacian")
    p.add_argument("--laplacian", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter", help="bandpass or polynomial filtering of signals")
    p.add_argument("--laplacian", required=True)
    p.add_argument("--signals", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--band", help="1-based index range lo:hi")
    group.add_argument("--poly", help="comma-separated coefficients a1,a2,...")

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

    for name in ("compress", "detect", "denoise"):
        p = sub.add_parser(name, help=f"{name} experiment from a JSON config")
        p.add_argument("--config", required=True)

    p = sub.add_parser("diagnose", help="structural/spectral diagnostics report")
    p.add_argument("--complex", required=True)
    p.add_argument("--out", required=True)
    add_invert(p)

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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the command's modules, numpy among them, load only after argv parses
    from . import commands

    return commands.run(args)


if __name__ == "__main__":
    sys.exit(main())
