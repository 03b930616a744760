"""Tests of the benchmark itself: perturbed outputs are caught, the smoke run is complete.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import run
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent


def _cli_run(name: str, work: Path):
    inp = WORKLOADS[name].generate(DEFAULT_SEED, work, smoke=True)
    (work / "out").mkdir()
    _, _, rc = run.spawn(run._cli_argv(inp.argv), work)
    assert rc == 0, (work / "stderr.txt").read_text()
    return inp


def _nudge_laplacian(work: Path) -> None:
    # a symmetric, zero-row-sum change: only the reference comparison can see it
    path = work / "out/laplacian_05.csv"
    m = np.loadtxt(path, delimiter=",")
    i, j = np.argwhere(np.abs(np.triu(m, 1)) > 0)[0]
    d = 1e-6
    m[i, j] += d
    m[j, i] += d
    m[i, i] -= d
    m[j, j] -= d
    np.savetxt(path, m, delimiter=",", fmt="%.17g")


def _nudge_residual(work: Path) -> None:
    path = work / "out/residuals.csv"
    rows = path.read_text().splitlines()
    level, value, selected = rows[3].split(",")
    rows[3] = f"{level},{float(value) * (1 + 1e-6)!r},{selected}"
    path.write_text("\n".join(rows) + "\n")


def _swap_detect_rate(work: Path) -> None:
    path = work / "out/detection.csv"
    rows = path.read_text().splitlines()
    mag, strat, rate = rows[1].split(",")
    rows[1] = f"{mag},{strat},{1.0 - float(rate)}"
    path.write_text("\n".join(rows) + "\n")


def _move_denoise_fraction(work: Path) -> None:
    # keeps the row summing to one, so the structural check still passes
    path = work / "out/denoise.csv"
    rows = [r.split(",") for r in path.read_text().splitlines()]
    vals = [float(v) for v in rows[1][1:]]
    k = int(np.argmax(vals))
    vals[k] -= 0.01
    vals[(k + 1) % len(vals)] += 0.01
    rows[1][1:] = [repr(round(v, 4)) for v in vals]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _nudge_commutator(work: Path) -> None:
    path = work / "out/diagnose.json"
    d = json.loads(path.read_text())
    d["commutator"] *= 1 + 1e-6
    path.write_text(json.dumps(d))


def _bump_count(work: Path) -> None:
    path = work / "out/diagnose.json"
    d = json.loads(path.read_text())
    d["k_max"] += 1
    path.write_text(json.dumps(d))


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("learn-knn", _nudge_laplacian),
        ("learn-knn", _nudge_residual),
        ("detect-sparse", _swap_detect_rate),
        ("denoise-clusters", _move_denoise_fraction),
        ("diagnose-planted", _nudge_commutator),
        ("diagnose-planted", _bump_count),
    ],
)
def test_perturbed_output_is_caught(tmp_path, name, perturb):
    work = tmp_path / "work"
    work.mkdir()
    inp = _cli_run(name, work)
    size = WORKLOADS[name].smoke
    check.record_reference(name, size, work, inp, "test", directory=tmp_path / "ref")
    reference = check.load_reference(name, size, directory=tmp_path / "ref")
    assert check.Checker(name, inp, reference)(work).ok

    perturb(work)
    verdict = check.Checker(name, inp, reference)(work)
    assert not verdict.ok
    assert verdict.byte_identical == len(inp.outputs) - 1


def test_structural_check_catches_asymmetric_laplacian(tmp_path):
    inp = _cli_run("learn-knn", tmp_path)
    assert check.Checker("learn-knn", inp, None)(tmp_path).ok
    path = tmp_path / "out/laplacian_03.csv"
    m = np.loadtxt(path, delimiter=",")
    m[0, 1] += 1e-3
    np.savetxt(path, m, delimiter=",", fmt="%.17g")
    verdict = check.Checker("learn-knn", inp, None)(tmp_path)
    assert not verdict.ok and "not symmetric" in verdict.problems[0]


def test_inputs_repeat_for_a_seed(tmp_path):
    for name, wl in WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir(), b.mkdir()
        assert wl.generate(7, a, smoke=True).sizes == wl.generate(7, b, smoke=True).sizes
        for f in a.iterdir():
            assert f.read_bytes() == (b / f.name).read_bytes()


def test_smoke_run_emits_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    # the smoke run itself fails unless every metric in BENCHMARK.json is emitted with its unit
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
