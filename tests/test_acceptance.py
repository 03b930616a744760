"""Acceptance suite: one test per criterion, each printing a pass/fail line.

These are the release-gating checks.  Every test prints exactly one line
(bypassing capture so the line is visible in any pytest run) and then
asserts, so a red run still shows the full scoreboard for the criteria
that were reached.
"""

import itertools
import json
import sys
import time

import numpy as np
import pytest

from simplexsp import (
    SimplicialComplex,
    WeightedGraph,
    bandpass,
    commutator_norm,
    complex_laplacian,
    compression_error,
    denoise_labels,
    detect_anomaly,
    downsample_reconstruct,
    eigendecompose,
    enumerate_candidate_triangles,
    fit_continuous_filter,
    generate_bandlimited_set,
    generate_smooth_signals,
    gft,
    igft,
    inject_label_noise,
    interior_counts,
    is_graph_type,
    lemma2_audit,
    perturb_node,
    planted_complex,
    select_model,
    select_sample_vertices,
    shape_constant,
    shift_invariance_certificate,
    simplex_laplacian,
    star_expansion,
    two_cluster_graph,
    two_simplex_closed_form,
)
from simplexsp import connected_components
from simplexsp.structure_learning import build_family, family_manifest

import conftest
from conftest import pendant_complex, random_metric_complex, random_positive_triple


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE {num:02d}] {name}: {status}{suffix}"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} ({name}) failed {suffix}"


FIXTURE_345 = np.array(
    [
        [1.0, -1.0 / 3.0, -2.0 / 3.0],
        [-1.0 / 3.0, 4.0 / 3.0, -1.0],
        [-2.0 / 3.0, -1.0, 5.0 / 3.0],
    ]
)


def test_criterion_01_closed_form_fixture():
    two_simplex_closed_form(3, 4, 5)  # warm up before timing
    t0 = time.perf_counter()
    l = two_simplex_closed_form(3, 4, 5)
    elapsed = time.perf_counter() - t0
    oracle = simplex_laplacian(star_expansion((1, 2, 3), {(1, 2): 3, (1, 3): 4, (2, 3): 5}))
    ok = (
        np.abs(l.matrix - FIXTURE_345).max() < 1e-12
        and np.abs(l.matrix - oracle.matrix).max() < 1e-12
        and elapsed < 1e-3
    )
    _report(1, "closed-form (3,4,5) fixture", ok, f"{elapsed * 1e6:.1f} us")


def test_criterion_02_oracle_equivalence_1000_triples():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        w12, w13, w23 = random_positive_triple(rng)
        closed = two_simplex_closed_form(w12, w13, w23).matrix
        oracle = simplex_laplacian(
            star_expansion((1, 2, 3), {(1, 2): w12, (1, 3): w13, (2, 3): w23})
        ).matrix
        scale = max(np.abs(oracle).max(), 1e-300)
        worst = max(worst, np.abs(closed - oracle).max() / scale)
    stars = star_expansion((1, 2, 3), {(1, 2): 3, (1, 3): 4, (2, 3): 5}).star_weights
    ok = worst < 1e-12 and tuple(stars) == (1.0, 2.0, 3.0)
    _report(2, "closed form vs star-expansion oracle (1000 triples)", ok, f"worst rel {worst:.2e}")


def test_criterion_03_lemma2_suite():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        x = random_metric_complex(rng, n=int(rng.integers(4, 31)))
        l = complex_laplacian(x)
        components = len(connected_components(x.graph()))
        report = lemma2_audit(l, components)
        if not all(item["pass"] for item in report.values()):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(3, "operator audit on 100 metric complexes", ok, f"{elapsed:.2f} s")


def test_criterion_04_graph_type_equivalence():
    rng = np.random.default_rng(4)
    disagreements = 0
    for _ in range(1000):
        w12, w13, w23 = random_positive_triple(rng)
        lhs = is_graph_type(two_simplex_closed_form(w12, w13, w23), tol=1e-12)
        rhs = shape_constant(w12, w13, w23) >= -1e-12
        if lhs != rhs:
            disagreements += 1
    _report(4, "graph-type iff shape constant >= 0 (1000 triples)", disagreements == 0,
            f"{disagreements} disagreements")


def test_criterion_05_skeleton_difference_formula():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        x, (w01, w02, w12) = pendant_complex(rng)
        diff = x.graph().laplacian_matrix() - complex_laplacian(x).matrix
        for (i, j), (a, b, c) in {
            (0, 1): (w01, w02, w12),
            (0, 2): (w02, w01, w12),
            (1, 2): (w12, w01, w02),
        }.items():
            worst = max(worst, abs(diff[i, j] - (-(13 * a + b + c) / 18.0)))
    _report(5, "skeleton-difference entry formula (100 complexes)", worst < 1e-12,
            f"worst abs {worst:.2e}")


def test_criterion_06_interior_counts_fixture():
    edges = {
        e: 1.0
        for e in [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (1, 6), (6, 8), (4, 7)]
    }
    x = SimplicialComplex(range(1, 9), edges, [(1, 2, 3), (3, 4, 5)])
    counts = interior_counts(x)
    _report(6, "interior-count fixture (3,1,1,2)", counts == (3, 1, 1, 2), str(counts))


def test_criterion_07_certificate_cross_validation():
    rng = np.random.default_rng(7)
    fired = 0
    attempts = 0
    failures = 0
    while fired < 200 and attempts < 20000:
        attempts += 1
        x = random_metric_complex(rng, n=int(rng.integers(4, 16)))
        _, cert, comm = shift_invariance_certificate(x)
        if cert:
            fired += 1
            if comm <= 1e-8:
                failures += 1
    tri = SimplicialComplex([1, 2, 3], {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}, [(1, 2, 3)])
    _, _, comm_tri = shift_invariance_certificate(tri)
    ok = fired == 200 and failures == 0 and comm_tri < 1e-12
    _report(7, "certificate implies non-commuting (200/200)", ok,
            f"{fired} fired, {failures} failures, triangle comm {comm_tri:.1e}")


def test_criterion_08_spectral_toolkit():
    rng = np.random.default_rng(8)
    x = random_metric_complex(rng, n=40, edge_prob=0.3, triangle_prob=0.5)
    spec = eigendecompose(complex_laplacian(x))
    worst_round = worst_parseval = 0.0
    for _ in range(100):
        sig = rng.standard_normal(40)
        worst_round = max(worst_round, np.abs(igft(spec, gft(spec, sig)) - sig).max())
        worst_parseval = max(
            worst_parseval,
            abs(np.linalg.norm(gft(spec, sig)) - np.linalg.norm(sig)),
        )
    band = range(1, 6)
    sig = rng.standard_normal(40)
    once = bandpass(spec, band, sig)
    idempotent = np.abs(bandpass(spec, band, once) - once).max() < 1e-10

    y = random_metric_complex(rng, n=50, edge_prob=0.25, triangle_prob=0.5)
    spec50 = eigendecompose(complex_laplacian(y))
    blim = spec50.eigenvectors[:, :5] @ rng.standard_normal(5)
    verts = select_sample_vertices(spec50, band)
    vidx = {v: i for i, v in enumerate(spec50.vertices)}
    samples = blim[[vidx[v] for v in verts]]
    rec = downsample_reconstruct(spec50, band, verts, samples)
    sampling_err = np.abs(rec - blim).max()

    ok = (
        worst_round < 1e-10
        and worst_parseval < 1e-10
        and idempotent
        and sampling_err < 1e-8
    )
    _report(8, "spectral toolkit (roundtrip/Parseval/bandpass/sampling)", ok,
            f"roundtrip {worst_round:.1e}, sampling {sampling_err:.1e}")


def test_criterion_09_pipeline_determinism():
    rng = np.random.default_rng(9)
    x = random_metric_complex(rng, n=30, edge_prob=0.4, triangle_prob=1.0)
    g = x.graph()
    manifests = {
        json.dumps(family_manifest(build_family(g, p=6, num_bands=2, seed=42)), sort_keys=True)
        for _ in range(2)
    }
    _report(9, "learning pipeline bit-identical manifests", len(manifests) == 1)


def _sparse_unit_graph(n=200, target_triangles=500, seed=10):
    rng = np.random.default_rng(seed)
    p = (target_triangles / (n * (n - 1) * (n - 2) / 6.0)) ** (1.0 / 3.0)
    mask = rng.random((n, n)) < p
    edges = {
        (i, j): 1.0 for i in range(n) for j in range(i + 1, n) if mask[i, j]
    }
    return WeightedGraph(range(n), edges)


def test_criterion_10_spectrum_drift():
    t0 = time.perf_counter()
    g = _sparse_unit_graph()
    triangles = enumerate_candidate_triangles(g)
    family = build_family(g, p=20, seed=10)
    medians = [float(np.median(eigendecompose(family.laplacian(i)).eigenvalues)) for i in range(21)]
    inversions = sum(
        1 for i in range(20) if medians[i + 1] > medians[i] + 1e-12
    )
    elapsed = time.perf_counter() - t0
    ok = inversions <= 2 and elapsed < 60.0
    _report(10, "median eigenvalue drift across levels", ok,
            f"{len(triangles)} triples, {inversions} inversions, {elapsed:.1f} s")


def test_criterion_11_compression_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    x = random_metric_complex(rng, n=100, edge_prob=0.12, triangle_prob=1.0)
    g = x.graph()
    family = build_family(g, p=10, seed=11)
    truth = planted_complex(g, 1.0, seed=11)
    truth_spec = eigendecompose(complex_laplacian(truth))
    spectra = [eigendecompose(family.laplacian(i)) for i in range(family.p + 1)]
    wins = 0
    for trial in range(20):
        s1 = generate_bandlimited_set(truth_spec, 0.3, 20, 1000 + trial)
        s2 = generate_bandlimited_set(truth_spec, 0.3, 20, 2000 + trial)
        b, _ = select_model(family, s1, 0.3)
        err_b = compression_error(spectra[b], s2, 0.3)
        err_0 = compression_error(spectra[0], s2, 0.3)
        if err_b < err_0:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 18 and elapsed < 120.0
    _report(11, "selected level beats level 0 (>=90% of 20 trials)", ok,
            f"{wins}/20 wins, {elapsed:.1f} s")


def test_criterion_12_anomaly_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    x = random_metric_complex(rng, n=60, edge_prob=0.25, triangle_prob=1.0)
    g = x.graph()
    family = build_family(g, p=4, seed=12)
    truth = planted_complex(g, 0.5, seed=12)
    truth_spec = eigendecompose(complex_laplacian(truth))
    magnitudes = [10.0, 20.0, 30.0, 40.0, 50.0]
    trials = 200
    hits = {(m, s): 0 for m in magnitudes for s in ("S1", "S4")}
    for trial in range(trials):
        sigs = generate_smooth_signals(truth_spec, 4, amplitude=50.0, seed=10_000 + trial)
        baselines = [sigs[:, j] for j in range(3)]
        vertex = int(rng.integers(0, g.n))
        for mag in magnitudes:
            anomalous = perturb_node(sigs[:, 3], vertex, mag, trial)
            for strat in ("S1", "S4"):
                verdict = detect_anomaly(family, baselines, anomalous, 0.8, 0.05, strat)
                if verdict.flagged:
                    hits[(mag, strat)] += 1
    elapsed = time.perf_counter() - t0
    rates = {s: [hits[(m, s)] / trials for m in magnitudes] for s in ("S1", "S4")}
    inversions = sum(
        1 for i in range(4) if rates["S4"][i + 1] < rates["S4"][i]
    )
    dominated = all(r4 >= r1 for r4, r1 in zip(rates["S4"], rates["S1"]))
    ok = inversions <= 1 and dominated and elapsed < 300.0
    _report(12, "detection rate monotone and voting >= single-level", ok,
            f"S1 {rates['S1']}, S4 {rates['S4']}, {elapsed:.1f} s")


def test_criterion_13_denoising_property():
    g = two_cluster_graph(100, seed=13)
    family = build_family(g, p=10, seed=13)
    labels = np.array([1.0 if v < 50 else 2.0 for v in range(100)])
    truth = labels.astype(int)
    spectra = [eigendecompose(family.laplacian(i)) for i in range(family.p + 1)]
    wins = 0
    for trial in range(100):
        noisy = inject_label_noise(labels, 0.6, 0.0, seed=13 + 31 * trial)
        errors_noisy = int(np.sum(noisy != labels))
        improved = any(
            int(np.sum(denoise_labels(spectrum, noisy, 0.01, 0.9, 2) != truth))
            < errors_noisy
            for spectrum in spectra
        )
        if improved:
            wins += 1
    _report(13, "denoising beats delivered noisy labels (>=90/100)", wins >= 90, f"{wins}/100")


def test_criterion_14_filter_fit_recovery():
    rng = np.random.default_rng(14)
    worst_residual = 0.0
    worst_coeff = 0.0
    for _ in range(20):
        x = random_metric_complex(rng, n=int(rng.integers(8, 16)), edge_prob=0.6, triangle_prob=1.0)
        g = x.graph()
        family = build_family(g, p=3, seed=0)
        x1 = rng.standard_normal(g.n)
        x2 = family.laplacian(0).matrix @ x1
        fit = fit_continuous_filter([family.laplacian(i) for i in range(family.p + 1)], x1, x2, 3)
        worst_residual = max(worst_residual, fit.residual)
        target = np.zeros(3)
        target[0] = 1.0
        worst_coeff = max(worst_coeff, np.abs(np.asarray(fit.coeffs) - target).max())
    ok = worst_residual < 1e-8 and worst_coeff < 1e-6
    _report(14, "identity-shift filter recovery (20 graphs)", ok,
            f"residual {worst_residual:.1e}, coeff err {worst_coeff:.1e}")
