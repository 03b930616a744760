"""Spectral tasks: compression, anomaly detection (S1-S4), label denoising.

Also hosts the synthetic generators used to reproduce the experiments at
desk scale: bandlimited signal sets, smooth "sensor field" signals, planted
2-complexes on a graph, and a two-cluster benchmark graph, and the trial
loops of the three experiments (``compression_trials``, ``detection_rates``,
``denoise_best_fractions``).  All randomness is seeded; trials derive their
sub-seeds from (seed, trial index).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .complex_core import ComplexError, SimplicialComplex, WeightedGraph, enumerate_candidate_triangles
from .spectral import Spectrum, gft, igft
from .structure_learning import LaplacianFamily, select_model

__all__ = [
    "AnomalyVerdict",
    "compression_error",
    "compression_trials",
    "detection_rates",
    "denoise_best_fractions",
    "generate_bandlimited_set",
    "generate_smooth_signals",
    "detect_anomaly",
    "denoise_labels",
    "inject_label_noise",
    "perturb_node",
    "planted_complex",
    "two_cluster_graph",
]


def _low_band(n: int, r: float) -> int:
    return max(1, int(round(r * n)))


def compression_error(spectrum: Spectrum, signals: np.ndarray, r2: float) -> float:
    """Sum over signals of the l2 norm (not squared) of the residual after
    projecting onto the first max(1, round(r2 n)) eigenvectors."""
    if not 0 < r2 <= 1:
        raise ComplexError(f"r2 must lie in (0, 1], got {r2}")
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    if signals.shape[1] == 0:
        raise ComplexError("empty signal set")
    k = _low_band(spectrum.n, r2)
    v = spectrum.eigenvectors[:, :k]
    resid = signals - v @ (v.T @ signals)
    return float(np.linalg.norm(resid, axis=0).sum())


def generate_bandlimited_set(
    spectrum: Spectrum, r: float, count: int, seed: int = 0
) -> np.ndarray:
    """Unit-norm signals drawn from the span of the first r-fraction of the
    eigenbasis, with standard normal coefficients."""
    if count < 1:
        raise ComplexError(f"count must be >= 1, got {count}")
    k = _low_band(spectrum.n, r)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((k, count))
    sig = spectrum.eigenvectors[:, :k] @ coeff
    norms = np.linalg.norm(sig, axis=0)
    norms[norms == 0] = 1.0
    return sig / norms


def compression_trials(
    family: LaplacianFamily,
    source,
    r1: float,
    r2: float,
    trials: int,
    count: int,
    seed: int = 0,
) -> list:
    """Rows [trial, selected level, its compression error, level 0's error].

    ``source`` is a Spectrum, from which each trial draws ``count``
    bandlimited signals at r1 to select the level and ``count`` more at r2
    to score it, or a fixed signal array that does both in a single trial.
    """
    fixed = not isinstance(source, Spectrum)
    rows = []
    for trial in range(1 if fixed else trials):
        if fixed:
            s1 = s2 = source
        else:
            s1 = generate_bandlimited_set(source, r1, count, seed + 1000 + trial)
            s2 = generate_bandlimited_set(source, r2, count, seed + 2000 + trial)
        b, errors = select_model(family, s1, r1)
        err_b = compression_error(family.spectrum(b), s2, r2)
        err_0 = compression_error(family.spectrum(0), s2, r2)
        rows.append([trial, b, err_b, err_0])
    return rows


def generate_smooth_signals(
    spectrum: Spectrum,
    count: int,
    band_fraction: float = 0.1,
    noise_scale: float = 0.01,
    amplitude: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Low-band signals plus small white noise, a stand-in for slowly
    varying sensor fields (temperature-like)."""
    rng = np.random.default_rng(seed)
    base = generate_bandlimited_set(spectrum, band_fraction, count, seed)
    noise = noise_scale * rng.standard_normal(base.shape) / np.sqrt(spectrum.n)
    return amplitude * base + noise


def perturb_node(signal: np.ndarray, vertex: int, magnitude: float, seed: int = 0) -> np.ndarray:
    """Add +/- magnitude (seeded sign) at a single vertex."""
    signal = np.asarray(signal, dtype=float)
    if not 0 <= vertex < signal.shape[0]:
        raise ComplexError(f"vertex index {vertex} out of range")
    out = signal.copy()
    sign = 1.0 if np.random.default_rng(seed).integers(0, 2) == 1 else -1.0
    out[vertex] += sign * magnitude
    return out


@dataclass
class AnomalyVerdict:
    a: float
    b: float
    flagged: bool | None
    strategy: str = "S1"
    level: int | None = None
    per_level: list = field(default_factory=list)


def _high_freq_max(spectrum: Spectrum, x: np.ndarray, r: float) -> float:
    cut = int(round(r * spectrum.n))  # 1-based: keep indices k > cut
    if cut >= spectrum.n:
        return 0.0
    xhat = gft(spectrum, x)
    return float(np.abs(xhat[cut:]).max())


def _single_verdict(spectrum, baselines, test_signal, r, epsilon, strategy, level):
    a = max(_high_freq_max(spectrum, x, r) for x in baselines)
    b = _high_freq_max(spectrum, test_signal, r)
    if a == 0.0:
        flagged = b > 0.0
    else:
        flagged = b / a > 1.0 + epsilon
    return AnomalyVerdict(a, b, flagged, strategy, level)


def detect_anomaly(
    source,
    baseline_signals,
    test_signal,
    r: float,
    epsilon: float,
    strategy: str = "S1",
    level: int | None = None,
) -> AnomalyVerdict:
    """High-frequency magnitude test: flag when b/a > 1 + epsilon.

    ``source`` is a Spectrum for single-operator use, or a LaplacianFamily
    for the family strategies: S1 uses level 0, S3 a fixed ``level`` in
    0..p, S2 only reports the per-level verdicts (``flagged`` is None), S4
    flags when at least a third of the levels flag individually.
    """
    baselines = [np.asarray(x, dtype=float) for x in baseline_signals]
    test_signal = np.asarray(test_signal, dtype=float)
    if isinstance(source, Spectrum):
        return _single_verdict(source, baselines, test_signal, r, epsilon, strategy, level)
    family: LaplacianFamily = source
    if strategy == "S1":
        return _single_verdict(family.spectrum(0), baselines, test_signal, r, epsilon, "S1", 0)
    if strategy == "S3":
        if level is None or not 0 <= level <= family.p:
            raise ComplexError(f"strategy S3 needs a level in 0..{family.p}, got {level}")
        return _single_verdict(
            family.spectrum(level), baselines, test_signal, r, epsilon, "S3", level
        )
    if strategy in ("S2", "S4"):
        per_level = [
            _single_verdict(family.spectrum(i), baselines, test_signal, r, epsilon, strategy, i)
            for i in range(family.p + 1)
        ]
        if strategy == "S2":
            return AnomalyVerdict(np.nan, np.nan, None, "S2", None, per_level)
        votes = sum(1 for v in per_level if v.flagged)
        need = -(-(family.p + 1) // 3)  # ceil((p+1)/3)
        return AnomalyVerdict(np.nan, np.nan, votes >= need, "S4", None, per_level)
    raise ComplexError(f"unknown strategy {strategy!r}")


def detection_rates(
    family: LaplacianFamily,
    truth: Spectrum,
    magnitudes,
    strategies,
    trials: int,
    r: float,
    epsilon: float,
    amplitude: float,
    level: int | None = None,
    seed: int = 0,
) -> dict:
    """Flag counts per (magnitude, strategy) over ``trials`` detection trials.

    Each trial draws four smooth signals of the given amplitude from
    ``truth``: three baselines and one perturbed at a random vertex by each
    magnitude in turn.  ``level`` is the fixed level of S3.  S2 has no
    verdict of its own, so only S1, S3 and S4 are accepted, and magnitudes
    and strategies must not repeat.
    """
    for strat in strategies:
        if strat not in ("S1", "S3", "S4"):
            raise ComplexError(f"detection_rates needs strategies S1, S3 or S4, got {strat!r}")
    if len(set(magnitudes)) < len(magnitudes) or len(set(strategies)) < len(strategies):
        # a repeat would count its flags twice under one key
        raise ComplexError("detection_rates needs distinct magnitudes and strategies")
    rng = np.random.default_rng(seed)
    rates = {(m, s): 0 for m in magnitudes for s in strategies}
    for trial in range(trials):
        sigs = generate_smooth_signals(truth, 4, amplitude=amplitude, seed=seed + 10_000 + trial)
        baselines = [sigs[:, j] for j in range(3)]
        vertex = int(rng.integers(0, truth.n))
        for mag in magnitudes:
            anomalous = perturb_node(sigs[:, 3], vertex, mag, seed + trial)
            for strat in strategies:
                verdict = detect_anomaly(family, baselines, anomalous, r, epsilon, strat, level)
                if verdict.flagged:
                    rates[(mag, strat)] += 1
    return rates


def inject_label_noise(
    labels: np.ndarray, fraction: float, snr_db: float, seed: int = 0
) -> np.ndarray:
    """Gaussian noise on a random label subset at an exact SNR.

    The noise power over the selected entries is scaled so that
    10 log10(signal power / noise power) equals ``snr_db`` exactly.
    """
    if not 0 < fraction <= 1:
        raise ComplexError(f"fraction must lie in (0, 1], got {fraction}")
    labels = np.asarray(labels, dtype=float)
    n = labels.shape[0]
    m = int(round(fraction * n))
    out = labels.copy()
    if m == 0 or np.isinf(snr_db):
        return out
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    noise = rng.standard_normal(m)
    sig_power = float(np.mean(labels[idx] ** 2))
    target = sig_power / 10.0 ** (snr_db / 10.0)
    noise_power = float(np.mean(noise**2))
    if noise_power > 0:
        noise *= np.sqrt(target / noise_power)
    out[idx] += noise
    return out


def denoise_labels(
    spectrum: Spectrum,
    noisy_labels: np.ndarray,
    r: float,
    s: float,
    num_classes: int | None = None,
) -> np.ndarray:
    """Scale down high-frequency coefficients, invert, round and clamp.

    The cut starts at 1-based index max(2, round(r n)) so the DC component
    is never touched.
    """
    if not 0 < r < 1:
        raise ComplexError(f"r must lie in (0, 1), got {r}")
    if not 0 <= s <= 1:
        raise ComplexError(f"s must lie in [0, 1], got {s}")
    noisy = np.asarray(noisy_labels, dtype=float)
    n = spectrum.n
    cut = max(2, int(round(r * n)))  # 1-based
    xhat = gft(spectrum, noisy)
    xhat[cut - 1:] *= s
    recovered = igft(spectrum, xhat)
    labels = np.rint(recovered).astype(int)
    if num_classes is None:
        num_classes = max(1, int(np.rint(noisy.max())))
    return np.clip(labels, 1, num_classes)


def denoise_best_fractions(
    family: LaplacianFamily,
    labels: np.ndarray,
    snrs,
    trials: int,
    r: float,
    s: float,
    fraction: float,
    num_classes: int | None = None,
    seed: int = 0,
) -> dict:
    """For each SNR, the share of trials in which each level recovers the
    most labels; a tie splits the trial equally among the tied levels.
    SNRs must not repeat."""
    if trials < 1:
        raise ComplexError(f"need at least one trial, got {trials}")
    if len(set(snrs)) < len(snrs):
        # the result is keyed by SNR: a repeat would run its trials twice
        raise ComplexError("denoise_best_fractions needs distinct SNRs")
    truth = labels.astype(int)
    best_frac = {}
    for snr in snrs:
        best_counts = np.zeros(family.p + 1)
        for trial in range(trials):
            noisy = inject_label_noise(labels, fraction, snr, seed + 31 * trial)
            correct = [
                int(np.sum(denoise_labels(family.spectrum(i), noisy, r, s, num_classes) == truth))
                for i in range(family.p + 1)
            ]
            best = max(correct)
            winners = [i for i, c in enumerate(correct) if c == best]
            for i in winners:
                best_counts[i] += 1.0 / len(winners)
        best_frac[snr] = (best_counts / trials).tolist()
    return best_frac


def planted_complex(g: WeightedGraph, fraction: float, seed: int = 0) -> SimplicialComplex:
    """Promote a random fraction of the closed triangles of g to 2-simplices."""
    if not 0 <= fraction <= 1:
        raise ComplexError(f"fraction must lie in [0, 1], got {fraction}")
    triples = enumerate_candidate_triangles(g, "closed")
    rng = np.random.default_rng(seed)
    m = int(round(fraction * len(triples)))
    chosen = [triples[i] for i in sorted(rng.choice(len(triples), size=m, replace=False))] if m else []
    return SimplicialComplex(g.vertices, g.edges, chosen)


def two_cluster_graph(
    n: int, p_in: float = 0.3, p_out: float = 0.02, seed: int = 0
) -> WeightedGraph:
    """Two dense unit-weight clusters with sparse cross edges.

    A spanning path per cluster and one bridge keep the graph connected.
    """
    if n < 4:
        raise ComplexError(f"need n >= 4, got {n}")
    rng = np.random.default_rng(seed)
    half = n // 2
    edges: dict = {}
    for i, j in itertools.combinations(range(n), 2):
        same = (i < half) == (j < half)
        if rng.random() < (p_in if same else p_out):
            edges[(i, j)] = 1.0
    for i in range(half - 1):
        edges[(i, i + 1)] = 1.0
    for i in range(half, n - 1):
        edges[(i, i + 1)] = 1.0
    edges[(half - 1, half)] = edges.get((half - 1, half), 1.0)
    return WeightedGraph(range(n), edges)
