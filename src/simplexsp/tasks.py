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

from . import _SOURCES
from .complex_core import ComplexError, SimplicialComplex, WeightedGraph, enumerate_candidate_triangles
from .spectral import Spectrum, eigendecompose
from .structure_learning import LaplacianFamily, _best_level, _low_band_residual

__all__ = list(_SOURCES["tasks"])


def compression_error(spectrum: Spectrum, signals: np.ndarray, r2: float) -> float:
    """Sum over signals of the l2 norm (not squared) of the residual after
    projecting onto the first max(1, round(r2 n)) eigenvectors."""
    return float(np.linalg.norm(_low_band_residual(spectrum, signals, r2), axis=0).sum())


def generate_bandlimited_set(
    spectrum: Spectrum, r: float, count: int, seed: int = 0
) -> np.ndarray:
    """Unit-norm signals drawn from the span of the first r-fraction of the
    eigenbasis, with standard normal coefficients."""
    if count < 1:
        raise ComplexError(f"count must be >= 1, got {count}")
    k = max(1, int(round(r * spectrum.n)))
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((k, count))
    sig = spectrum.lowest(k) @ coeff
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
    The level is chosen as by ``select_model``.  Every trial is drawn
    first; then each level is solved once and scores all of them.
    """
    if isinstance(source, Spectrum):
        draws = [(generate_bandlimited_set(source, r1, count, seed + 1000 + trial),
                  generate_bandlimited_set(source, r2, count, seed + 2000 + trial))
                 for trial in range(trials)]
    else:
        draws = [(np.asarray(source, dtype=float),) * 2]
    # [level, trial]: select_model's residual at r1 and the compression error at r2
    residual = np.empty((family.p + 1, len(draws)))
    error = np.empty_like(residual)
    for i, m in enumerate(family.levels()):
        spectrum = eigendecompose(m)
        for trial, (s1, s2) in enumerate(draws):
            residual[i, trial] = np.sum(_low_band_residual(spectrum, s1, r1) ** 2)
            error[i, trial] = compression_error(spectrum, s2, r2)
    rows = []
    for trial, (s1, _) in enumerate(draws):
        b = _best_level(residual[:, trial], s1)
        rows.append([trial, b, float(error[b, trial]), float(error[0, trial])])
    return rows


def generate_smooth_signals(
    spectrum: Spectrum, count: int, amplitude: float = 1.0, seed: int = 0
) -> np.ndarray:
    """Low-band signals (the lowest 10 % of the eigenbasis) plus white noise
    of scale 0.01, a stand-in for slowly varying sensor fields
    (temperature-like)."""
    rng = np.random.default_rng(seed)
    base = generate_bandlimited_set(spectrum, 0.1, count, seed)
    noise = 0.01 * rng.standard_normal(base.shape) / np.sqrt(spectrum.n)
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
    """``a`` is the largest high-frequency magnitude of the baselines and
    ``b`` that of the test signal, flagged when b/a > 1 + epsilon; S2 and S4
    leave both NaN and keep one verdict per level in ``per_level``.  For a
    test-signal matrix ``b`` and ``flagged`` hold one entry per column."""

    a: float
    b: float | np.ndarray
    flagged: bool | np.ndarray | None
    strategy: str = "S1"
    level: int | None = None
    per_level: list = field(default_factory=list)


def _single_verdict(spectrum, baselines, tests, r, epsilon, strategy="S1", level=None):
    cut = int(round(r * spectrum.n))  # 1-based: keep indices k > cut
    signals = np.column_stack([*baselines, tests])
    if cut >= spectrum.n:
        peaks = np.zeros(signals.shape[1])
    else:  # the high band needs a full spectrum
        peaks = np.abs(spectrum.lowest(spectrum.n)[:, cut:].T @ signals).max(axis=0)
    a = float(peaks[: len(baselines)].max())
    b = peaks[len(baselines):] if tests.ndim == 2 else float(peaks[-1])
    flagged = b > 0.0 if a == 0.0 else b / a > 1.0 + epsilon
    return AnomalyVerdict(a, b, flagged, strategy, level)


def _strategy_levels(strategy: str, p: int, level: int | None) -> tuple:
    """The levels a family strategy reads, ascending, and how many must flag:
    S1 reads level 0 and S3 ``level``, S2 and S4 every level; S4 flags when
    at least a third of them do, and S2 has no verdict (None)."""
    if strategy == "S1":
        return [0], 1
    if strategy == "S3":
        if level is None or not 0 <= level <= p:
            raise ComplexError(f"strategy S3 needs a level in 0..{p}, got {level}")
        return [level], 1
    if strategy in ("S2", "S4"):
        return range(p + 1), None if strategy == "S2" else -(-(p + 1) // 3)
    raise ComplexError(f"unknown strategy {strategy!r}")


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

    ``test_signal`` is one signal or a matrix of them, one per column.
    ``source`` is a Spectrum for single-operator use, or a LaplacianFamily
    for the family strategies, whose levels are solved on every call: S1
    uses level 0, S3 a fixed ``level`` in 0..p, S2 only reports the
    per-level verdicts (``flagged`` is None), S4 flags when at least a third
    of the levels flag individually.
    """
    baselines = [np.asarray(x, dtype=float) for x in baseline_signals]
    tests = np.asarray(test_signal, dtype=float)
    if isinstance(source, Spectrum):
        return _single_verdict(source, baselines, tests, r, epsilon, strategy, level)
    levels, need = _strategy_levels(strategy, source.p, level)
    walk = enumerate(itertools.islice(source.levels(), levels[-1] + 1))  # up to the last read
    per_level = [_single_verdict(eigendecompose(m), baselines, tests, r, epsilon, strategy, i)
                 for i, m in walk if i in levels]
    if strategy in ("S1", "S3"):
        return per_level[0]
    flagged = None if need is None else sum(v.flagged for v in per_level) >= need
    return AnomalyVerdict(np.nan, np.nan, flagged, strategy, None, per_level)


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
    and strategies must not repeat.  Every trial is drawn first; then each
    level a strategy reads is solved once and tests all of them.
    """
    for strat in strategies:
        if strat not in ("S1", "S3", "S4"):
            raise ComplexError(f"detection_rates needs strategies S1, S3 or S4, got {strat!r}")
    if len(set(magnitudes)) < len(magnitudes) or len(set(strategies)) < len(strategies):
        # a repeat would count its flags twice under one key
        raise ComplexError("detection_rates needs distinct magnitudes and strategies")
    rates = {(m, s): 0 for m in magnitudes for s in strategies}
    if not rates:  # no magnitude or no strategy: nothing to count
        return rates
    plan = {strat: _strategy_levels(strat, family.p, level) for strat in strategies}
    rng = np.random.default_rng(seed)
    draws = []
    for trial in range(trials):
        sigs = generate_smooth_signals(truth, 4, amplitude=amplitude, seed=seed + 10_000 + trial)
        vertex = int(rng.integers(0, truth.n))
        tests = np.column_stack(
            [perturb_node(sigs[:, 3], vertex, mag, seed + trial) for mag in magnitudes]
        )
        draws.append((sigs[:, :3].T, tests))
    flags = {}  # level -> [trial, magnitude] verdicts
    read = {i for levels, _ in plan.values() for i in levels}
    walk = enumerate(itertools.islice(family.levels(), max(read) + 1))  # up to the last read
    for i, spectrum in ((i, eigendecompose(m)) for i, m in walk if i in read):
        flags[i] = np.reshape(
            [_single_verdict(spectrum, base, tests, r, epsilon).flagged for base, tests in draws],
            (trials, len(magnitudes)),
        )
    for strat, (levels, need) in plan.items():
        hits = np.sum(sum(flags[i] for i in levels) >= need, axis=0)
        for mag, count in zip(magnitudes, hits):
            rates[(mag, strat)] = int(count)
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


def _denoise_cut(n: int, r: float, s: float, num_classes: int | None) -> int:
    """Validate the denoising parameters; the 1-based index of the first
    scaled coefficient, max(2, round(r n)), so the DC component is kept."""
    if not 0 < r < 1:
        raise ComplexError(f"r must lie in (0, 1), got {r}")
    if not 0 <= s <= 1:
        raise ComplexError(f"s must lie in [0, 1], got {s}")
    if num_classes is not None and num_classes < 1:
        raise ComplexError(f"num_classes must be >= 1, got {num_classes}")
    return max(2, int(round(r * n)))


def denoise_labels(
    spectrum: Spectrum,
    noisy_labels: np.ndarray,
    r: float,
    s: float,
    num_classes: int | None = None,
) -> np.ndarray:
    """Scale down high-frequency coefficients, invert, round and clamp.

    Coefficients from 1-based index max(2, round(r n)) on are scaled by s,
    which is s x + (1 - s) V V^T x over the kept columns V: a partial
    spectrum holding them is enough.  A label matrix is denoised column by
    column, each column's class count defaulting to its largest rounded label.
    """
    cut = _denoise_cut(spectrum.n, r, s, num_classes)
    noisy = np.asarray(noisy_labels, dtype=float)
    v = spectrum.lowest(cut - 1)
    recovered = s * noisy + (1 - s) * (v @ (v.T @ noisy))
    labels = np.rint(recovered).astype(int)
    if num_classes is None:
        num_classes = np.maximum(1, np.rint(noisy.max(axis=0)).astype(int))
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
    SNRs must not repeat.  Every SNR's trials are drawn first; then each
    level is solved once, for its kept band, and denoises them all, one
    trial per column."""
    if trials < 1:
        raise ComplexError(f"need at least one trial, got {trials}")
    if len(set(snrs)) < len(snrs):
        # the result is keyed by SNR: a repeat would run its trials twice
        raise ComplexError("denoise_best_fractions needs distinct SNRs")
    cut = _denoise_cut(family.graph.n, r, s, num_classes)
    noisy = [np.column_stack([inject_label_noise(labels, fraction, snr, seed + 31 * t)
                              for t in range(trials)])
             for snr in snrs]
    truth = labels.astype(int)[:, None]
    # correct[i, k, trial]: labels level i recovers in that trial of SNR k
    correct = np.array([
        [np.sum(denoise_labels(spectrum, x, r, s, num_classes) == truth, axis=0) for x in noisy]
        for spectrum in (eigendecompose(m, upto=cut - 1) for m in family.levels())
    ])
    best_frac = {}
    for k, snr in enumerate(snrs):
        best_counts = np.zeros(family.p + 1)
        for counts in correct[:, k].T:
            winners = np.flatnonzero(counts == counts.max())
            best_counts[winners] += 1.0 / len(winners)
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
