"""Structural diagnostics plus the two signal tasks.

First inspects a small complex: interior-vertex counts, distinctive
2-simplices, the non-shift-invariance certificate, and the spectral
sandwich between the complex Laplacian and its 1-skeleton.  Then runs
anomaly detection and label denoising end to end.
"""

import numpy as np

from simplexsp import (
    SimplicialComplex,
    build_family,
    complex_laplacian,
    denoise_labels,
    detect_anomaly,
    diagnostics_report,
    eigendecompose,
    generate_smooth_signals,
    inject_label_noise,
    perturb_node,
    planted_complex,
    two_cluster_graph,
)
from simplexsp.complex_core import WeightedGraph

# --- diagnostics on two edge-joined triangles with antennas -----------------
edges = {
    e: 1.0
    for e in [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (1, 6), (6, 8), (4, 7)]
}
x = SimplicialComplex(range(1, 9), edges, [(1, 2, 3), (3, 4, 5)])
rep = diagnostics_report(x)
print("Interior counts (m1..m4):", (rep.m1, rep.m2, rep.m3, rep.m4))
print("Distinctive direction:", rep.distinctive)
print("Non-shift-invariance certificate:", rep.theorem_certificate)
print("Normalized commutator |L_X L_X1 - L_X1 L_X|:", f"{rep.commutator:.3e}")
if rep.sandwich is not None:
    sb = rep.sandwich
    print(f"Spectral sandwich: alpha={sb.alpha:.4f}, beta={sb.beta:.4f} "
          f"(claimed [{sb.claimed_lower:.4f}, {sb.claimed_upper:.4f}])")

# --- anomaly detection -------------------------------------------------------
rng = np.random.default_rng(4)
n = 60
mask = rng.random((n, n)) < 0.25
g = WeightedGraph(range(n), {(i, j): 1.0 for i in range(n) for j in range(i + 1, n) if mask[i, j]})
family = build_family(g, p=4, seed=4)
truth_spec = eigendecompose(complex_laplacian(planted_complex(g, 0.5, seed=4)))

print("\nAnomaly detection (single spike on a smooth field):")
sigs = generate_smooth_signals(truth_spec, 4, amplitude=50.0, seed=11)
baselines = [sigs[:, j] for j in range(3)]
for mag in (0.0, 15.0, 40.0):
    test = perturb_node(sigs[:, 3], 10, mag, seed=11)
    v1 = detect_anomaly(family, baselines, test, r=0.8, epsilon=0.05, strategy="S1")
    v4 = detect_anomaly(family, baselines, test, r=0.8, epsilon=0.05, strategy="S4")
    print(f"  magnitude {mag:5.1f}:  S1 flagged={v1.flagged}  S4 flagged={v4.flagged}")

# --- label denoising ---------------------------------------------------------
print("\nLabel denoising on a two-cluster graph:")
g2 = two_cluster_graph(100, seed=9)
fam2 = build_family(g2, p=6, seed=9)
labels = np.array([1.0 if v < 50 else 2.0 for v in range(100)])
noisy = inject_label_noise(labels, 0.6, 0.0, seed=9)
errors_noisy = int(np.sum(noisy != labels))
print(f"  noisy labels wrong at {errors_noisy}/100 vertices")
for i, m in enumerate(fam2.levels()):
    cleaned = denoise_labels(eigendecompose(m), noisy, r=0.01, s=0.9, num_classes=2)
    wrong = int(np.sum(cleaned != labels.astype(int)))
    print(f"  L_X{i}: {wrong}/100 wrong after denoising")
