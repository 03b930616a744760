"""Fourier analysis on a simplicial complex.

Shows the graph Fourier transform induced by the generalized Laplacian,
bandpass filtering, polynomial filters, and sampling/reconstruction of a
bandlimited signal from a handful of vertices.
"""

import numpy as np

from simplexsp import (
    bandpass,
    complex_laplacian,
    downsample_reconstruct,
    eigendecompose,
    gft,
    igft,
    knn_graph,
    poly_filter,
    select_sample_vertices,
)
from simplexsp.complex_core import SimplicialComplex, enumerate_candidate_triangles

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(0)

# Build a complex from a random point cloud: kNN graph, then promote every
# pairwise-connected triple to a 2-simplex.
points = rng.random((30, 2))
g = knn_graph(points, k=4)
triangles = enumerate_candidate_triangles(g)
x = SimplicialComplex(range(30), g.edges, triangles)
print(f"Complex: {g.n} vertices, {len(g.edges)} edges, {len(triangles)} 2-simplices")

spec = eigendecompose(complex_laplacian(x))
print("Smallest five eigenvalues:", spec.eigenvalues[:5])

# Roundtrip and Parseval.
sig = rng.standard_normal(30)
err = np.abs(igft(spec, gft(spec, sig)) - sig).max()
print("\nGFT/IGFT roundtrip error:", err)
print("|x| vs |x^| :", np.linalg.norm(sig), np.linalg.norm(gft(spec, sig)))

# Low-pass the signal to its five smoothest modes (bands are 1-based).
low = bandpass(spec, range(1, 6), sig)
print("\nEnergy kept by the 5-band low-pass:",
      np.linalg.norm(low) ** 2 / np.linalg.norm(sig) ** 2)

# Polynomial (shift-invariant) filtering: a1 L + a2 L^2.
l = complex_laplacian(x)
y = poly_filter(l, [0.5, -0.1], sig)
print("\nPolynomial filter output norm:", np.linalg.norm(y))

# Sample a bandlimited signal at greedily chosen vertices and rebuild it.
band = range(1, 6)
truth = spec.eigenvectors[:, :5] @ rng.standard_normal(5)
verts = select_sample_vertices(spec, band)
print("\nSampling vertices chosen:", verts)
vidx = {v: i for i, v in enumerate(spec.vertices)}
samples = truth[[vidx[v] for v in verts]]
recovered = downsample_reconstruct(spec, band, verts, samples)
print("Reconstruction error from 5 samples:", np.abs(recovered - truth).max())
