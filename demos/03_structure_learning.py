"""Learning a nested family of 2-complexes from a graph.

Only the 1-skeleton is observed.  The pipeline enumerates candidate
triangles, orders them by size inside filtration bands, partitions them
into batches, and produces Laplacians L_{X_0} (the plain graph) through
L_{X_p} (all triangles filled).  Model selection then picks the level
whose low band best compresses a set of signals.
"""

import numpy as np

from simplexsp import (
    build_family,
    complex_laplacian,
    compression_error,
    eigendecompose,
    generate_bandlimited_set,
    planted_complex,
    select_model,
)
from simplexsp.complex_core import WeightedGraph
from simplexsp.structure_learning import family_manifest

rng = np.random.default_rng(1)

# A sparse random graph with unit weights.
n = 80
mask = rng.random((n, n)) < 0.08
edges = {(i, j): 1.0 for i in range(n) for j in range(i + 1, n) if mask[i, j]}
g = WeightedGraph(range(n), edges)

family = build_family(g, p=10, seed=1)
manifest = family_manifest(family)
print(f"Graph: {n} vertices, {len(edges)} edges")
print(f"Family: {family.p + 1} levels,",
      manifest['levels'][-1]['num_triangles'], "candidate triangles in total")

print("\nMedian eigenvalue per level (tends to drift down as triangles fill in):")
# one walk over the levels: each step adds the next batch to the same array
for i, m in enumerate(family.levels()):
    med = float(np.median(eigendecompose(m).eigenvalues))
    print(f"  L_X{i:<2d}  {med:.4f}")

# Pretend the world is the fully filled complex, generate smooth signals
# from its low band, and ask select_model to find that structure again.
truth = planted_complex(g, 1.0, seed=1)
truth_spec = eigendecompose(complex_laplacian(truth))
signals = generate_bandlimited_set(truth_spec, 0.3, 25, seed=7)

level, residuals = select_model(family, signals, r1=0.3)
print("\nPer-level projection residuals:")
for i, r in enumerate(residuals):
    marker = "  <- selected" if i == level else ""
    print(f"  L_X{i:<2d}  {r:.6f}{marker}")

err_sel = compression_error(eigendecompose(family.laplacian(level)), signals, 0.3)
err_0 = compression_error(eigendecompose(family.laplacian(0)), signals, 0.3)
print(f"\nCompression error: level {level} = {err_sel:.4f}, level 0 = {err_0:.4f}")
print(f"Gain over the plain graph: {100 * (1 - err_sel / err_0):.1f}%")
