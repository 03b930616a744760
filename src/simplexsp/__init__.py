"""Signal processing on weighted simplicial complexes.

Builds generalized Laplacians from star expansions with Gromov-product
weights, learns nested 2-complex structure on a graph, and runs spectral
tasks (compression, anomaly detection, label denoising) plus structural
diagnostics.

The public names load on first use: ``import simplexsp`` imports neither
numpy nor a submodule, and ``simplexsp.X`` imports only the submodule that
defines ``X``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, and the submodule's __all__;
# each submodule name is public too
_SOURCES = {
    "complex_core": (
        "ComplexError",
        "Hypergraph",
        "SimplicialComplex",
        "WeightedGraph",
        "connected_components",
        "enumerate_candidate_triangles",
        "from_edge_list",
        "from_hypergraph",
        "knn_graph",
        "maximal_simplices",
        "skeleton",
    ),
    "diagnostics": (
        "DiagnosticsReport",
        "DistinctiveResult",
        "SandwichBounds",
        "diagnostics_report",
        "distinctive_check",
        "interior_counts",
        "lemma2_audit",
        "sandwich_bounds",
        "shift_invariance_certificate",
    ),
    "laplacian": (
        "GeneralizedLaplacian",
        "StarExpansion",
        "complex_laplacian",
        "gromov_product",
        "is_graph_type",
        "shape_constant",
        "simplex_laplacian",
        "star_expansion",
        "two_simplex_closed_form",
    ),
    "spectral": (
        "FilterFit",
        "NumericalError",
        "Spectrum",
        "bandpass",
        "commutator_norm",
        "convolve",
        "downsample_reconstruct",
        "eigendecompose",
        "fit_continuous_filter",
        "gft",
        "igft",
        "poly_filter",
        "select_sample_vertices",
    ),
    "structure_learning": (
        "LaplacianFamily",
        "build_family",
        "family_manifest",
        "filtration_bands",
        "order_within_band",
        "partition_queue",
        "select_model",
    ),
    "tasks": (
        "AnomalyVerdict",
        "compression_error",
        "compression_trials",
        "denoise_best_fractions",
        "denoise_labels",
        "detect_anomaly",
        "detection_rates",
        "generate_bandlimited_set",
        "generate_smooth_signals",
        "inject_label_noise",
        "perturb_node",
        "planted_complex",
        "two_cluster_graph",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_SOURCES, *_HOME])


def __getattr__(name):
    """Import the submodule behind a public name on first access (PEP 562)."""
    if name in _SOURCES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
