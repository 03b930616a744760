"""Signal processing on weighted simplicial complexes.

Builds generalized Laplacians from star expansions with Gromov-product
weights, learns nested 2-complex structure on a graph, and runs spectral
tasks (compression, anomaly detection, label denoising) plus structural
diagnostics.
"""

__version__ = "0.1.0"

from .complex_core import (
    ComplexError,
    Hypergraph,
    SimplicialComplex,
    WeightedGraph,
    connected_components,
    enumerate_candidate_triangles,
    from_edge_list,
    from_hypergraph,
    knn_graph,
    maximal_simplices,
    skeleton,
)
from .diagnostics import (
    DiagnosticsReport,
    diagnostics_report,
    distinctive_check,
    interior_counts,
    lemma2_audit,
    sandwich_bounds,
    shift_invariance_certificate,
)
from .laplacian import (
    GeneralizedLaplacian,
    StarExpansion,
    complex_laplacian,
    gromov_product,
    is_graph_type,
    shape_constant,
    simplex_laplacian,
    star_expansion,
    two_simplex_closed_form,
)
from .spectral import (
    FilterSpec,
    NumericalError,
    Spectrum,
    bandpass,
    commutator_norm,
    convolve,
    downsample_reconstruct,
    eigendecompose,
    fit_continuous_filter,
    gft,
    igft,
    poly_filter,
    select_sample_vertices,
)
from .structure_learning import (
    LaplacianFamily,
    build_family,
    family_manifest,
    filtration_bands,
    order_within_band,
    partition_queue,
    select_model,
)
from .tasks import (
    AnomalyVerdict,
    compression_error,
    compression_trials,
    denoise_best_fractions,
    denoise_labels,
    detect_anomaly,
    detection_rates,
    generate_bandlimited_set,
    generate_smooth_signals,
    inject_label_noise,
    perturb_node,
    planted_complex,
    two_cluster_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
