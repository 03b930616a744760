import importlib
import pkgutil

import pytest

import simplexsp

MODULES = ["simplexsp", *(m.name for m in pkgutil.iter_modules(simplexsp.__path__, "simplexsp."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is deleted breaks
    ``from module import *``."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# the package's public names; it loads the submodule behind each on first use
PUBLIC = [
    "AnomalyVerdict", "ComplexError", "DiagnosticsReport", "DistinctiveResult", "FilterFit",
    "GeneralizedLaplacian", "Hypergraph", "LaplacianFamily", "NumericalError", "SandwichBounds",
    "SimplicialComplex", "Spectrum", "StarExpansion", "WeightedGraph", "bandpass",
    "build_family", "commutator_norm",
    "complex_core", "complex_laplacian", "compression_error", "compression_trials",
    "connected_components", "convolve", "denoise_best_fractions", "denoise_labels",
    "detect_anomaly", "detection_rates", "diagnostics", "diagnostics_report",
    "distinctive_check", "downsample_reconstruct", "eigendecompose",
    "enumerate_candidate_triangles", "family_manifest", "filtration_bands",
    "fit_continuous_filter", "from_edge_list", "from_hypergraph", "generate_bandlimited_set",
    "generate_smooth_signals", "gft", "gromov_product", "igft", "inject_label_noise",
    "interior_counts", "is_graph_type", "knn_graph", "laplacian", "lemma2_audit",
    "maximal_simplices", "order_within_band", "partition_queue", "perturb_node",
    "planted_complex", "poly_filter", "sandwich_bounds", "select_model",
    "select_sample_vertices", "shape_constant", "shift_invariance_certificate",
    "simplex_laplacian", "skeleton", "spectral", "star_expansion", "structure_learning",
    "tasks", "two_cluster_graph", "two_simplex_closed_form",
]


def test_package_exports_are_pinned_and_listed():
    assert simplexsp.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(simplexsp))
    with pytest.raises(AttributeError):
        simplexsp.no_such_name


@pytest.mark.parametrize("module", sorted(simplexsp._SOURCES))
def test_module_all_is_its_package_entry(module):
    """The package map is the only list of a submodule's public names."""
    assert importlib.import_module(f"simplexsp.{module}").__all__ == list(simplexsp._SOURCES[module])


@pytest.mark.parametrize("name", ["DistinctiveResult", "FilterFit", "SandwichBounds"])
def test_result_types_are_exported(name):
    # the types that distinctive_check, fit_continuous_filter and sandwich_bounds return
    assert isinstance(getattr(simplexsp, name), type)
