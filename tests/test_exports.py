import ast
import importlib
import pkgutil
import tokenize
from collections import defaultdict
from pathlib import Path

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


PACKAGE = Path(simplexsp.__file__).parent
ROOT = PACKAGE.parent.parent


def _definitions(module: Path):
    """(name, first line, last line) of each module-level function, class and
    constant of a source file."""
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, first, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno, node.end_lineno


def test_every_module_level_name_is_referenced():
    """A function, class or constant that nothing names outside its own
    definition, in the package, the tests or the demos, and that the package
    map does not export, does nothing."""
    uses = defaultdict(list)  # identifier -> (file, line) of each occurrence
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    uses[tok.string].append((path, tok.start[0]))
    exported = {name for names in simplexsp._SOURCES.values() for name in names}
    unreferenced = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name, first, last in _definitions(module)
        if not (name.startswith("__") and name.endswith("__")) and name not in exported
        and all(path == module and first <= line <= last for path, line in uses[name])
    ]
    assert unreferenced == []
