import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexsp
from simplexsp import SimplicialComplex, complex_laplacian, from_edge_list
from simplexsp.cli import main
from simplexsp.io import (
    ParseError,
    file_digest,
    load_complex,
    load_graph,
    load_matrix,
    load_points,
    load_signals,
    save_complex,
    save_matrix_csv,
    save_matrix_json,
    save_signals,
)

from conftest import random_metric_complex


TRIANGLE_JSON = {
    "vertices": [1, 2, 3, 4],
    "edges": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0], [3, 4, 2.0]],
    "simplices": [[1, 2, 3]],
}


class TestComplexIO:
    def test_edge_csv(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2,3.0\n2,3,4.0\n1,3,5.0\n")
        x = load_complex(p)
        assert x.edges == {(1, 2): 3.0, (2, 3): 4.0, (1, 3): 5.0}
        assert not x.simplices

    def test_edge_csv_header_skipped(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("u,v,w\n1,2,3.0\n")
        assert load_graph(p).edges == {(1, 2): 3.0}

    def test_edge_csv_default_weight(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2\n2,3\n")
        assert load_graph(p).edges == {(1, 2): 1.0, (2, 3): 1.0}

    def test_json_complex(self, tmp_path):
        p = tmp_path / "complex.json"
        p.write_text(json.dumps(TRIANGLE_JSON))
        x = load_complex(p)
        assert x.simplices == frozenset({(1, 2, 3)})
        assert x.edges[(3, 4)] == 2.0

    def test_face_closure_error(self, tmp_path):
        p = tmp_path / "bad.json"
        bad = dict(TRIANGLE_JSON, edges=[[1, 2, 1.0], [1, 3, 1.0]])
        p.write_text(json.dumps(bad))
        with pytest.raises(ParseError):
            load_complex(p)

    def test_non_positive_weight_error(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2,0.0\n")
        with pytest.raises(ParseError):
            load_complex(p)

    def test_malformed_row_error(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2,3.0\n1\n")
        with pytest.raises(ParseError):
            load_complex(p)

    def test_invert_similarity(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2,4.0\n")
        assert load_graph(p, invert_similarity=True).edges == {(1, 2): 0.25}

    def test_roundtrip(self, tmp_path, rng):
        x = random_metric_complex(rng, n=10, edge_prob=0.6, triangle_prob=0.7)
        p = tmp_path / "x.json"
        save_complex(x, p)
        y = load_complex(p)
        assert y.vertices == x.vertices
        assert y.simplices == x.simplices
        assert y.edges.keys() == x.edges.keys()
        for k in x.edges:
            assert y.edges[k] == pytest.approx(x.edges[k], rel=1e-15)


class TestSignalsAndMatrices:
    def test_signals_roundtrip(self, tmp_path, rng):
        sig = rng.standard_normal((6, 3))
        p = tmp_path / "s.csv"
        save_signals(sig, p, vertex_ids=["a", "b", "c"])
        header, loaded = load_signals(p)
        assert header == ["a", "b", "c"]
        np.testing.assert_array_equal(loaded, sig)

    def test_signals_no_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.5,2.5\n3.5,4.5\n")
        header, sig = load_signals(p)
        assert header is None
        np.testing.assert_array_equal(sig, [[1.5, 2.5], [3.5, 4.5]])

    def test_ragged_signals_error(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            load_signals(p)

    def test_matrix_csv_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((5, 5))
        p = tmp_path / "m.csv"
        save_matrix_csv(m, p)
        np.testing.assert_array_equal(load_matrix(p), m)

    def test_matrix_json_roundtrip(self, tmp_path, rng):
        x = random_metric_complex(rng, n=6)
        l = complex_laplacian(x)
        p = tmp_path / "m.json"
        save_matrix_json(l, p)
        np.testing.assert_array_equal(load_matrix(p), l.matrix)

    def test_matrix_json_shape_mismatch(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_points(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.0,0.0\n1.0,2.0\n")
        np.testing.assert_array_equal(load_points(p), [[0.0, 0.0], [1.0, 2.0]])


def write_triangle_complex(tmp_path):
    p = tmp_path / "complex.json"
    p.write_text(json.dumps(TRIANGLE_JSON))
    return p


class TestCli:
    def test_laplacian_csv_and_manifest(self, tmp_path):
        cx = write_triangle_complex(tmp_path)
        out = tmp_path / "lap.csv"
        rc = main(["laplacian", "--complex", str(cx), "--out", str(out)])
        assert rc == 0
        m = load_matrix(out)
        x = load_complex(cx)
        np.testing.assert_allclose(m, complex_laplacian(x).matrix, atol=1e-15)
        manifest = json.loads((tmp_path / "laplacian.manifest.json").read_text())
        assert manifest["command"] == "laplacian"
        assert str(cx) in manifest["input_digests"]

    def test_laplacian_deterministic_output(self, tmp_path):
        cx = write_triangle_complex(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["laplacian", "--complex", str(cx), "--out", str(out1)])
        main(["laplacian", "--complex", str(cx), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_spectrum(self, tmp_path):
        cx = write_triangle_complex(tmp_path)
        lap = tmp_path / "lap.csv"
        main(["laplacian", "--complex", str(cx), "--out", str(lap)])
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--laplacian", str(lap), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["eigenvalues"][0] == pytest.approx(0.0, abs=1e-10)

    def test_filter_band(self, tmp_path, rng):
        cx = write_triangle_complex(tmp_path)
        lap = tmp_path / "lap.csv"
        main(["laplacian", "--complex", str(cx), "--out", str(lap)])
        sig = tmp_path / "sig.csv"
        save_signals(rng.standard_normal((4, 2)), sig)
        out = tmp_path / "filtered.csv"
        rc = main(
            ["filter", "--laplacian", str(lap), "--signals", str(sig), "--band", "1:2", "--out", str(out)]
        )
        assert rc == 0
        _, filtered = load_signals(out)
        assert filtered.shape == (4, 2)

    def test_filter_empty_band_is_full_band(self, tmp_path):
        # like "1:4" here, and like ":", an empty range keeps every frequency
        cx = write_triangle_complex(tmp_path)
        lap = tmp_path / "lap.csv"
        main(["laplacian", "--complex", str(cx), "--out", str(lap)])
        sig = tmp_path / "sig.csv"
        save_signals(np.arange(4.0), sig)
        out = tmp_path / "filtered.csv"
        rc = main(["filter", "--laplacian", str(lap), "--signals", str(sig), "--band", "", "--out", str(out)])
        assert rc == 0
        _, filtered = load_signals(out)
        np.testing.assert_allclose(filtered[:, 0], np.arange(4.0), atol=1e-12)

    def test_filter_poly(self, tmp_path, rng):
        cx = write_triangle_complex(tmp_path)
        lap = tmp_path / "lap.csv"
        main(["laplacian", "--complex", str(cx), "--out", str(lap)])
        sig_arr = rng.standard_normal(4)
        sig = tmp_path / "sig.csv"
        save_signals(sig_arr, sig)
        out = tmp_path / "filtered.csv"
        rc = main(
            ["filter", "--laplacian", str(lap), "--signals", str(sig), "--poly", "1.0", "--out", str(out)]
        )
        assert rc == 0
        _, filtered = load_signals(out)
        m = load_matrix(lap)
        np.testing.assert_allclose(filtered[:, 0], m @ sig_arr, atol=1e-12)

    def test_learn_outputs(self, tmp_path, rng):
        x = random_metric_complex(rng, n=10, edge_prob=0.7, triangle_prob=1.0)
        gpath = tmp_path / "g.json"
        save_complex(SimplicialComplex(x.vertices, x.edges), gpath)
        sig = tmp_path / "sig.csv"
        save_signals(rng.standard_normal((10, 3)), sig)
        out = tmp_path / "fam"
        rc = main(
            ["learn", "--graph", str(gpath), "--signals", str(sig), "--p", "3",
             "--r1", "0.3", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        fam = json.loads((out / "family.json").read_text())
        assert fam["p"] == 3 and fam["seed"] == 7
        assert (out / "laplacian_00.csv").exists()
        assert (out / "laplacian_03.csv").exists()
        rows = (out / "residuals.csv").read_text().strip().splitlines()
        assert rows[0] == "level,residual,selected"
        assert len(rows) == 5

    def test_diagnose(self, tmp_path):
        cx = write_triangle_complex(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["diagnose", "--complex", str(cx), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["m1"] == 1
        assert report["k_max"] == 1
        assert report["theorem_certificate"] is True

    def test_fit_filter(self, tmp_path, rng):
        x = random_metric_complex(rng, n=8, edge_prob=0.7, triangle_prob=1.0)
        gpath = tmp_path / "g.json"
        save_complex(SimplicialComplex(x.vertices, x.edges), gpath)
        g = x.graph()
        x1 = rng.standard_normal(8)
        x2 = g.laplacian_matrix() @ x1
        sig = tmp_path / "sig.csv"
        save_signals(np.column_stack([x1, x2]), sig)
        out = tmp_path / "fit.json"
        rc = main(
            ["fit-filter", "--graph", str(gpath), "--signals", str(sig),
             "--degree", "1", "--p", "2", "--t-grid", "3", "--out", str(out)]
        )
        assert rc == 0
        fit = json.loads(out.read_text())
        assert fit["residual"] < 1e-8

    def test_compress_experiment(self, tmp_path, rng):
        x = random_metric_complex(rng, n=12, edge_prob=0.7, triangle_prob=1.0)
        gpath = tmp_path / "g.json"
        save_complex(SimplicialComplex(x.vertices, x.edges), gpath)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "graph": str(gpath), "p": 2, "trials": 2, "count": 4,
            "r1": 0.3, "seed": 1, "out_dir": str(tmp_path / "out"),
        }))
        rc = main(["compress", "--config", str(cfgp)])
        assert rc == 0
        table = (tmp_path / "out" / "compression.csv").read_text().splitlines()
        assert table[0] == "trial,selected_level,err_selected,err_level0"
        assert len(table) == 3
        summary = json.loads((tmp_path / "out" / "compression_summary.json").read_text())
        assert summary["trials"] == 2

    def test_compress_digests_signals(self, tmp_path, rng):
        gpath = tmp_path / "g.csv"
        gpath.write_text(SIX_VERTEX_EDGES)
        sig = tmp_path / "sig.csv"
        save_signals(rng.standard_normal((6, 3)), sig)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "graph": str(gpath), "signals": str(sig), "p": 2, "trials": 1, "count": 2,
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["compress", "--config", str(cfgp)]) == 0
        manifest = json.loads((tmp_path / "out" / "compress.manifest.json").read_text())
        assert manifest["input_digests"] == {
            str(gpath): file_digest(gpath), str(sig): file_digest(sig)
        }

    def test_detect_experiment(self, tmp_path, rng):
        x = random_metric_complex(rng, n=10, edge_prob=0.7, triangle_prob=1.0)
        gpath = tmp_path / "g.json"
        save_complex(SimplicialComplex(x.vertices, x.edges), gpath)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "graph": str(gpath), "p": 2, "trials": 3, "magnitudes": [10, 50],
            "strategies": ["S1", "S4"], "seed": 2, "out_dir": str(tmp_path / "out"),
        }))
        rc = main(["detect", "--config", str(cfgp)])
        assert rc == 0
        rows = (tmp_path / "out" / "detection.csv").read_text().strip().splitlines()
        assert rows[0] == "magnitude,strategy,rate"
        assert len(rows) == 5  # 2 magnitudes x 2 strategies

    def test_denoise_experiment(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "n": 20, "p": 2, "trials": 3, "snr_db": [0],
            "seed": 3, "out_dir": str(tmp_path / "out"),
        }))
        rc = main(["denoise", "--config", str(cfgp)])
        assert rc == 0
        rows = (tmp_path / "out" / "denoise.csv").read_text().strip().splitlines()
        assert rows[0] == "snr_db,L_X0,L_X1,L_X2"
        assert len(rows) == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["laplacian", "--complex", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_invalid_complex_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(TRIANGLE_JSON, edges=[[1, 2, 1.0]])))
        rc = main(["laplacian", "--complex", str(p), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_asymmetric_matrix_exit_3(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix_csv(np.array([[1.0, 2.0], [0.0, 1.0]]), p)
        rc = main(["spectrum", "--laplacian", str(p), "--out", str(tmp_path / "s.json")])
        assert rc == 3

    @pytest.mark.parametrize(
        "command, option",
        [
            ("spectrum", None),
            ("filter", ("--band", "0:3")),
            ("filter", ("--band", "2:1")),
            ("filter", ("--poly", "a,b")),
            ("filter", ("--poly", "nan")),
            ("filter", ("--poly", "inf")),
            ("filter", ("--poly", "1e400")),
        ],
        ids=["malformed-json", "band-below-1", "band-reversed", "poly-not-numeric",
             "poly-nan", "poly-inf", "poly-overflow"],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, command, option):
        cx = write_triangle_complex(tmp_path)
        lap = tmp_path / "lap.csv"
        main(["laplacian", "--complex", str(cx), "--out", str(lap)])
        out = tmp_path / "out"
        if command == "spectrum":
            bad = tmp_path / "bad.json"
            bad.write_text('{"n": 4, "rows": [')
            argv = ["spectrum", "--laplacian", str(bad), "--out", str(out)]
        else:
            sig = tmp_path / "sig.csv"
            save_signals(np.ones((4, 1)), sig)
            argv = ["filter", "--laplacian", str(lap), "--signals", str(sig), *option, "--out", str(out)]
        capsys.readouterr()
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err.startswith("simplexsp: ")


# two triangles sharing the edge 2-3, and a path 4-5-6 hanging off vertex 4
SIX_VERTEX_EDGES = "1,2,1.0\n1,3,1.0\n2,3,1.0\n2,4,1.0\n3,4,1.0\n4,5,1.0\n5,6,1.0\n"


def run_config(tmp_path, command, cfg):
    """Run an experiment command on the six-vertex graph; cfg may be any JSON value."""
    graph = tmp_path / "g.csv"
    graph.write_text(SIX_VERTEX_EDGES)
    if isinstance(cfg, dict):
        cfg = {"graph": str(graph), "p": 2, "trials": 1, "out_dir": str(tmp_path / "out"), **cfg}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfgp)])


class TestExperimentConfigs:
    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("detect", {"trials": 0}, "trials"),
            ("denoise", {"trials": 0}, "trials"),
            ("compress", {"p": "abc"}, "p"),
            ("detect", {"magnitudes": ["x"]}, "magnitudes"),
            ("compress", [1, 2], None),
            ("detect", {"p": 2.7}, "p"),
            ("detect", {"trials": 1.9}, "trials"),
            ("detect", {"p": True}, "p"),
            ("compress", {"invert_similarity": "false"}, "invert_similarity"),
            ("denoise", {"snr_db": [1.0, 1]}, "snr_db"),
        ],
        ids=["detect-zero-trials", "denoise-zero-trials", "compress-p-not-integer",
             "detect-magnitude-not-numeric", "config-not-an-object", "p-fractional",
             "trials-fractional", "p-boolean", "invert-similarity-string", "snr-repeated"],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, command, cfg, key):
        rc = run_config(tmp_path, command, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("simplexsp: ")
        if key is not None:
            assert f"config key {key!r}" in err

    @pytest.mark.parametrize(
        "cfg",
        [{"strategies": ["S1", "S2"]}, {"strategies": ["S3"], "s3_level": 9},
         {"strategies": ["S3"], "s3_level": -1},
         {"magnitudes": [50, 50.0], "trials": 2}, {"strategies": ["S1", "S1"], "trials": 2}],
        ids=["S2-has-no-verdict", "s3-level-above-p", "s3-level-negative",
             "magnitude-repeated", "strategy-repeated"],
    )
    def test_detect_strategy_exit_2(self, tmp_path, capsys, cfg):
        assert run_config(tmp_path, "detect", cfg) == 2
        assert capsys.readouterr().err.startswith("simplexsp: ")

    def test_manifest_records_raw_config(self, tmp_path):
        cfg = {"p": "2", "trials": 2.0, "magnitudes": [10], "extra": {"note": [1]}}
        assert run_config(tmp_path, "detect", cfg) == 0
        manifest = json.loads((tmp_path / "out" / "detect.manifest.json").read_text())
        assert manifest["config"] == {
            "graph": str(tmp_path / "g.csv"), "out_dir": str(tmp_path / "out"), **cfg
        }
        rows = (tmp_path / "out" / "detection.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[0] for row in rows[1:]] == ["10.0,S1", "10.0,S4"]


# wrong types and non-finite numbers, mixed into each key's plausible values
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-5, 5),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
)
FRACTIONS = st.floats(-0.5, 1.5)
DETECT_KEYS = {
    "trials": st.integers(-1, 3) | ODD_VALUES,
    "p": st.integers(-1, 3) | ODD_VALUES,
    "s3_level": st.integers(-2, 5) | ODD_VALUES,
    "strategies": st.lists(st.sampled_from(["S1", "S2", "S3", "S4", "S9"]), max_size=3) | ODD_VALUES,
    "magnitudes": st.lists(st.floats(-50, 50) | ODD_VALUES, max_size=3) | ODD_VALUES,
    "r": FRACTIONS | ODD_VALUES,
}
DENOISE_KEYS = {
    "trials": st.integers(-1, 3) | ODD_VALUES,
    "p": st.integers(-1, 3) | ODD_VALUES,
    "r": FRACTIONS | ODD_VALUES,
    "s": FRACTIONS | ODD_VALUES,
    "snr_db": st.lists(st.floats(-5, 5) | ODD_VALUES, max_size=2) | ODD_VALUES,
}
FUZZ_RUNS = st.one_of(
    st.tuples(st.just("filter"), st.sampled_from(["--band", "--poly"]),
              st.text(alphabet="0123456789:,.-+eEinfa ", max_size=8)),
    st.tuples(st.just("detect"), st.fixed_dictionaries({}, optional=DETECT_KEYS)),
    st.tuples(st.just("denoise"), st.fixed_dictionaries({}, optional=DENOISE_KEYS)),
)


@settings(max_examples=60, deadline=None)
@given(FUZZ_RUNS)
def test_cli_fuzz_exits_0_2_or_3(run):
    """No filter option or experiment config value makes the CLI raise."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if run[0] == "filter":
            _, option, text = run
            cx = write_triangle_complex(tmp)
            lap = tmp / "lap.csv"
            assert main(["laplacian", "--complex", str(cx), "--out", str(lap)]) == 0
            save_signals(np.ones((4, 1)), tmp / "sig.csv")
            rc = main(["filter", "--laplacian", str(lap), "--signals", str(tmp / "sig.csv"),
                       f"{option}={text}", "--out", str(tmp / "f.csv")])
        else:
            command, cfg = run
            rc = run_config(tmp, command, cfg)
        assert rc in (0, 2, 3)


def run_fresh(code):
    """Run Python code in a new interpreter that imports this simplexsp."""
    src = str(Path(simplexsp.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_scipy():
    proc = run_fresh("import simplexsp.cli, sys; print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scipy_commands_run_from_fresh_interpreter(tmp_path):
    # the two commands that import scipy when they need it
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps({"vertices": [1, 2, 3, 4],
                              "edges": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0], [3, 4, 1.0]],
                              "simplices": [[1, 2, 3]]}))
    graph = tmp_path / "g.csv"
    graph.write_text(SIX_VERTEX_EDGES)
    runs = [["diagnose", "--complex", str(cx), "--out", str(tmp_path / "report.json")],
            ["learn", "--graph", str(graph), "--p", "2", "--mode", "all",
             "--out", str(tmp_path / "learned")]]
    for argv in runs:
        proc = run_fresh(f"import sys; from simplexsp.cli import main; sys.exit(main({argv!r}))")
        assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sandwich"] is not None
    family = json.loads((tmp_path / "learned" / "family.json").read_text())
    assert len(family["batches"][0]) + len(family["batches"][1]) == 20  # C(6, 3)
