import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import simplexsp
from simplexsp import SimplicialComplex, complex_laplacian, from_edge_list, knn_graph
from simplexsp import cli, commands, structure_learning
from simplexsp.cli import BANDS_MAX, P_MAX, T_GRID_MAX, build_parser, main
from simplexsp.spectral import FilterFit
from simplexsp.io import (
    ParseError,
    file_digest,
    load_complex,
    load_graph,
    load_matrix,
    load_signals,
    save_complex,
    save_matrix_csv,
    save_matrix_json,
    save_signals,
)

from conftest import LENGTHS, random_complexes, random_metric_complex, traced
from oracles import save_matrix_csv_savetxt


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

    @pytest.mark.parametrize("header", ["source,target", "u,v,w"])
    def test_edge_csv_header_after_blank_lines(self, tmp_path, header):
        p = tmp_path / "edges.csv"
        p.write_text(f"\n , \n{header}\n1,2\n")
        assert load_graph(p).edges == {(1, 2): 1.0}

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

    def test_json_conflicting_duplicate_edge_error(self, tmp_path):
        p = tmp_path / "dup.json"
        p.write_text(json.dumps({"vertices": [1, 2, 3],
                                 "edges": [[1, 2, 1.0], [1, 2, 2.0], [2, 3, 1.0]]}))
        with pytest.raises(ParseError) as err:
            load_complex(p)
        assert str(err.value) == f"{p} edge 1: conflicting duplicate edge 1,2"
        # a reversed repeat is the same edge, as it is in CSV
        p.write_text(json.dumps({"vertices": [1, 2, 3],
                                 "edges": [[1, 2, 1.0], [2, 1, 2.0], [2, 3, 1.0]]}))
        with pytest.raises(ParseError) as err:
            load_complex(p)
        assert str(err.value) == f"{p} edge 1: conflicting duplicate edge 2,1"
        # an equal repeat loads, as it does from CSV
        p.write_text(json.dumps({"vertices": [1, 2, 3],
                                 "edges": [[1, 2, 1.0], [1, 2, 1.0], [2, 3, 1.0]]}))
        assert load_complex(p).edges == {(1, 2): 1.0, (2, 3): 1.0}
        p.write_text(json.dumps({"vertices": [1, 2, 3],
                                 "edges": [[1, 2, 1.0], [2, 1, 1.0], [2, 3, 1.0]]}))
        assert load_complex(p).edges == {(1, 2): 1.0, (2, 3): 1.0}
        p.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 1, 1.0]]}))
        with pytest.raises(ParseError) as err:
            load_complex(p)
        assert str(err.value) == f"{p}: self-loop at vertex 1"

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

    @pytest.mark.parametrize("text, problem", [
        ("1,2,3.0\n2,3,heavy\n", ":2: bad weight 'heavy'"),
        ("1,2\n\n3,3\n", ":3: self-loop at 3"),
        ("1,2,3.0\n2,1,4.0\n", ":2: conflicting duplicate edge 2,1"),
    ], ids=["bad-weight", "self-loop", "reversed-conflict"])
    def test_edge_csv_error_names_its_row(self, tmp_path, text, problem):
        p = tmp_path / "edges.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_complex(p)
        assert str(err.value) == f"{p}{problem}"

    @pytest.mark.parametrize("name, text, where", [
        ("edges.csv", "1,2,4.0\n2,3,0\n", ":2"),
        ("c.json", json.dumps({"vertices": [1, 2], "edges": [[1, 2, 0.0]]}), " edge 0"),
    ], ids=["csv", "json"])
    def test_invert_zero_similarity_error(self, tmp_path, name, text, where):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_complex(p, invert_similarity=True)
        assert str(err.value) == f"{p}{where}: cannot invert non-positive similarity 0.0"

    def test_invalid_json_complex_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"vertices": [')
        with pytest.raises(ParseError, match=r"c\.json: invalid JSON \("):
            load_complex(p)

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
    def test_file_digest_sha256_vector(self, tmp_path):
        p = tmp_path / "abc"
        p.write_bytes(b"abc")
        assert file_digest(p) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

    def test_signals_roundtrip(self, tmp_path, rng):
        sig = rng.standard_normal((6, 3))
        p = tmp_path / "s.csv"
        save_signals(sig, p)
        np.testing.assert_array_equal(load_signals(p), sig)

    def test_signals_header_after_blank_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("\n\na,b\n1.5,2.5\n")
        np.testing.assert_array_equal(load_signals(p), [[1.5, 2.5]])

    def test_signals_no_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.5,2.5\n3.5,4.5\n")
        np.testing.assert_array_equal(load_signals(p), [[1.5, 2.5], [3.5, 4.5]])

    def test_ragged_signals_error(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            load_signals(p)

    @pytest.mark.parametrize("text, problem", [
        ("a,b\n1.0,2.0\n3.0,x\n", ":3: non-numeric value in ['3.0', 'x']"),
        ("\na,b\n\n", ": no data rows"),
    ], ids=["later-row-not-numeric", "header-only"])
    def test_signals_error_names_the_problem(self, tmp_path, text, problem):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_signals(p)
        assert str(err.value) == f"{p}{problem}"

    def test_matrix_csv_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((5, 5))
        p = tmp_path / "m.csv"
        save_matrix_csv(m, p)
        np.testing.assert_array_equal(load_matrix(p), m)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
        # zeros of both signs among subnormal, huge, infinite and NaN entries
        elements=st.sampled_from([0.0, -0.0]) | st.floats(),
    ))
    def test_matrix_csv_matches_savetxt(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp) / "ours.csv", Path(tmp) / "oracle.csv"
            save_matrix_csv(m, ours)
            save_matrix_csv_savetxt(m, oracle)
            assert ours.read_bytes() == oracle.read_bytes()

    def test_matrix_json_roundtrip(self, tmp_path, rng):
        x = random_metric_complex(rng, n=6)
        l = complex_laplacian(x)
        p = tmp_path / "m.json"
        save_matrix_json(l, p)
        np.testing.assert_array_equal(load_matrix(p), l.matrix)

    def test_matrix_json_shape_mismatch(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ParseError) as err:
            load_matrix(p)
        assert str(err.value) == f"{p}: rows do not match declared n=3"

    def test_points(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0.0,0.0\n1.0,2.0\n")
        np.testing.assert_array_equal(load_signals(p), [[0.0, 0.0], [1.0, 2.0]])

    def test_points_header_after_blank_lines(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text(" , \nx,y\n0.0,0.0\n1.0,2.0\n")
        np.testing.assert_array_equal(load_signals(p), [[0.0, 0.0], [1.0, 2.0]])

    def test_points_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0.0,0.0\n\n , \n1.0,2.0\n\n")
        np.testing.assert_array_equal(load_signals(p), [[0.0, 0.0], [1.0, 2.0]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_points_non_finite_refused(self, tmp_path, value):
        p = tmp_path / "pts.csv"
        p.write_text(f"x,y\n0.0,0.0\n\n1.0,{value}\n")
        with pytest.raises(ParseError, match="pts.csv:4: non-finite value"):
            load_signals(p)


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
        filtered = load_signals(out)
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
        filtered = load_signals(out)
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
        filtered = load_signals(out)
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

    @pytest.mark.parametrize("r1", ["0", "-0.5", "1.5", "nan"])
    def test_learn_bad_r1_writes_nothing(self, tmp_path, capsys, r1):
        graph, sig, out = tmp_path / "g.csv", tmp_path / "sig.csv", tmp_path / "out"
        graph.write_text(SIX_VERTEX_EDGES)
        save_signals(np.ones((6, 2)), sig)
        rc = main(["learn", "--graph", str(graph), "--signals", str(sig), "--p", "2",
                   "--r1", r1, "--out", str(out)])
        assert rc == 2
        assert "--r1" in capsys.readouterr().err
        assert not (out / "family.json").exists() and not list(out.glob("laplacian_*.csv"))

    def test_fit_filter_degree_up_to_vertex_count(self, tmp_path, rng):
        graph, sig, out = tmp_path / "g.csv", tmp_path / "sig.csv", tmp_path / "fit.json"
        graph.write_text(SIX_VERTEX_EDGES)
        save_signals(rng.standard_normal((6, 2)), sig)
        assert main(["fit-filter", "--graph", str(graph), "--signals", str(sig), "--p", "2",
                     "--degree", "6", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["coeffs"]) == 6

    def test_learn_negative_seed_exit_2(self, tmp_path, capsys):
        # numpy's generators refuse a negative seed; the flag is checked first
        graph, out = tmp_path / "g.csv", tmp_path / "out"
        graph.write_text(SIX_VERTEX_EDGES)
        assert main(["learn", "--graph", str(graph), "--p", "2", "--seed", "-1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("simplexsp: --seed -1: ")
        assert not out.exists()

    def test_learn_huge_seed_exit_2(self, tmp_path, capsys):
        # an int too large for a float is refused, as a config file's seed is
        graph, out, seed = tmp_path / "g.csv", tmp_path / "out", "1" + "0" * 400
        graph.write_text(SIX_VERTEX_EDGES)
        assert main(["learn", "--graph", str(graph), "--p", "2", "--seed", seed,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"simplexsp: --seed {seed}: ")
        assert not out.exists()

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

    # the degree is bounded by the six vertices once the graph is read;
    # 100000 would ask for a 75 GiB Gram matrix.  The t grid is bounded
    # before anything is read, so no grid is allocated
    @pytest.mark.parametrize("flag, value", [("--degree", "0"), ("--degree", "-1"),
                                             ("--t-grid", "1"), ("--t-grid", "0"),
                                             ("--t-grid", str(T_GRID_MAX + 1)),
                                             ("--t-grid", str(10**100)),
                                             ("--degree", "7"), ("--degree", "100000"),
                                             ("--degree", "1" + "0" * 400),
                                             ("--seed", "-1"), ("--seed", "1" + "0" * 400)])
    def test_fit_filter_bad_flag_exit_2(self, tmp_path, capsys, flag, value):
        graph, sig, out = tmp_path / "g.csv", tmp_path / "sig.csv", tmp_path / "fit.json"
        graph.write_text(SIX_VERTEX_EDGES)
        save_signals(np.ones((6, 2)), sig)
        rc = main(["fit-filter", "--graph", str(graph), "--signals", str(sig), "--p", "2",
                   flag, value, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"simplexsp: {flag} {value}: ")
        assert not out.exists() and not (tmp_path / "fit-filter.manifest.json").exists()

    def test_fit_filter_peak_memory_does_not_grow_with_p(self, tmp_path):
        # the fit holds two levels at a time, not one per level
        rng = np.random.default_rng(7)
        g = knn_graph(rng.standard_normal((200, 2)), 8)
        graph, sig, out = tmp_path / "g.json", tmp_path / "sig.csv", tmp_path / "fit.json"
        save_complex(SimplicialComplex(g.vertices, g.edges), graph)
        save_signals(rng.standard_normal((g.n, 2)), sig)
        argv = ["fit-filter", "--graph", str(graph), "--signals", str(sig), "--t-grid", "2",
                "--degree", "2", "--out", str(out), "--p"]
        assert main([*argv, "2"]) == 0  # loads the modules and fills the solvers' caches
        peak = {p: traced(lambda: main([*argv, str(p)]))[1] for p in (2, 12)}
        assert peak[12] - peak[2] < 8 * g.n**2

    def test_fit_filter_t_grid_bound_accepted(self, tmp_path, monkeypatch):
        # the largest grid reaches the fit; a stand-in fit keeps it unallocated
        seen = []

        def fit(levels, x1, x2, b, t_grid):
            seen.append(t_grid)
            return FilterFit(0, 1.0, np.zeros(b), 0.0)

        monkeypatch.setattr(commands, "fit_continuous_filter", fit)
        graph, sig, out = tmp_path / "g.csv", tmp_path / "sig.csv", tmp_path / "fit.json"
        graph.write_text(SIX_VERTEX_EDGES)
        save_signals(np.ones((6, 2)), sig)
        assert main(["fit-filter", "--graph", str(graph), "--signals", str(sig), "--p", "2",
                     "--t-grid", str(T_GRID_MAX), "--out", str(out)]) == 0
        assert seen == [T_GRID_MAX]

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

    @pytest.mark.parametrize("option", [None, ("--band", "1:2"), ("--poly", "0.5")],
                             ids=["spectrum", "filter-band", "filter-poly"])
    def test_non_finite_matrix_exit_3(self, tmp_path, option):
        lap = tmp_path / "m.csv"
        save_matrix_csv(np.array([[1.0, np.nan], [np.nan, 1.0]]), lap)
        if option is None:
            argv = ["spectrum", "--laplacian", str(lap), "--out", str(tmp_path / "s.json")]
        else:
            sig = tmp_path / "sig.csv"
            save_signals(np.ones((2, 1)), sig)
            argv = ["filter", "--laplacian", str(lap), "--signals", str(sig), *option,
                    "--out", str(tmp_path / "f.csv")]
        assert main(argv) == 3
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("option", [None, ("--band", "1:2"), ("--poly", "0.5")],
                             ids=["spectrum", "filter-band", "filter-poly"])
    @pytest.mark.parametrize("text, problem", [("", "no matrix rows"),
                                               ("1,0\n0,1\n0,0\n", "need a square matrix, got shape (3, 2)"),
                                               ("1,0,0\n0,1,0\n", "need a square matrix, got shape (2, 3)")],
                             ids=["empty", "3x2", "2x3"])
    def test_empty_or_non_square_matrix_exit_2(self, tmp_path, capsys, option, text, problem):
        lap = tmp_path / "m.csv"
        lap.write_text(text)
        out = tmp_path / "out"
        if option is None:
            argv = ["spectrum", "--laplacian", str(lap), "--out", str(out)]
        else:
            sig = tmp_path / "sig.csv"
            save_signals(np.ones((3, 1)), sig)
            argv = ["filter", "--laplacian", str(lap), "--signals", str(sig), *option,
                    "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning included
            assert main(argv) == 2
        assert capsys.readouterr().err == f"simplexsp: {lap}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, data, problem", [
        ("laplacian", {"edges": [[1, 2, 1.0]]}, ": missing key 'vertices'"),
        ("laplacian", [1, 2], ": a complex is a JSON object"),
        ("laplacian", {"vertices": [1, 2], "edges": [[1, 2]]}, " edge 0: expected [u, v, w], got [1, 2]"),
        ("spectrum", {"rows": [[1.0]]}, ": missing key 'n'"),
        ("spectrum", [[1.0]], ": a matrix is a JSON object"),
        ("laplacian", {"vertices": "abc", "edges": [["a", "b", 1]]},
         ": 'vertices' must be a JSON array, got str"),
        ("laplacian", {"vertices": 5}, ": 'vertices' must be a JSON array, got int"),
        ("laplacian", {"vertices": [1, 2], "edges": {"1": 2}},
         ": 'edges' must be a JSON array, got dict"),
        ("laplacian", {"vertices": [1, 2], "edges": [[1, 2, True]]},
         " edge 0: the weight True is not a number"),
        ("laplacian", {**TRIANGLE_JSON, "simplices": "123"},
         ": 'simplices' must be a JSON array, got str"),
        ("laplacian", {**TRIANGLE_JSON, "simplices": ["123"]},
         " simplex 0: expected a JSON array, got '123'"),
        ("laplacian", {**TRIANGLE_JSON, "simplices": [[1, 2, 9]]},
         ": simplex (1, 2, 9) references unknown vertex 9"),
        ("spectrum", {"n": True, "rows": [[1.0]]}, ": 'n' must be a count, got True"),
        ("spectrum", {"n": 1, "rows": "1"}, ": 'rows' must be a JSON array, got str"),
        ("laplacian", {"vertices": [1, 2], "edges": [[1, 2, "1.5"]]},
         " edge 0: the weight '1.5' is not a number"),
        ("laplacian", {"vertices": [1, 2, 3], "edges": [[1, 2, 1.0], [2, 3, None]]},
         " edge 1: the weight None is not a number"),
        ("laplacian", {"vertices": [1, 2], "edges": [[1, 2, 10**400]]},
         ": int too large to convert to float"),
        ("spectrum", {"n": 1.0, "rows": [[True]]}, ": 'n' must be a count, got 1.0"),
        ("spectrum", {"n": 1, "rows": [[True]]}, " row 0: the entry True is not a number"),
        ("spectrum", {"n": 2, "rows": [[1, "2"], ["2", 1]]}, " row 0: the entry '2' is not a number"),
        ("spectrum", {"n": 2, "rows": [[1, -1], [None, 1]]}, " row 1: the entry None is not a number"),
        ("spectrum", {"n": 2, "rows": [1, 2]}, " row 0: expected a JSON array, got 1"),
        ("spectrum", {"n": 1, "rows": [[10**400]]}, ": int too large to convert to float"),
    ], ids=["no-vertices", "complex-list", "two-field-edge", "no-n", "matrix-list",
            "vertices-string", "vertices-number", "edges-object", "boolean-weight",
            "simplices-string", "simplex-string", "unknown-simplex-vertex", "boolean-n",
            "rows-string", "string-weight", "null-weight", "huge-weight", "float-n",
            "boolean-entry", "string-entry", "null-entry", "number-row", "huge-entry"])
    def test_json_input_error_names_the_problem(self, tmp_path, capsys, command, data, problem):
        p = tmp_path / "in.json"
        p.write_text(json.dumps(data))
        flag = "--complex" if command == "laplacian" else "--laplacian"
        assert main([command, flag, str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"simplexsp: {p}{problem}\n"

    def test_diagnose_one_vertex(self, tmp_path):
        cx = tmp_path / "c.json"
        cx.write_text(json.dumps({"vertices": [0], "edges": [], "simplices": []}))
        out = tmp_path / "d.json"
        assert main(["diagnose", "--complex", str(cx), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["sandwich"] is None

    @pytest.mark.parametrize("text", ["1e200,1e200\n0,1e200\n", "1e308,-1e308\n-1e308,1e308\n"],
                             ids=["asymmetric", "symmetric"])
    def test_overflowing_matrix_exit_3(self, tmp_path, capsys, text):
        lap = tmp_path / "m.csv"
        lap.write_text(text)
        out = tmp_path / "s.json"
        assert main(["spectrum", "--laplacian", str(lap), "--out", str(out)]) == 3
        assert not out.exists()
        # the failure line is all: the overflow itself warns nothing
        assert capsys.readouterr().err == "simplexsp: numerical failure: matrix norm is not finite\n"

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"),
         "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"),
    ])
    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch, exc, message):
        # an allocation no flag bound foresees fails as one line, not a traceback
        def spectrum(args):
            raise exc

        monkeypatch.setitem(commands.COMMANDS, "spectrum", spectrum)
        lap = tmp_path / "m.csv"
        lap.write_text("1,-1\n-1,1\n")
        out = tmp_path / "s.json"
        assert main(["spectrum", "--laplacian", str(lap), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"simplexsp: numerical failure: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("length", [1e-170, 1e-100, 1e150, 1e200])
    def test_huge_or_tiny_lengths_keep_unit_verdicts(self, tmp_path, capsys, length):
        # the commutator's squares overflow or underflow at these scales
        reports = []
        for w in (1.0, length):
            cx = tmp_path / "c.json"
            edges = [[1, 2, w], [1, 3, w], [2, 3, w], [3, 4, w]]
            cx.write_text(json.dumps(dict(TRIANGLE_JSON, edges=edges)))
            out = tmp_path / f"d{w}.json"
            assert main(["diagnose", "--complex", str(cx), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        unit, scaled = reports
        assert capsys.readouterr().err == ""
        assert (unit["distinctive"], unit["theorem_certificate"]) == ("X1_minus_X", True)
        for key in ("distinctive", "theorem_certificate", "graph_type", "prop1_conditions"):
            assert scaled[key] == unit[key]
        assert scaled["commutator"] == pytest.approx(unit["commutator"], rel=1e-12)
        assert len(scaled["difference_ratio_samples"]) == len(unit["difference_ratio_samples"]) == 5

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
MISSING_GRAPH = "no-such-dir/missing.csv"  # a graph path that does not exist


def run_config(tmp_path, command, cfg):
    """Run an experiment command on the six-vertex graph; cfg may be any JSON value."""
    graph = tmp_path / "g.csv"
    graph.write_text(SIX_VERTEX_EDGES)
    if isinstance(cfg, dict):
        cfg = {"graph": str(graph), "p": 2, "trials": 1, "out_dir": str(tmp_path / "out"), **cfg}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfgp)])


SIGNAL_COMMANDS = ["learn", "fit-filter", "filter", "compress", "denoise"]


def run_signals(tmp_path, command, text):
    """Run a command that reads a signal CSV holding ``text`` on the
    six-vertex graph; every output goes in tmp_path / "out"."""
    graph = tmp_path / "g.csv"
    graph.write_text(SIX_VERTEX_EDGES)
    sig = tmp_path / "sig.csv"
    sig.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    if command in ("compress", "denoise"):
        key = "signals" if command == "compress" else "labels"
        return run_config(tmp_path, command, {key: str(sig)})
    if command == "filter":
        lap = tmp_path / "lap.csv"
        assert main(["laplacian", "--complex", str(graph), "--out", str(lap)]) == 0
        return main(["filter", "--laplacian", str(lap), "--signals", str(sig), "--poly", "1",
                     "--out", str(out / "f.csv")])
    target = out if command == "learn" else out / "fit.json"
    return main([command, "--graph", str(graph), "--signals", str(sig), "--p", "2",
                 "--out", str(target)])


class TestSignalFiles:
    @pytest.mark.parametrize("command", SIGNAL_COMMANDS)
    @pytest.mark.parametrize(
        "rows, line",
        [
            (["1,2", "nan,1", "1,2", "2,1", "2,2", "1,1"], 2),
            (["1,2", "1,2", "inf,1", "2,1", "2,2", "1,1"], 3),
            (["1,2", "1,2", "1,2", "2,-inf", "2,2", "1,1"], 4),
            (["1,2", "1,2", "1,2", "2,1", "1e400,2", "1,1"], 5),
            (["1,2", "1,2", "2,1", "2,2"], None),
            (["1,2", "1,2", "1,2", "2,1", "2,2", "1,1", "2,1", "1,2"], None),
        ],
        ids=["nan", "inf", "minus-inf", "overflow", "4-rows", "8-rows"],
    )
    def test_bad_signals_exit_2(self, tmp_path, capsys, command, rows, line):
        rc = run_signals(tmp_path, command, "\n".join(rows) + "\n")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("simplexsp: ")
        assert (f"sig.csv:{line}: non-finite" if line else "need one per vertex (6)") in err
        # the signals are read before anything is written
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "huge, command",
        [(h, c) for c in ("learn", "fit-filter", "compress") for h in ("1e160", "1e300")]
        + [("1e308", "filter")],
    )
    def test_huge_signals_exit_3(self, tmp_path, capsys, command, huge):
        # finite values whose squares overflow, or for filter their product with L
        rows = ["1,2", f"{huge},2", "1,2", "2,1", f"2,{huge}", "1,1"]
        assert run_signals(tmp_path, command, "\n".join(rows) + "\n") == 3
        err = capsys.readouterr().err
        assert err.startswith("simplexsp: numerical failure: ") and err.count("\n") == 1
        assert not [f for f in (tmp_path / "out").rglob("*") if f.is_file()]

    def test_huge_signals_band_filter_exits_0(self, tmp_path):
        rows = ["1,2", "1e308,2", "1,2", "2,1", "2,-1e308", "1,1"]
        assert run_signals(tmp_path, "filter", "\n".join(rows) + "\n") == 3
        out = tmp_path / "out" / "band.csv"
        assert main(["filter", "--laplacian", str(tmp_path / "lap.csv"), "--signals",
                     str(tmp_path / "sig.csv"), "--band", "1:3", "--out", str(out)]) == 0
        assert np.isfinite(load_signals(out)).all()


class TestLabels:
    @pytest.mark.parametrize(
        "label, row", [("1e300", 3), ("-1e300", 6), ("1.5", 3), ("2147483648", 6)],
        ids=["huge", "minus-huge", "fractional", "past-int32"],
    )
    def test_bad_label_exit_2(self, tmp_path, capsys, label, row):
        rows = ["1", "1", "1", "2", "2", "2"]
        rows[row - 1] = label
        assert run_signals(tmp_path, "denoise", "\n".join(rows) + "\n") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"simplexsp: {tmp_path / 'sig.csv'}: data row {row}: label ")
        assert not any((tmp_path / "out").iterdir())

    def test_largest_label_runs(self, tmp_path):
        assert run_signals(tmp_path, "denoise", "1\n1\n2147483647\n2\n2\n2\n") == 0

    @pytest.mark.parametrize("label", ["0", "-3"])
    def test_no_class_label_exit_2(self, tmp_path, capsys, label):
        # without num_classes the largest label sets the class count
        assert run_signals(tmp_path, "denoise", f"{label}\n" * 6) == 2
        assert capsys.readouterr().err == (f"simplexsp: {tmp_path / 'sig.csv'}: the largest "
                                           f"label is {label}; class labels start at 1\n")
        assert not any((tmp_path / "out").iterdir())


# a fixed 16-vertex circulant graph with uneven lengths, and fixed signals on it
GOLDEN_EDGES = "".join(
    f"{i},{(i + d) % 16},{1 + (i * d % 7) / 10}\n" for i in range(16) for d in (1, 2, 5)
)
GOLDEN_SIGNALS = "".join(
    ",".join(repr(((7 * i + 3 * j) % 11) / 11 - 0.5) for j in range(3)) + "\n" for i in range(16)
)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def golden_env() -> str:
    """A failed golden assert's message: where the digests hold, and what runs."""
    import scipy

    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    return (f"the golden bytes hold for numpy 2.4.6, scipy 1.17.1 and one BLAS thread; "
            f"this run has numpy {np.__version__}, scipy {scipy.__version__} and {threads}")


@pytest.mark.parametrize(
    "cfg, sha256",
    [
        ({"trials": 3, "count": 4, "r1": 0.3, "r2": 0.5, "seed": 2},
         "37412397e059f2b31727f60913bc9930f9171375217cd6c3c40cde5e270328be"),
        ({"signals": "sig.csv", "r1": 0.25},
         "d2bf40b858def79bcf3ad2058de4896dfd7fa42119bb4bd18ce29ecb658fdce0"),
    ],
    ids=["bandlimited", "signals"],
)
def test_compress_golden_output(tmp_path, monkeypatch, cfg, sha256):
    """compression.csv keeps its bytes in both modes (no benchmark runs compress)."""
    monkeypatch.chdir(tmp_path)
    Path("g.csv").write_text(GOLDEN_EDGES)
    Path("sig.csv").write_text(GOLDEN_SIGNALS)
    Path("cfg.json").write_text(json.dumps({"graph": "g.csv", "p": 3, "out_dir": "out", **cfg}))
    assert main(["compress", "--config", "cfg.json"]) == 0
    assert hashlib.sha256(Path("out/compression.csv").read_bytes()).hexdigest() == sha256, \
        golden_env()


LEARN_GOLDEN = {
    "closed": {
        "family.json": "acdcbb597e1405bb4ad90b42664a0adf8cc806beace80547f20883370e1fce2d",
        "laplacian_00.csv": "37e8a80f02dc5d26f59a329848a113839185b3f7b851d4a4bdc63fc341e8f5a0",
        "laplacian_01.csv": "a807d0da74cda6fbb09e82a00af6c9dee61b030cdb6178885d364f54f09a8296",
        "laplacian_02.csv": "4d6f988a7bb0e1cafb26da30cbbfa910eaeb4854001b0920c8c624a9832294c0",
        "laplacian_03.csv": "995ddd0c8d77c8a09c8e1fd6304907b4f27c70ff731908094486ea4ac56b73aa",
        "laplacian_04.csv": "a9e53e2934d72763630f2b59850ddda9eace090e9969012cf44ee8d1d83d0d98",
    },
    "all": {
        "family.json": "1625314ae0ed40cec6abf08f5f3b76e27eec2b2f1dc5a571bd05a1ffabb7d7d3",
        "laplacian_00.csv": "37e8a80f02dc5d26f59a329848a113839185b3f7b851d4a4bdc63fc341e8f5a0",
        "laplacian_01.csv": "55e2decf2ebbbf1e203c15b1703baa65a1a7bbed999f00e6a372a23a459b9fef",
        "laplacian_02.csv": "c78f7b8bb0815858f0d495713ca501747ea875eb4035fb766e08759dc7fff965",
        "laplacian_03.csv": "419a3445e16c8f78e54b04cb78e0f1f9731025bcca967560225a024b4e16590d",
        "laplacian_04.csv": "6291938d882ace77b697ab66e7caaeb7d507b4d1f2c90b7bf56a055d8976d0be",
    },
}


@pytest.mark.parametrize("mode", LEARN_GOLDEN)
def test_learn_three_bands_golden_output(tmp_path, monkeypatch, mode):
    """family.json and every level keep their bytes with three filtration
    bands, whose closed-mode thresholds tie at 1.6 (every benchmark
    workload runs one band)."""
    monkeypatch.chdir(tmp_path)
    Path("g.csv").write_text(GOLDEN_EDGES)
    assert main(["learn", "--graph", "g.csv", "--p", "4", "--bands", "3", "--seed", "5",
                 "--mode", mode, "--out", "out"]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in Path("out").iterdir() if f.name != "learn.manifest.json"}
    assert written == LEARN_GOLDEN[mode], golden_env()


# one class label per golden vertex, in three classes
GOLDEN_LABELS = "".join(f"{1 + i * 5 % 3}\n" for i in range(16))


def golden_complex(unit: bool) -> dict:
    """The golden graph with the triangles (i, i+1, i+2) for even i; with
    unit lengths the diagnostics report has a sandwich."""
    edges = [[int(u), int(v), 1.0 if unit else float(w)]
             for u, v, w in (row.split(",") for row in GOLDEN_EDGES.split())]
    simplices = [sorted((i, (i + 1) % 16, (i + 2) % 16)) for i in range(0, 16, 2)]
    return {"vertices": list(range(16)), "edges": edges, "simplices": simplices}


def _denoise_golden(source: dict, r: float) -> tuple:
    return {"p": 3, "trials": 5, "r": r, "s": 0.5, "seed": 1, **source}, ["out/denoise.csv"]


# run -> (argv or experiment config, the outputs whose bytes are pinned)
GOLDEN_RUNS = {
    "laplacian-csv": (["laplacian", "--complex", "complex.json", "--out", "l.csv"], ["l.csv"]),
    "laplacian-json": (["laplacian", "--complex", "complex.json", "--out", "l.json"], ["l.json"]),
    "spectrum": (["spectrum", "--laplacian", "lap.csv", "--out", "s.json"], ["s.json"]),
    "filter-band": (["filter", "--laplacian", "lap.csv", "--signals", "sig.csv",
                     "--band", "2:9", "--out", "f.csv"], ["f.csv"]),
    "filter-poly": (["filter", "--laplacian", "lap.csv", "--signals", "sig.csv",
                     "--poly", "0.5,-0.25,0.125", "--out", "f.csv"], ["f.csv"]),
    "detect": ({"graph": "g.csv", "p": 3, "trials": 4, "magnitudes": [1.0, 5.0, 20.0],
                "strategies": ["S1", "S3", "S4"], "s3_level": 2, "seed": 4},
               ["out/detection.csv"]),
    # the narrow bands are solved by MRRR and r = 0.3 in full; on 16 vertices
    # r = 0.1 keeps only the constant vector, so every level would tie
    "denoise-generated-narrow": _denoise_golden({"n": 40}, 0.1),
    "denoise-generated-wide": _denoise_golden({"n": 40}, 0.3),
    "denoise-labels-narrow": _denoise_golden({"graph": "g.csv", "labels": "labels.csv"}, 0.19),
    "denoise-labels-wide": _denoise_golden({"graph": "g.csv", "labels": "labels.csv"}, 0.3),
    "diagnose-sandwich": (["diagnose", "--complex", "unit.json", "--out", "d.json"], ["d.json"]),
    "diagnose-no-sandwich": (["diagnose", "--complex", "complex.json", "--out", "d.json"],
                             ["d.json"]),
    "fit-filter": (["fit-filter", "--graph", "g.csv", "--signals", "sig.csv", "--p", "3",
                    "--degree", "2", "--t-grid", "5", "--out", "fit.json"], ["fit.json"]),
}
GOLDEN_DIGESTS = {
    "laplacian-csv": {"l.csv":
        "7a5dd226ca0252699149383b670ace77736aa99cb1845732ca15aa8ca3ce3e98"},
    "laplacian-json": {"l.json":
        "37e7b91c6ff5c5fb1cf8dc6179e44147b630bf4841c0fad6beacc3ef2132ef48"},
    "spectrum": {"s.json":
        "2eeacec2ed60fe246e85eebae17cf9cd0efef55a6b888d3ef5342f71f89e2aba"},
    "filter-band": {"f.csv":
        "03a7d1cfb3d7f26c80db83243d376fd329669bddc0e40b83d3c3e299e3726ae6"},
    "filter-poly": {"f.csv":
        "273ae50ac0b82f872d1a44f37d674e27bbc50149ae5d7094b044598114bdf575"},
    "detect": {"out/detection.csv":
        "68b8861451c6fcd71f20a15fc6665abc2c0389c94062272e6833704b860aaa65"},
    "denoise-generated-narrow": {"out/denoise.csv":
        "99a6bea5ba88f205a29b80d949194d0231003bd7aafb3f7fbd51bbe0136f6c09"},
    "denoise-generated-wide": {"out/denoise.csv":
        "8d8340d8bfc226cb4d56a8204bd382ad8e12e97ea7e73e37c368fc45996cd160"},
    "denoise-labels-narrow": {"out/denoise.csv":
        "e3d59798bc46069413e202c7e99f200b109ae3a6dfae6b7c93443479e3d3bd46"},
    "denoise-labels-wide": {"out/denoise.csv":
        "32e988e41f5c52e5ac613730ae8858a04b83af261a0014bcb9a5e97e16349eac"},
    "diagnose-sandwich": {"d.json":
        "214b8db6e9ad580db4040dddf6fec0f03c9c69ed931fb463abe03275fd397887"},
    "diagnose-no-sandwich": {"d.json":
        "d9198cec344912efa0c971eb5bf547e759075a8a87b7f74c1a7a2270e3b34db8"},
    "fit-filter": {"fit.json":
        "7a1774cc9a10bf1c778a925ff01a0bb4593a40046fcee5f3b7eb304c558dc22e"},
}


def golden_digests(run: str) -> dict:
    """Run one GOLDEN_RUNS entry in the current directory: {output: sha256}."""
    Path("g.csv").write_text(GOLDEN_EDGES)
    Path("sig.csv").write_text(GOLDEN_SIGNALS)
    Path("labels.csv").write_text(GOLDEN_LABELS)
    Path("complex.json").write_text(json.dumps(golden_complex(unit=False)))
    Path("unit.json").write_text(json.dumps(golden_complex(unit=True)))
    assert main(["laplacian", "--complex", "complex.json", "--out", "lap.csv"]) == 0
    argv, outputs = GOLDEN_RUNS[run]
    if isinstance(argv, dict):
        Path("cfg.json").write_text(json.dumps({"out_dir": "out", **argv}))
        argv = [run.split("-")[0], "--config", "cfg.json"]
    assert main(argv) == 0
    return {out: hashlib.sha256(Path(out).read_bytes()).hexdigest() for out in outputs}


@pytest.mark.parametrize("run", GOLDEN_RUNS)
def test_command_golden_output(tmp_path, monkeypatch, run):
    """Every other command keeps its output bytes (one BLAS thread)."""
    monkeypatch.chdir(tmp_path)
    assert golden_digests(run) == GOLDEN_DIGESTS[run], golden_env()


def count_level_reads(monkeypatch) -> list:
    """Wrap LaplacianFamily.levels so that the list it returns counts the
    levels every walk yields; laplacian(i) walks too."""
    reads, walk = [], structure_learning.LaplacianFamily.levels

    def counted(self):
        for m in walk(self):
            reads.append(m)
            yield m

    monkeypatch.setattr(structure_learning.LaplacianFamily, "levels", counted)
    return reads


@pytest.mark.parametrize(
    "command, extra, bound",
    [
        ("learn", ["--signals", "sig.csv", "--out", "out"], 15),
        ("fit-filter", ["--signals", "sig.csv", "--out", "fit.json"], 5),
        ("compress", {"trials": 2, "count": 3}, 5),
        ("detect", {"trials": 2, "strategies": ["S1", "S4"]}, 5),
        ("detect", {"trials": 2, "strategies": ["S3"], "s3_level": 1}, 2),  # stops at level 1
        ("denoise", {"trials": 2}, 5),
    ],
    ids=["learn", "fit-filter", "compress", "detect", "detect-S3", "denoise"],
)
def test_commands_walk_the_family_once_per_read(tmp_path, monkeypatch, command, extra, bound):
    """A level is built by one step of a walk, never by a replay from L_0:
    learn reads the family three times and every other command once, so
    p = 4 gives at most 15 or 5 levels."""
    monkeypatch.chdir(tmp_path)
    Path("g.csv").write_text(GOLDEN_EDGES)
    Path("sig.csv").write_text(GOLDEN_SIGNALS)
    if isinstance(extra, dict):
        Path("cfg.json").write_text(json.dumps({"graph": "g.csv", "p": 4, "out_dir": "out", **extra}))
        argv = ["--config", "cfg.json"]
    else:
        argv = ["--graph", "g.csv", "--p", "4", *extra]
    reads = count_level_reads(monkeypatch)
    assert main([command, *argv]) == 0
    assert 0 < len(reads) <= bound


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
            ("denoise", {"num_classes": 0}, "num_classes"),
            # a range shared with a flag is checked before the (missing) graph is read
            ("compress", {"p": 0, "graph": MISSING_GRAPH}, "p"),
            ("compress", {"bands": 0, "graph": MISSING_GRAPH}, "bands"),
            ("compress", {"r1": 0, "graph": MISSING_GRAPH}, "r1"),
            ("compress", {"r2": 0, "graph": MISSING_GRAPH}, "r2"),
            ("compress", {"p": P_MAX + 1, "graph": MISSING_GRAPH}, "p"),
            ("compress", {"p": 10**100, "graph": MISSING_GRAPH}, "p"),
            ("compress", {"bands": BANDS_MAX + 1, "graph": MISSING_GRAPH}, "bands"),
            ("compress", {"bands": 10**100, "graph": MISSING_GRAPH}, "bands"),
            # so is a range only a config key has
            ("denoise", {"r": 0, "graph": MISSING_GRAPH}, "r"),
            ("denoise", {"r": 1, "graph": MISSING_GRAPH}, "r"),
            ("denoise", {"s": 1.5, "graph": MISSING_GRAPH}, "s"),
            ("denoise", {"s": -0.5, "graph": MISSING_GRAPH}, "s"),
            ("denoise", {"noise_fraction": 0, "graph": MISSING_GRAPH}, "noise_fraction"),
            ("denoise", {"noise_fraction": 7, "graph": MISSING_GRAPH}, "noise_fraction"),
            ("compress", {"count": 0, "graph": MISSING_GRAPH}, "count"),
            ("compress", {"planted_fraction": 3, "graph": MISSING_GRAPH}, "planted_fraction"),
            ("detect", {"planted_fraction": -0.5, "graph": MISSING_GRAPH}, "planted_fraction"),
            ("denoise", {"n": 2, "graph": MISSING_GRAPH}, "n"),
            ("denoise", {"n": 3e9, "graph": MISSING_GRAPH}, "n"),
            ("denoise", {"n": commands.N_MAX + 1, "graph": MISSING_GRAPH}, "n"),
        ],
        ids=["detect-zero-trials", "denoise-zero-trials", "compress-p-not-integer",
             "detect-magnitude-not-numeric", "config-not-an-object", "p-fractional",
             "trials-fractional", "p-boolean", "invert-similarity-string", "snr-repeated",
             "num-classes-zero", "compress-p-zero", "compress-bands-zero", "compress-r1-zero",
             "compress-r2-zero", "compress-p-above-bound", "compress-p-huge",
             "compress-bands-above-bound", "compress-bands-huge", "denoise-r-zero",
             "denoise-r-one", "denoise-s-above-one", "denoise-s-negative",
             "denoise-noise-fraction-zero", "denoise-noise-fraction-seven", "compress-count-zero",
             "compress-planted-fraction-three", "detect-planted-fraction-negative",
             "denoise-n-two", "denoise-n-huge", "denoise-n-above-bound"],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, command, cfg, key):
        rc = run_config(tmp_path, command, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("simplexsp: ") and err.count("\n") == 1
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


# every numeric flag of learn and fit-filter: (command, flag, kind, lo, hi); --r1's
# lower end 0 is excluded, and None is no upper bound
NUMERIC_FLAGS = [
    ("learn", "--p", int, 1, P_MAX), ("learn", "--bands", int, 1, BANDS_MAX),
    ("learn", "--r1", float, 0, 1), ("learn", "--seed", int, 0, None),
    ("fit-filter", "--degree", int, 1, None), ("fit-filter", "--p", int, 1, P_MAX),
    ("fit-filter", "--bands", int, 1, BANDS_MAX), ("fit-filter", "--t-grid", int, 2, T_GRID_MAX),
    ("fit-filter", "--seed", int, 0, None),
]
BOUNDED_FLAGS = [(c, f, lo, hi) for c, f, kind, lo, hi in NUMERIC_FLAGS if kind is int and hi]


def flag_converter(command, flag):
    """The argparse ``type`` that converts a subcommand's flag."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return sub.choices[command]._option_string_actions[flag].type


def bad_flag_values(kind, lo, hi):
    """Values a flag must refuse: out of range, fractional, non-finite,
    non-numeric or 400 digits long."""
    if kind is float:
        out_of_range = (st.floats(max_value=lo, allow_nan=False)
                        | st.floats(min_value=hi, exclude_min=True, allow_nan=False)).map(repr)
    else:
        out_of_range = st.integers(max_value=lo - 1).map(str)
        if hi is not None:
            out_of_range |= st.integers(min_value=hi + 1).map(str)
        out_of_range |= st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda x: x != int(x)).map(repr)
    return st.one_of(
        out_of_range,
        st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "NaN"]),
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
        st.tuples(st.sampled_from(["", "-"]), st.integers(10**399, 10**400 - 1)).map(
            lambda t: t[0] + str(t[1])),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NUMERIC_FLAGS).flatmap(
    lambda f: st.tuples(st.just(f[:2]), bad_flag_values(*f[2:]))))
def test_bad_numeric_flag_exit_2(case):
    """A refused value is one line naming its flag and value, and nothing is written."""
    (command, flag), value = case
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        tmp = Path(tmp)
        graph, sig, out = tmp / "g.csv", tmp / "sig.csv", tmp / "out"
        graph.write_text(SIX_VERTEX_EDGES)
        save_signals(np.ones((6, 2)), sig)
        rc = main([command, "--graph", str(graph), "--signals", str(sig), f"{flag}={value}",
                   "--out", str(out)])
        assert rc == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"simplexsp: {flag} {value}: ")
        assert sorted(f.name for f in tmp.iterdir()) == ["g.csv", "sig.csv"]


@pytest.mark.parametrize("command, flag, lo, hi", BOUNDED_FLAGS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_bounded_flag_converter(command, flag, lo, hi, data):
    # values as large as an allocation or a loop that never ends are refused
    # without being used; every value in range converts to itself
    convert = flag_converter(command, flag)
    big = data.draw(st.integers(hi + 1, 10**15) | st.sampled_from([10**11, 10**12, 10**100]))
    for raw in (big, str(big)):
        with pytest.raises(argparse.ArgumentTypeError, match=f"^{raw}: "):
            convert(raw)
    ok = data.draw(st.integers(lo, hi))
    assert convert(str(ok)) == convert(ok) == ok


def test_config_keys_share_the_flag_converters():
    # each range a flag shares with a config key is written once
    shared = {"--p": "p", "--bands": "bands", "--seed": "seed"}
    for command in ("learn", "fit-filter"):
        for flag, key in shared.items():
            assert flag_converter(command, flag) is commands._SHARED_KEYS[key][1]
    assert flag_converter("learn", "--r1") is cli.FRACTION


@pytest.mark.parametrize("command", ["learn", "fit-filter"])
@pytest.mark.parametrize("flag, value", [("--p", str(P_MAX + 1)), ("--p", str(10**100)),
                                         ("--bands", str(BANDS_MAX + 1)),
                                         ("--bands", str(10**100))])
def test_level_and_band_bounds_refused(tmp_path, capsys, monkeypatch, command, flag, value):
    built = []
    monkeypatch.setattr(structure_learning, "build_family", lambda *a, **k: built.append(a))
    graph, sig, out = tmp_path / "g.csv", tmp_path / "sig.csv", tmp_path / "out"
    graph.write_text(SIX_VERTEX_EDGES)
    save_signals(np.ones((6, 2)), sig)
    assert main([command, "--graph", str(graph), "--signals", str(sig), flag, value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"simplexsp: {flag} {value}: ")
    assert built == [] and not out.exists()


def stand_in_family(monkeypatch):
    """Record build_family's p and num_bands and build a one-level family
    instead, so the largest accepted values cost nothing."""
    seen, real = [], structure_learning.build_family

    def build(g, p, num_bands, seed, **kw):
        seen.append((p, num_bands))
        return real(g, p=1, num_bands=1, seed=seed, **kw)

    monkeypatch.setattr(structure_learning, "build_family", build)
    return seen


@pytest.mark.parametrize("command", ["learn", "fit-filter"])
def test_level_and_band_bounds_accepted(tmp_path, monkeypatch, rng, command):
    seen = stand_in_family(monkeypatch)
    graph, sig, out = tmp_path / "g.csv", tmp_path / "sig.csv", tmp_path / "out"
    graph.write_text(SIX_VERTEX_EDGES)
    save_signals(rng.standard_normal((6, 2)), sig)
    assert main([command, "--graph", str(graph), "--signals", str(sig), "--p", str(P_MAX),
                 "--bands", str(BANDS_MAX), "--out", str(out)]) == 0
    assert seen == [(P_MAX, BANDS_MAX)]


def test_config_level_and_band_bounds_accepted(tmp_path, monkeypatch):
    seen = stand_in_family(monkeypatch)
    assert run_config(tmp_path, "compress", {"p": P_MAX, "bands": BANDS_MAX, "count": 2}) == 0
    assert seen == [(P_MAX, BANDS_MAX)]


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
# signal files on the six-vertex graph: 1 to 9 rows of two values, some of
# them non-finite
SIGNAL_ROWS = st.lists(
    st.tuples(*[st.floats(-5, 5) | st.sampled_from([math.nan, math.inf, -math.inf, 1e160, 1e300])] * 2),
    min_size=1, max_size=9,
)
# label files for denoise: one column of class labels, some of them
# fractional or too large for an int
LABEL_ROWS = st.lists(
    st.tuples(st.integers(-2, 3).map(float)
              | st.sampled_from([1.5, 2.0**31 - 1, 2.0**31, 1e300, -1e300])),
    min_size=6, max_size=6,
)
FUZZ_RUNS = st.one_of(
    st.tuples(st.just("filter"), st.sampled_from(["--band", "--poly"]),
              st.text(alphabet="0123456789:,.-+eEinfa ", max_size=8)),
    st.tuples(st.just("detect"), st.fixed_dictionaries({}, optional=DETECT_KEYS)),
    st.tuples(st.just("denoise"), st.fixed_dictionaries({}, optional=DENOISE_KEYS)),
    st.tuples(st.just("signals"), st.sampled_from(SIGNAL_COMMANDS), SIGNAL_ROWS),
    st.tuples(st.just("signals"), st.just("denoise"), LABEL_ROWS),
)


@settings(max_examples=80, deadline=None)
@given(FUZZ_RUNS)
def test_cli_fuzz_exits_0_2_or_3(run):
    """No filter option, experiment config value or signal file makes the
    CLI raise."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if run[0] == "signals":
            _, command, rows = run
            rc = run_signals(tmp, command, "".join(",".join(map(repr, row)) + "\n" for row in rows))
        elif run[0] == "filter":
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


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


# unit lengths (the sandwich runs), lengths around 1, and lengths whose
# squares and products overflow
FUZZ_COMPLEXES = st.one_of(
    random_complexes(),
    random_complexes(LENGTHS),
    random_complexes(st.just(1.0) | LENGTHS | st.floats(1e100, 1e200)),
)


@settings(max_examples=100, deadline=None)
@given(FUZZ_COMPLEXES)
def test_diagnose_fuzz_exits_0_2_or_3(x):
    """diagnose writes finite JSON or fails with a validation or numerical exit."""
    with tempfile.TemporaryDirectory() as tmp:
        cx, out = Path(tmp) / "c.json", Path(tmp) / "d.json"
        cx.write_text(json.dumps({
            "vertices": list(x.vertices),
            "edges": [[u, v, w] for (u, v), w in x.edges.items()],
            "simplices": [list(s) for s in x.simplices],
        }))
        rc = main(["diagnose", "--complex", str(cx), "--out", str(out)])
        assert rc in (0, 2, 3)
        if rc == 0:
            json.loads(out.read_text(), parse_constant=_reject_constant)


DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_fresh(code, env=None):
    """Run Python code in a new interpreter that imports this simplexsp,
    with the environment ``env`` if one is given."""
    src = str(Path(simplexsp.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=120, env=env)


# the modules of numpy, scipy and simplexsp in sys.modules, space-separated
LOADED = ("' '.join(sorted(m for m in sys.modules "
          "if m.split('.')[0] in ('numpy', 'scipy', 'simplexsp')))")


def test_import_loads_no_scipy():
    # nor numpy, nor any submodule but the CLI front end that was asked for
    for module in ("simplexsp", "simplexsp.cli"):
        proc = run_fresh(f"import {module}, sys; print({LOADED})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == sorted({"simplexsp", module})


@pytest.mark.parametrize("openblas", [None, "2"])
def test_cli_pins_one_blas_thread_unless_set(tmp_path, openblas):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if openblas:
        env["OPENBLAS_NUM_THREADS"] = openblas
    cx, lap, out = tmp_path / "complex.json", tmp_path / "lap.csv", tmp_path / "s.json"
    cx.write_text(json.dumps(golden_complex(unit=False)))
    assert main(["laplacian", "--complex", str(cx), "--out", str(lap)]) == 0
    argv = ["spectrum", "--laplacian", str(lap), "--out", str(out)]
    threads = f"[os.environ.get(var) for var in {THREAD_VARS!r}]"
    proc = run_fresh(f"import os; from simplexsp import cli\nprint({threads})\n"
                     f"print(cli.main({argv!r}))\nprint({threads})", env)
    assert proc.returncode == 0, proc.stderr
    # the bare import sets nothing; main sets what the caller left unset
    assert proc.stdout.splitlines() == [str([openblas, None, None]), "0",
                                        str([openblas or "1", "1", "1"])]
    if openblas is None:
        assert {out.name: hashlib.sha256(out.read_bytes()).hexdigest()} == \
            GOLDEN_DIGESTS["spectrum"]


def test_io_loads_no_hashlib():
    # hashlib loads OpenSSL; a digest is taken after a command's work
    proc = run_fresh("import sys, simplexsp.io; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_help_and_usage_error_load_no_numpy(tmp_path):
    # a flag's value is checked where the flag is declared: before the graph
    # is read and before numpy loads
    bad_r1 = ["learn", "--graph", str(tmp_path / "missing.csv"), "--r1", "0",
              "--out", str(tmp_path / "o")]
    proc = run_fresh(
        "import sys; from simplexsp.cli import main\n"
        f"for argv in (['--help'], ['denoise'], {bad_r1!r}):\n"
        "    try:\n"
        "        print(main(argv))\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code)\n"
        f"print({LOADED})"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == ["0", "2", "2", "simplexsp simplexsp.cli"]
    assert "the following arguments are required: --config" in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "--r1" in line] == [
        "simplexsp: --r1 0: need a finite float in [5e-324, 1]"]
    assert list(tmp_path.iterdir()) == []


def test_scipy_commands_run_from_fresh_interpreter(tmp_path):
    # the commands that load scipy, or its LAPACK wrappers, when they need it
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps({"vertices": [1, 2, 3, 4],
                              "edges": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0], [3, 4, 1.0]],
                              "simplices": [[1, 2, 3]]}))
    graph = tmp_path / "g.csv"
    graph.write_text(SIX_VERTEX_EDGES)
    cfg = tmp_path / "denoise.json"
    cfg.write_text(json.dumps({"graph": str(graph), "p": 2, "trials": 1,
                               "out_dir": str(tmp_path / "denoised")}))
    runs = [["diagnose", "--complex", str(cx), "--out", str(tmp_path / "report.json")],
            ["learn", "--graph", str(graph), "--p", "2", "--mode", "all",
             "--out", str(tmp_path / "learned")],
            ["learn", "--graph", str(graph), "--p", "2", "--out", str(tmp_path / "closed")],
            ["denoise", "--config", str(cfg)]]
    # each command loads only the modules it runs, and none loads numpy.ma,
    # except through scipy.sparse, which only learn's mode "all" needs
    unloaded = {"diagnose": {"simplexsp.structure_learning", "simplexsp.tasks", "numpy.ma"},
                "learn": {"simplexsp.diagnostics", "simplexsp.tasks", "numpy.ma"},
                "denoise": {"simplexsp.diagnostics", "numpy.ma"}}
    for argv in runs:
        proc = run_fresh("import sys; from simplexsp.cli import main\n"
                         f"rc = main({argv!r}); print({LOADED}); sys.exit(rc)")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        if "all" in argv:
            loaded.discard("numpy.ma")
        assert "simplexsp.commands" in loaded and not loaded & unloaded[argv[0]]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sandwich"] is not None
    family = json.loads((tmp_path / "learned" / "family.json").read_text())
    assert len(family["batches"][0]) + len(family["batches"][1]) == 20  # C(6, 3)
    rows = (tmp_path / "denoised" / "denoise.csv").read_text().splitlines()
    assert rows[0] == "snr_db,L_X0,L_X1,L_X2" and len(rows) == 6


def test_eigensolvers_load_no_scipy_package(tmp_path):
    # diagnose solves the sandwich's generalized problem and denoise, on 40
    # vertices, the partial low band: both through the LAPACK wrappers alone
    cx = tmp_path / "complex.json"
    cx.write_text(json.dumps(dict(TRIANGLE_JSON, edges=[[1, 2, 1], [1, 3, 1], [2, 3, 1], [3, 4, 1]])))
    cfg = tmp_path / "denoise.json"
    cfg.write_text(json.dumps({"n": 40, "p": 1, "trials": 1, "out_dir": str(tmp_path / "out")}))
    proc = run_fresh(
        "import sys; from simplexsp import cli, spectral\n"
        f"assert cli.main(['denoise', '--config', {str(cfg)!r}]) == 0\n"
        "print(spectral._flapack.cache_info().currsize)\n"
        f"assert cli.main(['diagnose', '--complex', {str(cx)!r}, "
        f"'--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "[]"]
    assert json.loads((tmp_path / "report.json").read_text())["sandwich"] is not None


def test_scipy_linalg_imports_after_the_wrappers():
    # loading the wrappers first must leave scipy.linalg importable, with
    # eigh giving the same bits
    proc = run_fresh(
        "import numpy as np; from simplexsp import spectral\n"
        "m = np.diag([3.0, 1.0, 2.0]) + 0.1\n"
        "ours = spectral._evr(m, 0, 1)\n"
        "import scipy.linalg\n"
        "theirs = scipy.linalg.eigh(m, subset_by_index=[0, 1], driver='evr')\n"
        "assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]\n"
        "print(scipy.linalg.eigh(m, m + np.eye(3), eigvals_only=True).tobytes() "
        "== spectral._gvd_values(m, m + np.eye(3)).tobytes())"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_from_fresh_interpreter(demo):
    proc = run_fresh(f"import runpy; runpy.run_path({str(DEMOS / demo)!r}, run_name='__main__')")
    assert proc.returncode == 0, proc.stderr
