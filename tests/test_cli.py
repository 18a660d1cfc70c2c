import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import graphsom
from graphsom.cli import build_parser, main
from graphsom.errors import NumericalError
from graphsom.graph import load_edge_list
from graphsom.layout import CELL_SIDE
from graphsom.linalg import eigendecompose_symmetric, heat_kernel
from graphsom.pipeline import _METHOD_KNOBS, LAYOUT_ITERATIONS, document_bytes
from graphsom.som import SomGrid, batch_kernel_som
from graphgen import edge_list, random_graph


def clique_file(path, size=4, bridge=0.0):
    lines = []
    for offset in (0, size):
        for i in range(offset, offset + size):
            for j in range(i + 1, offset + size):
                lines.append(f"n{i}\tn{j}\t1.0")
    if bridge:
        lines.append(f"n0\tn{size}\t{bridge}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    return clique_file(tmp_path / "graph.tsv")


def package_env(**overrides):
    """The environment of a subprocess that imports this graphsom."""
    src = str(Path(graphsom.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def cluster_spectral(graph_file, out, report=None, seed="0"):
    argv = ["cluster", "--input", graph_file, "--method", "spectral",
            "--k", "2", "--seed", seed, "--out", str(out)]
    if report is not None:
        argv += ["--report", str(report)]
    return main(argv)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, graph_file):
        assert cluster_spectral(graph_file, tmp_path / "p.json") == 0

    def test_kernel_som_without_grid_is_usage_error(self, tmp_path, graph_file,
                                                    capsys):
        code = main(["cluster", "--input", graph_file,
                     "--method", "kernel-som",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "--grid is required" in capsys.readouterr().err

    def test_unknown_method_choice(self, tmp_path, graph_file, capsys):
        code = main(["cluster", "--input", graph_file, "--method", "louvain",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_inapplicable_flag(self, tmp_path, graph_file, capsys):
        code = main(["cluster", "--input", graph_file, "--method", "spectral",
                     "--beta", "0.1", "--k", "2",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "does not apply" in capsys.readouterr().err

    def test_bad_grid_literal(self, tmp_path, graph_file):
        code = main(["cluster", "--input", graph_file,
                     "--method", "kernel-som", "--grid", "7x",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_bad_radius_literal(self, tmp_path, graph_file):
        code = main(["cluster", "--input", graph_file,
                     "--method", "kernel-som", "--grid", "1x2",
                     "--radius", "3,x",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["cluster", "--input", str(tmp_path / "absent.tsv"),
                     "--method", "spectral", "--k", "2",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith("graphsom: ")

    def test_malformed_edge_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\theavy\n")
        code = main(["cluster", "--input", str(bad), "--method", "spectral",
                     "--k", "2", "--seed", "0",
                     "--out", str(tmp_path / "p.json")])
        assert code == 3

    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"a\xff\tb\t1\n")
        code = main(["cluster", "--input", str(bad), "--method", "spectral",
                     "--k", "1", "--seed", "0",
                     "--out", str(tmp_path / "p.json")])
        assert code == 3
        assert "utf-8" in capsys.readouterr().err

    def test_malformed_partition_document(self, tmp_path, graph_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["stats", "--input", graph_file,
                     "--partition", str(bad)]) == 3

    def test_boolean_cluster_ids_are_parse_error(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tb\t1.0\nb\tc\t1.0\n")
        doc = tmp_path / "p.json"
        doc.write_text(json.dumps({"schema": "graphsom/partition",
                                   "assignment": {"a": True, "b": False,
                                                  "c": True}}))
        assert main(["stats", "--input", str(graph),
                     "--partition", str(doc)]) == 3
        assert "must be an integer" in capsys.readouterr().err

    def test_module_invocation_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "graphsom.cli", "attrs",
             "--partition", str(tmp_path / "absent.json"),
             "--attributes", str(tmp_path / "absent.tsv"),
             "--out", str(tmp_path / "s.json")],
            env=package_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("graphsom: ")

    def test_unwritable_output(self, tmp_path, graph_file, capsys):
        out = tmp_path / "no" / "such" / "dir" / "p.json"
        assert cluster_spectral(graph_file, out) == 1
        assert "graphsom: " in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, graph_file, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr("graphsom.linalg.eigendecompose_symmetric", boom)
        code = main(["cluster", "--input", graph_file,
                     "--method", "kernel-kmeans", "--k", "2",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 4

    def test_eigensolver_failure_is_numerical(self, tmp_path, graph_file,
                                              monkeypatch, capsys):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match="failed to converge"):
            eigendecompose_symmetric(np.eye(3))
        code = main(["cluster", "--input", graph_file,
                     "--method", "kernel-kmeans", "--k", "2",
                     "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 4
        assert "failed to converge" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["graph.tsv"]

    def test_graph_above_vertex_limit(self, tmp_path, graph_file, capsys,
                                      monkeypatch):
        monkeypatch.setattr("graphsom.graph.MAX_VERTICES", 7)
        code = cluster_spectral(graph_file, tmp_path / "p.json",
                                report=tmp_path / "r.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphsom: graph has 8 vertices")
        assert "limit of 7" in err and "512 bytes" in err
        assert sorted(os.listdir(tmp_path)) == ["graph.tsv"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["cluster", "--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


# each knob value out of range for the library function that receives it;
# the clique graph has 8 vertices
BAD_KNOBS = [
    ("spectral", ["--k", "0"]),
    ("spectral", ["--k", "9"]),
    ("spectral", ["--k", "2", "--p", "0"]),
    ("kernel-kmeans", ["--k", "2", "--beta", "-1"]),
    ("kernel-kmeans", ["--k", "2", "--beta", "nan"]),
    ("kernel-som", ["--grid", "0x3"]),
    ("kernel-som", ["--grid", "2x2", "--epochs", "0"]),
    ("kernel-som", ["--grid", "2x2", "--radius", "0.5,1"]),
    ("spectral-som", ["--grid", "2x2", "--radius", "nan,0.5"]),
    ("spectral", ["--k", "2", "--restarts", "0"]),
]
# the same knobs where kernel-kmeans and spectral-som receive them
MORE_BAD_KNOBS = [
    ("kernel-kmeans", ["--k", "0"]),
    ("kernel-kmeans", ["--k", "9"]),
    ("kernel-kmeans", ["--k", "2", "--restarts", "0"]),
    ("spectral-som", ["--grid", "2x2", "--p", "0"]),
]


class TestOutOfRangeValues:
    @pytest.mark.parametrize(
        "method, knobs", BAD_KNOBS + MORE_BAD_KNOBS,
        ids=[" ".join(k) for _, k in BAD_KNOBS]
        + [f"{m} {' '.join(k)}" for m, k in MORE_BAD_KNOBS])
    def test_cluster_exits_2_without_output(self, tmp_path, graph_file,
                                            capsys, monkeypatch, method, knobs):
        # every knob is checked before the eigensolve, which fails here
        def no_eigensolve(m):
            raise NumericalError("the eigensolve ran")

        monkeypatch.setattr("graphsom.linalg.eigendecompose_symmetric",
                            no_eigensolve)
        code = main(["cluster", "--input", graph_file, "--method", method,
                     *knobs, "--seed", "0", "--out", str(tmp_path / "p.json"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        # the message names the knob given last, the one out of range
        name = knobs[-2].lstrip("-")
        assert capsys.readouterr().err.startswith(f"graphsom: {name} must be")
        assert sorted(os.listdir(tmp_path)) == ["graph.tsv"]

    @pytest.mark.parametrize("method, knobs", [
        ("spectral", ["--k", "2"]), ("kernel-som", ["--grid", "2x2"])])
    def test_out_of_memory_exits_2_and_keeps_the_target(
            self, tmp_path, graph_file, capsys, monkeypatch, method, knobs):
        def no_memory(m):
            raise MemoryError

        monkeypatch.setattr("graphsom.linalg.eigendecompose_symmetric", no_memory)
        out = tmp_path / "p.json"
        out.write_bytes(b"an earlier partition\n")
        code = main(["cluster", "--input", graph_file, "--method", method,
                     *knobs, "--seed", "0", "--out", str(out),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        # 8 vertices and 12 edges: 5 * 8 * 8^2 + 16 * 12 bytes plus 35 MB
        assert capsys.readouterr().err == (
            "graphsom: out of memory clustering 8 vertices and 12 edges; "
            "cluster needs about 35 MB\n")
        assert sorted(os.listdir(tmp_path)) == ["graph.tsv", "p.json"]
        assert out.read_bytes() == b"an earlier partition\n"

    def test_layout_out_of_memory_exits_2_and_keeps_the_svg(
            self, tmp_path, graph_file, capsys, monkeypatch):
        doc = tmp_path / "p.json"
        assert cluster_spectral(graph_file, doc) == 0

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate the pair terms")

        monkeypatch.setattr("graphsom.layout._Repulsion", no_memory)
        svg = tmp_path / "x.svg"
        svg.write_bytes(b"an earlier drawing\n")
        code = main(["layout", "--mode", "summary", "--input", graph_file,
                     "--partition", str(doc), "--svg", str(svg),
                     "--dot", str(tmp_path / "x.dot"), "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "graphsom: out of memory: Unable to allocate the pair terms\n")
        assert sorted(os.listdir(tmp_path)) == ["graph.tsv", "p.json", "x.svg"]
        assert svg.read_bytes() == b"an earlier drawing\n"

    def test_address_space_cap_exits_0_or_2(self, tmp_path):
        # OpenBLAS maps a work buffer at its first level-3 call and ends the
        # process with status 1 if it cannot. Taken inside the eigensolve,
        # after the n x n arrays, it fails on this 600-vertex graph at caps
        # 16 to 46 MB above start-up; the sweep runs from start-up to past
        # the command's needs, with one BLAS thread.
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/status"):
            pytest.skip("needs RLIMIT_AS and /proc/self/status")
        rng = np.random.default_rng(0)
        n = 600
        lines = [f"v{i}\tv{(i + 1) % n}\t1.0" for i in range(n)]
        lines += [f"v{i}\tv{j}\t{w:.3f}" for i, j, w in
                  zip(rng.integers(n, size=3 * n), rng.integers(n, size=3 * n),
                      rng.uniform(0.1, 5.0, 3 * n)) if i != j]
        (tmp_path / "g.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = package_env(OPENBLAS_NUM_THREADS="1")
        startup = subprocess.run(
            [sys.executable, "-c", "import re, graphsom.cli; print(re.search("
             "r'VmPeak:\\s+(\\d+) kB', open('/proc/self/status').read())[1])"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        base = int(startup.stdout) * 1024
        out = tmp_path / "p.json"
        codes = []
        for extra in range(4, 65, 6):
            cap = base + (extra << 20)
            proc = subprocess.run(
                [sys.executable, "-m", "graphsom.cli", "cluster", "--input",
                 str(tmp_path / "g.tsv"), "--method", "kernel-kmeans", "--k", "4",
                 "--beta", "0.1", "--seed", "0", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=60,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
            codes.append(proc.returncode)
            if proc.returncode == 0:
                assert out.exists()
                out.unlink()
            else:
                assert proc.returncode == 2, (extra, proc.stderr)
                assert proc.stderr.startswith("graphsom: out of memory")
                assert proc.stderr.count("\n") == 1
            assert sorted(os.listdir(tmp_path)) == ["g.tsv"]
        assert 2 in codes

    @pytest.mark.parametrize("knobs, name", [
        (["--k", "0"], "k"), (["--k", "9"], "k"),
        (["--k", "2", "--p", "0"], "p"), (["--k", "2", "--p", "9"], "p")])
    def test_spectral_error_names_the_bad_knob(self, tmp_path, graph_file,
                                               capsys, knobs, name):
        code = main(["cluster", "--input", graph_file, "--method", "spectral",
                     *knobs, "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"graphsom: {name} must be")
        assert sorted(os.listdir(tmp_path)) == ["graph.tsv"]

    @pytest.mark.parametrize("mode", ["summary", "full"])
    def test_zero_iterations_exits_2_without_output(self, tmp_path, mode,
                                                    capsys):
        graph = clique_file(tmp_path / "g.tsv", bridge=1.0)
        doc = tmp_path / "som.json"
        assert main(["cluster", "--input", graph, "--method", "kernel-som",
                     "--grid", "1x2", "--epochs", "5", "--seed", "0",
                     "--out", str(doc)]) == 0
        code = main(["layout", "--mode", mode, "--input", graph,
                     "--model", str(doc), "--svg", str(tmp_path / "x.svg"),
                     "--dot", str(tmp_path / "x.dot"),
                     "--iterations", "0", "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("graphsom: ")
        assert sorted(os.listdir(tmp_path)) == ["g.tsv", "som.json"]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _seed_cluster(tmp_path):
    graph = clique_file(tmp_path / "g.tsv")
    return ["cluster", "--input", graph, "--method", "spectral", "--k", "2",
            "--seed", "-1", "--out", str(tmp_path / "p.json")]


def _seed_layout(tmp_path):
    # argparse refuses the seed before any file is opened
    return ["layout", "--mode", "summary", "--input", str(tmp_path / "g.tsv"),
            "--partition", str(tmp_path / "d.json"),
            "--svg", str(tmp_path / "x.svg"), "--seed", "-1"]


def _cluster_on(graph, tmp_path, *knobs):
    return ["cluster", "--input", graph, *knobs, "--seed", "0",
            "--out", str(tmp_path / "p.json"),
            "--report", str(tmp_path / "r.json")]


def _summed_weights_overflow(tmp_path):
    graph = _write(tmp_path / "g.tsv", "a\tb\t1e308\nb\tc\t1e308\n")
    return _cluster_on(graph, tmp_path, "--method", "spectral", "--k", "2")


def _pair_twice_overflows(tmp_path):
    graph = _write(tmp_path / "g.tsv", "a\tb\t1e308\nb\ta\t1e308\n")
    return _cluster_on(graph, tmp_path, "--method", "spectral", "--k", "1")


def _beta_kills_the_kernel(tmp_path):
    # exp(-beta * lambda) is 0 on every mode above the null space, or
    # overflows where a null eigenvalue rounds below 0
    return _cluster_on(clique_file(tmp_path / "g.tsv", bridge=1.0), tmp_path,
                       "--method", "kernel-kmeans", "--k", "2",
                       "--beta", "1e20")


def _beta_kills_a_small_kernel(tmp_path):
    graph = _write(tmp_path / "g.tsv", "a\tb\nb\tc\nc\ta\nc\td\n")
    return _cluster_on(graph, tmp_path, "--method", "kernel-kmeans",
                       "--k", "2", "--beta", "1e20")


def _radius_underflows(tmp_path):
    return _cluster_on(clique_file(tmp_path / "g.tsv"), tmp_path,
                       "--method", "kernel-som", "--grid", "2x2",
                       "--radius", "1e-320,1e-320")


def _radius_start_dwarfs_end(tmp_path):
    # the last epoch's sigma, 1e308 + (1 - 1e308), rounds to 0
    return _cluster_on(clique_file(tmp_path / "g.tsv"), tmp_path,
                       "--method", "kernel-som", "--grid", "2x2",
                       "--radius", "1e308,1")


def _method_not_a_string(tmp_path):
    graph = clique_file(tmp_path / "g.tsv")
    doc = _write(tmp_path / "d.json", json.dumps(
        {"schema": "graphsom/partition", "method": 7,
         "assignment": {f"n{i}": i // 4 for i in range(8)}}))
    return ["stats", "--input", graph, "--partition", doc]


def _attrs_of(tmp_path, table_text):
    doc = _write(tmp_path / "d.json", json.dumps(
        {"schema": "graphsom/partition", "assignment": {"a": 0, "b": 0}}))
    table = _write(tmp_path / "t.tsv", table_text)
    return ["attrs", "--partition", doc, "--attributes", table,
            "--out", str(tmp_path / "s.json")]


def _attribute_sum_overflows(tmp_path):
    return _attrs_of(tmp_path, "!schema\tscore:numeric\n"
                     "a\tscore\t1e308\nb\tscore\t1e308\n")


def _attribute_without_key(tmp_path):
    return _attrs_of(tmp_path, "a\t \tred\n")


def _seed_not_an_integer(tmp_path):
    return [*_seed_layout(tmp_path)[:-1], "x"]


def _radius_without_comma(tmp_path):
    return _cluster_on(clique_file(tmp_path / "g.tsv"), tmp_path,
                       "--method", "kernel-som", "--grid", "2x2",
                       "--radius", "3.5")


def _summary_of_a_skipped_cluster_id(tmp_path):
    graph = clique_file(tmp_path / "g.tsv")
    doc = _write(tmp_path / "d.json", json.dumps(
        {"schema": "graphsom/partition",
         "assignment": {f"n{i}": 2 * (i // 4) for i in range(8)}}))
    return ["layout", "--mode", "summary", "--input", graph,
            "--partition", doc, "--svg", str(tmp_path / "x.svg"),
            "--seed", "0"]


def _stats_of(tmp_path, doc):
    return ["stats", "--input", clique_file(tmp_path / "g.tsv"), "--partition",
            _write(tmp_path / "d.json", json.dumps(doc))]


def _cluster_id_overflows(tmp_path):
    return _stats_of(tmp_path, {"schema": "graphsom/partition",
                                "assignment": {f"n{i}": 2 ** 70 for i in range(8)}})


def _num_clusters_above_limit(tmp_path):
    return _stats_of(tmp_path, {"schema": "graphsom/partition", "num_clusters": 9,
                                "assignment": {f"n{i}": 0 for i in range(8)}})


def _grid_above_limit(tmp_path):
    # the limit is lowered to 8, the clique graph's vertex count
    return _cluster_on(clique_file(tmp_path / "g.tsv"), tmp_path,
                       "--method", "kernel-som", "--grid", "3x3")


def _document_grid_above_limit(tmp_path):
    graph = clique_file(tmp_path / "g.tsv")
    doc = {"schema": "graphsom/partition",
           "assignment": {f"n{i}": 0 for i in range(8)},
           "model": {"grid": {"rows": 3, "cols": 3}, "energy_trace": [0.0],
                     "assignment": [0] * 8}}
    return ["layout", "--mode", "full", "--input", graph,
            "--model", _write(tmp_path / "d.json", json.dumps(doc)),
            "--svg", str(tmp_path / "x.svg"), "--seed", "0"]


def _kernel_som_document(tmp_path, trace):
    """stats on a kernel-som document whose energy trace is the literal ``trace``."""
    graph = clique_file(tmp_path / "g.tsv")
    assert main(_cluster_on(graph, tmp_path, "--method", "kernel-som",
                            "--grid", "1x2")) == 0
    doc = json.loads((tmp_path / "p.json").read_text(encoding="utf-8"))
    doc["model"]["energy_trace"] = "TRACE"
    text = json.dumps(doc).replace('"TRACE"', trace)
    return ["stats", "--input", graph, "--partition", _write(tmp_path / "p.json", text)]


def _nan_in_a_document(tmp_path):
    return _kernel_som_document(tmp_path, "[NaN]")


def _number_overflows_in_a_document(tmp_path):
    return _kernel_som_document(tmp_path, "[1e400]")


def _label_xml_cannot_carry(tmp_path, command):
    graph = _write(tmp_path / "g.tsv", "a\x01b\tc\t1.0\nc\td\t1.0\nd\ta\x01b\t1.0\n")
    if command == "cluster":
        return _cluster_on(graph, tmp_path, "--method", "kernel-som", "--grid", "1x2")
    doc = {"schema": "graphsom/partition",
           "assignment": {"a\x01b": 0, "c": 0, "d": 1},
           "model": {"grid": {"rows": 1, "cols": 2}, "energy_trace": [0.0],
                     "assignment": [0, 0, 1]}}
    return ["layout", "--mode", "full", "--input", graph,
            "--model", _write(tmp_path / "d.json", json.dumps(doc)),
            "--svg", str(tmp_path / "x.svg"), "--seed", "0"]


# each input stops where it enters: the exit code of its error type, a
# message naming the bad value or key, no traceback or numpy warning
BOUNDARY_CASES = [
    ("cluster seed -1", _seed_cluster, 2, "argument --seed: must be >= 0"),
    ("layout seed -1", _seed_layout, 2, "argument --seed: must be >= 0"),
    ("seed not an integer", _seed_not_an_integer, 2,
     "argument --seed: invalid int value: 'x'"),
    ("radius without a comma", _radius_without_comma, 2,
     "expected START,END like 3.5,0.5, got '3.5'"),
    ("summed weights overflow", _summed_weights_overflow, 3,
     "edge weights too large"),
    ("pair listed twice overflows", _pair_twice_overflows, 3,
     "edge weights too large"),
    ("beta kills the kernel", _beta_kills_the_kernel, 2,
     "beta 1e+20 is too large for this graph"),
    ("beta kills a small kernel", _beta_kills_a_small_kernel, 2,
     "beta 1e+20 is too large for this graph"),
    ("radius underflows", _radius_underflows, 2,
     "radius must be finite with start >= end > 0 and a last sigma of "
     "2 * sigma^2 > 0, got (1e-320, 1e-320)"),
    ("radius start dwarfs its end", _radius_start_dwarfs_end, 2,
     "got (1e+308, 1.0)"),
    ("method not a string", _method_not_a_string, 3,
     "method must be a string, got 7"),
    ("attribute sum overflows", _attribute_sum_overflows, 3,
     "numeric key 'score'"),
    ("attribute line without a key", _attribute_without_key, 3,
     "vertex and key must be nonempty"),
    ("document root not an object", lambda tmp_path: _stats_of(tmp_path, []), 3,
     "document root must be a JSON object"),
    ("summary of a skipped cluster id", _summary_of_a_skipped_cluster_id, 2,
     "cluster 1 has no vertices"),
    ("cluster id overflows int64", _cluster_id_overflows, 3,
     f"partition has {2 ** 70 + 1} clusters"),
    ("num_clusters above the limit", _num_clusters_above_limit, 3,
     "partition has 9 clusters (largest id + 1, or num_clusters), "
     "above the limit of 8"),
    ("grid above the unit limit", _grid_above_limit, 2,
     "grid 3x3 has 9 units, above the limit of 8"),
    ("document grid above the unit limit", _document_grid_above_limit, 3,
     "grid 3x3 has 9 units, above the limit of 8"),
    ("NaN in a document", _nan_in_a_document, 3, "NaN is not a finite JSON number"),
    ("number overflows in a document", _number_overflows_in_a_document, 3,
     "1e400 is not a finite JSON number"),
    ("cluster on a label XML cannot carry",
     lambda tmp_path: _label_xml_cannot_carry(tmp_path, "cluster"), 3,
     "line 1: vertex label 'a\\x01b' holds U+0001"),
    ("full layout of a label XML cannot carry",
     lambda tmp_path: _label_xml_cannot_carry(tmp_path, "layout"), 3,
     "line 1: vertex label 'a\\x01b' holds U+0001"),
]


@pytest.mark.parametrize("build, code, needle",
                         [case[1:] for case in BOUNDARY_CASES],
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_bad_input_stops_at_the_boundary(tmp_path, capsys, monkeypatch,
                                         build, code, needle):
    monkeypatch.setattr("graphsom.graph.MAX_VERTICES", 8)
    argv = build(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err and "Warning" not in err
    assert sorted(os.listdir(tmp_path)) == inputs


def test_internal_error_is_not_a_usage_error(tmp_path, graph_file,
                                             monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("an internal invariant failed")

    monkeypatch.setattr("graphsom.pipeline.report_document", broken)
    with pytest.raises(ValueError, match="internal invariant"):
        cluster_spectral(graph_file, tmp_path / "p.json", tmp_path / "r.json")
    assert sorted(os.listdir(tmp_path)) == ["graph.tsv"]


@pytest.mark.parametrize("values", [[9e305, 4.5e305], [1e306, 5e305]])
def test_map_of_a_huge_umatrix_draws(tmp_path, values):
    # shading divides by the largest value before it scales, so no value
    # a document may hold overflows on its way to a gray level
    graph = _write(tmp_path / "g.tsv", "a\tb\t1\nb\tc\t1\nc\td\t1\nd\ta\t1\n")
    assert main(_cluster_on(graph, tmp_path, "--method", "kernel-som",
                            "--grid", "1x2")) == 0
    doc = json.loads((tmp_path / "p.json").read_text(encoding="utf-8"))
    doc["model"]["umatrix"] = [values]
    model = _write(tmp_path / "p.json", json.dumps(doc))
    svg = tmp_path / "x.svg"
    assert main(["layout", "--mode", "map", "--input", graph, "--model", model,
                 "--svg", str(svg), "--seed", "0"]) == 0
    assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


# a file name that is not valid UTF-8 is legal on Linux, and Python hands
# it over with surrogate escapes
NON_UTF8_NAME = os.fsdecode(b"caf\xe9.tsv")


@pytest.mark.skipif(sys.getfilesystemencoding() != "utf-8",
                    reason="needs surrogate escapes in file names")
@pytest.mark.parametrize("command", ["cluster", "stats"])
def test_path_a_report_cannot_hold_exits_2_before_reading(tmp_path, capsys,
                                                          monkeypatch, command):
    graph = clique_file(tmp_path / NON_UTF8_NAME)
    # cluster without --report records no path, so it takes the name
    assert cluster_spectral(graph, tmp_path / "p.json") == 0
    if command == "stats":
        argv = ["stats", "--input", graph, "--partition", str(tmp_path / "p.json")]
    else:
        argv = ["cluster", "--input", graph, "--method", "spectral", "--k", "2",
                "--seed", "0", "--out", str(tmp_path / "q.json"),
                "--report", str(tmp_path / "r.json")]

    def unread(*args):
        raise AssertionError("the input was read")

    monkeypatch.setattr("graphsom.pipeline.load_edge_list", unread)
    files = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"graphsom: path {graph!r} is not valid UTF-8; a report "
                   "cannot hold it\n")
    assert sorted(os.listdir(tmp_path)) == files


def _deep_nesting():
    return "[" * 100_000 + "]" * 100_000


def _long_integer():
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this interpreter converts integers of any length")
    return json.dumps({"schema": "graphsom/partition",
                       "assignment": {"n0": "BIG"}}).replace('"BIG"', "9" * (digits + 1))


def _unpaired_surrogate():
    # json.dumps writes the lone surrogate as the escape \udce9
    return json.dumps({"schema": "graphsom/partition", "method": "spec\udce9",
                       "assignment": {f"n{i}": i // 4 for i in range(8)}})


@pytest.mark.parametrize("command", ["stats", "attrs", "layout"])
@pytest.mark.parametrize("text", [_deep_nesting, _long_integer, _unpaired_surrogate],
                         ids=["deep nesting", "long integer", "unpaired surrogate"])
def test_document_python_cannot_hold_exits_3(tmp_path, capsys, command, text):
    graph = clique_file(tmp_path / "g.tsv")
    doc = _write(tmp_path / "d.json", text())
    argv = {"stats": ["stats", "--input", graph, "--partition", doc],
            "attrs": ["attrs", "--partition", doc, "--attributes",
                      _write(tmp_path / "t.tsv", "n0\tage\t30\n"),
                      "--out", str(tmp_path / "s.json")],
            "layout": ["layout", "--mode", "summary", "--input", graph,
                       "--partition", doc, "--svg", str(tmp_path / "x.svg"),
                       "--seed", "0"]}[command]
    files = sorted(os.listdir(tmp_path))
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("graphsom: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == files


def test_stats_that_cannot_write_its_report_exits_1(tmp_path):
    graph = _write(tmp_path / "café.tsv", "café\tb\t1.0\nb\tc\t1.0\n")
    part = tmp_path / "p.json"
    assert cluster_spectral(graph, part) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "graphsom.cli", "stats", "--input", graph,
         "--partition", str(part)],
        env=package_env(PYTHONIOENCODING="ascii"), capture_output=True,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == b""
    err = proc.stderr.decode("ascii")
    assert err.startswith("graphsom: cannot write the report to standard output: ")
    assert err.count("\n") == 1


def test_stats_with_standard_output_closed_exits_1(tmp_path):
    # Python starts with sys.stdout None when descriptor 1 is closed
    graph = _write(tmp_path / "g.tsv", "a\tb\t1.0\nb\tc\t1.0\n")
    part = tmp_path / "p.json"
    assert cluster_spectral(graph, part) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "graphsom.cli", "stats", "--input", graph,
         "--partition", str(part)],
        env=package_env(), stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
        timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == b"graphsom: cannot write the report: standard output is closed\n"


class TestEdgeListLabels:
    def test_labels_stripped_to_match_attribute_table(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("anna \tbruno\t1\nbruno\t carla\t1\n"
                         "carla\tanna\t1\n", encoding="utf-8")
        doc = tmp_path / "p.json"
        assert main(["cluster", "--input", str(graph), "--method", "spectral",
                     "--k", "1", "--seed", "0", "--out", str(doc)]) == 0
        assert sorted(json.loads(doc.read_text())["assignment"]) == \
            ["anna", "bruno", "carla"]
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("anna\tregion\tcoast\n", encoding="utf-8")
        summary = tmp_path / "s.json"
        assert main(["attrs", "--partition", str(doc),
                     "--attributes", str(attrs), "--out", str(summary)]) == 0
        region = json.loads(summary.read_text())["clusters"][0][
            "categorical"]["region"]
        assert region["count"] == 1 and region["missing"] == 2

    def test_blank_label_exits_3(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text(" \tb\t1\n", encoding="utf-8")
        code = main(["cluster", "--input", str(graph), "--method", "spectral",
                     "--k", "1", "--seed", "0", "--out", str(tmp_path / "p.json")])
        assert code == 3
        assert "empty vertex label" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["g.tsv"]


class TestNoPartialOutputs:
    @pytest.fixture
    def triangle(self, tmp_path):
        path = tmp_path / "tri.tsv"
        path.write_text("a\tb\t1.0\nb\tc\t1.0\na\tc\t1.0\n",
                        encoding="utf-8")
        return str(path)

    def test_failed_report_leaves_no_partition(self, tmp_path, triangle):
        out = tmp_path / "p.json"
        code = cluster_spectral(triangle, out, tmp_path / "nodir" / "r.json")
        assert code == 1
        assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["tri.tsv"]

    def test_failed_dot_leaves_no_svg(self, tmp_path, triangle):
        doc = tmp_path / "p.json"
        assert cluster_spectral(triangle, doc) == 0
        svg = tmp_path / "s.svg"
        code = main(["layout", "--mode", "summary", "--input", triangle,
                     "--partition", str(doc), "--svg", str(svg),
                     "--dot", str(tmp_path / "nodir" / "x.dot"),
                     "--seed", "0"])
        assert code == 1
        assert not svg.exists()
        assert sorted(os.listdir(tmp_path)) == ["p.json", "tri.tsv"]

    def test_failed_run_keeps_existing_output(self, tmp_path, triangle):
        out = tmp_path / "p.json"
        out.write_bytes(b"earlier bytes\n")
        code = cluster_spectral(triangle, out, tmp_path / "nodir" / "r.json")
        assert code == 1
        assert out.read_bytes() == b"earlier bytes\n"

    def test_report_onto_directory_leaves_no_partition(self, tmp_path,
                                                       triangle):
        out = tmp_path / "p.json"
        (tmp_path / "r.json").mkdir()
        assert cluster_spectral(triangle, out, tmp_path / "r.json") == 1
        assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["r.json", "tri.tsv"]

    @pytest.mark.parametrize("report", ["p.json", "./p.json"])
    def test_cluster_outputs_naming_one_file(self, tmp_path, triangle,
                                             monkeypatch, capsys, report):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_bytes(b"earlier bytes\n")
        assert cluster_spectral(triangle, "p.json", report) == 2
        assert "name the same file" in capsys.readouterr().err
        assert (tmp_path / "p.json").read_bytes() == b"earlier bytes\n"
        assert sorted(os.listdir(tmp_path)) == ["p.json", "tri.tsv"]

    @pytest.mark.parametrize("dot", ["o.svg", "./o.svg"])
    def test_layout_outputs_naming_one_file(self, tmp_path, triangle,
                                            monkeypatch, capsys, dot):
        monkeypatch.chdir(tmp_path)
        assert cluster_spectral(triangle, "p.json") == 0
        code = main(["layout", "--mode", "summary", "--input", triangle,
                     "--partition", "p.json", "--svg", "o.svg",
                     "--dot", dot, "--seed", "0"])
        assert code == 2
        assert "name the same file" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["p.json", "tri.tsv"]

    # refused before the input is read: a missing one would exit 3
    def test_cluster_outputs_naming_one_file_before_input(self, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cluster_spectral("missing.tsv", "p.json", "./p.json") == 2
        assert "name the same file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_layout_outputs_naming_one_file_before_input(self, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["layout", "--mode", "full", "--input", "missing.tsv",
                     "--model", "missing.json", "--svg", "o.svg",
                     "--dot", "./o.svg", "--seed", "0"])
        assert code == 2
        assert "name the same file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def _fail_rename(self, monkeypatch, at, error=PermissionError):
        """Make the ``at``-th call of ``os.replace`` raise ``error``."""
        real, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == at:
                raise error(f"rename {at} refused")
            return real(src, dst)
        monkeypatch.setattr(os, "replace", replace)

    def _run_two_outputs(self, tmp_path, triangle, command):
        """The two outputs of ``command``, and a call that runs it and
        returns its exit code."""
        if command == "cluster":
            targets = [tmp_path / "p.json", tmp_path / "r.json"]
            return targets, lambda: cluster_spectral(triangle, *targets)
        targets = [tmp_path / "s.svg", tmp_path / "x.dot"]
        return targets, lambda: main(
            ["layout", "--mode", "summary", "--input", triangle,
             "--partition", str(tmp_path / "doc.json"), "--svg",
             str(targets[0]), "--dot", str(targets[1]), "--seed", "0"])

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("at", [1, 2])
    @pytest.mark.parametrize("command", ["cluster", "layout"])
    def test_failed_rename_restores_every_target(self, tmp_path, triangle,
                                                 monkeypatch, command, at,
                                                 existing):
        assert cluster_spectral(triangle, tmp_path / "doc.json") == 0
        targets, run = self._run_two_outputs(tmp_path, triangle, command)
        if existing:
            for path in targets:
                path.write_bytes(f"old {path.name}\n".encode())
        before = sorted(os.listdir(tmp_path))
        self._fail_rename(monkeypatch, at)
        assert run() == 1
        assert sorted(os.listdir(tmp_path)) == before
        for path in targets:
            assert path.exists() == existing
            if existing:
                assert path.read_bytes() == f"old {path.name}\n".encode()

    def test_interrupt_between_renames_restores_targets(self, tmp_path,
                                                        triangle, monkeypatch):
        out, report = tmp_path / "p.json", tmp_path / "r.json"
        out.write_bytes(b"earlier bytes\n")
        self._fail_rename(monkeypatch, 2, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            cluster_spectral(triangle, out, report)
        assert out.read_bytes() == b"earlier bytes\n"
        assert sorted(os.listdir(tmp_path)) == ["p.json", "tri.tsv"]

    def test_target_that_cannot_be_linked_keeps_new_bytes(self, tmp_path,
                                                          triangle,
                                                          monkeypatch):
        out, report = tmp_path / "p.json", tmp_path / "r.json"
        out.write_bytes(b"earlier bytes\n")

        def link(src, dst, **kwargs):
            raise PermissionError("no hard links here")
        monkeypatch.setattr(os, "link", link)
        self._fail_rename(monkeypatch, 2)
        assert cluster_spectral(triangle, out, report) == 1
        assert json.loads(out.read_text())["schema"] == "graphsom/partition"
        assert sorted(os.listdir(tmp_path)) == ["p.json", "tri.tsv"]

    def test_success_replaces_existing_output(self, tmp_path, triangle):
        out = tmp_path / "p.json"
        report = tmp_path / "r.json"
        out.write_bytes(b"earlier bytes\n")
        assert cluster_spectral(triangle, out, report) == 0
        assert json.loads(out.read_text())["schema"] == "graphsom/partition"
        assert json.loads(report.read_text())["schema"] == "graphsom/report"
        assert sorted(os.listdir(tmp_path)) == ["p.json", "r.json", "tri.tsv"]


class TestClusterCommand:
    def test_writes_partition_and_report(self, tmp_path, graph_file):
        out = tmp_path / "p.json"
        report = tmp_path / "r.json"
        assert cluster_spectral(graph_file, out, report) == 0
        pdoc = json.loads(out.read_text())
        assert pdoc["schema"] == "graphsom/partition"
        assert pdoc["num_clusters"] == 2
        assert pdoc["seed"] == 0
        rdoc = json.loads(report.read_text())
        assert rdoc["partition"]["q_modularity"] == 0.5
        assert rdoc["config"]["method"] == "spectral"
        assert rdoc["config"]["seed"] == 0

    def test_edgeless_graph_report(self, tmp_path, capsys):
        graph = tmp_path / "loops.tsv"
        graph.write_text("a\ta\t1.0\nb\tb\t1.0\n")
        out, report = tmp_path / "p.json", tmp_path / "r.json"
        code = main(["cluster", "--input", str(graph),
                     "--method", "kernel-kmeans", "--k", "1",
                     "--seed", "0", "--out", str(out),
                     "--report", str(report)])
        assert code == 0
        # one line per dropped self-loop, without the library's source line
        assert capsys.readouterr().err == (
            "graphsom: warning: dropping self-loop on 'a' (line 1)\n"
            "graphsom: warning: dropping self-loop on 'b' (line 2)\n")
        assert json.loads(out.read_text())["num_clusters"] == 1
        rdoc = json.loads(report.read_text())
        assert rdoc["graph"]["edges"] == 0
        assert rdoc["partition"]["q_modularity"] is None
        assert rdoc["partition"]["q_modularity_unweighted"] is None

    def test_repeat_invocation_byte_identical(self, tmp_path, graph_file):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        first = out.read_bytes()
        assert cluster_spectral(graph_file, out) == 0
        assert out.read_bytes() == first

    def test_seed_changes_restart_stream(self, tmp_path, graph_file):
        # same graph, different seed: document differs at least in the
        # recorded seed, and stays a valid partition of the same vertices
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cluster_spectral(graph_file, a, seed="0") == 0
        assert cluster_spectral(graph_file, b, seed="1") == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["seed"] == 0 and db["seed"] == 1
        assert set(da["assignment"]) == set(db["assignment"])

    def test_kernel_som_end_to_end(self, tmp_path):
        graph = clique_file(tmp_path / "g.tsv", bridge=1.0)
        out = tmp_path / "som.json"
        code = main(["cluster", "--input", graph, "--method", "kernel-som",
                     "--grid", "1x2", "--beta", "0.5", "--epochs", "30",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["model"]["grid"] == {"rows": 1, "cols": 2}
        assert doc["method"] == "kernel-som"

    @pytest.mark.parametrize("method", ["kernel-som", "spectral-som"])
    def test_som_documents_hold_no_gamma(self, tmp_path, method):
        graph = clique_file(tmp_path / "g.tsv", bridge=1.0)
        out = tmp_path / "som.json"
        assert main(["cluster", "--input", graph, "--method", method,
                     "--grid", "1x2", "--epochs", "10", "--seed", "0",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 2
        assert "gamma" not in doc["model"]
        assert "gamma" not in out.read_text()


class TestAttrsCommand:
    def test_summary_document(self, tmp_path, graph_file):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        attrs = tmp_path / "attrs.tsv"
        rows = ["!schema\tdate:numeric"]
        rows += [f"n{i}\tdate\t{1300 + 20 * (i % 2)}" for i in range(8)]
        attrs.write_text("\n".join(rows) + "\n")
        summary = tmp_path / "summary.json"
        code = main(["attrs", "--partition", str(out),
                     "--attributes", str(attrs), "--out", str(summary)])
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["schema"] == "graphsom/attribute-summary"
        for cluster in doc["clusters"]:
            date = cluster["numeric"]["date"]
            assert date["count"] + date["missing"] == cluster["size"]

    def test_unknown_vertex_is_usage_error(self, tmp_path, graph_file, capsys):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("stranger\tdate\t1300\n")
        code = main(["attrs", "--partition", str(out),
                     "--attributes", str(attrs),
                     "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "stranger" in capsys.readouterr().err

    # the spectral partition of the clique graph uses cluster ids 0 and 1
    @pytest.mark.parametrize("command", ["attrs", "stats"])
    @pytest.mark.parametrize("num_clusters", [None, "x", True, 0, 1.5, 1],
                             ids=["null", "string", "true", "0", "1.5", "1"])
    def test_bad_num_clusters_is_parse_error(self, tmp_path, graph_file,
                                             capsys, command, num_clusters):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        doc = json.loads(out.read_text())
        doc["num_clusters"] = num_clusters
        out.write_text(json.dumps(doc))
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("n0\tplace\tX\n")
        summary = tmp_path / "s.json"
        capsys.readouterr()
        if command == "attrs":
            argv = ["attrs", "--partition", str(out),
                    "--attributes", str(attrs), "--out", str(summary)]
        else:
            argv = ["stats", "--input", graph_file, "--partition", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "num_clusters" in captured.err
        assert captured.out == ""
        assert not summary.exists()

    def test_bad_numeric_value_is_parse_error(self, tmp_path, graph_file):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("!schema\tdate:numeric\nn0\tdate\tlater\n")
        code = main(["attrs", "--partition", str(out),
                     "--attributes", str(attrs),
                     "--out", str(tmp_path / "s.json")])
        assert code == 3


class TestLayoutCommand:
    @pytest.fixture
    def som_doc(self, tmp_path):
        graph = clique_file(tmp_path / "g.tsv", bridge=1.0)
        out = tmp_path / "som.json"
        code = main(["cluster", "--input", graph, "--method", "kernel-som",
                     "--grid", "1x2", "--beta", "0.5", "--epochs", "30",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        return graph, str(out)

    def test_summary_mode(self, tmp_path, som_doc):
        graph, doc = som_doc
        svg = tmp_path / "s.svg"
        code = main(["layout", "--mode", "summary", "--input", graph,
                     "--partition", doc, "--svg", str(svg), "--seed", "0"])
        assert code == 0
        assert svg.read_bytes().startswith(b"<?xml")

    def test_map_mode_with_dot(self, tmp_path, som_doc):
        graph, doc = som_doc
        svg = tmp_path / "m.svg"
        dot = tmp_path / "m.dot"
        code = main(["layout", "--mode", "map", "--input", graph,
                     "--model", doc, "--svg", str(svg), "--dot", str(dot),
                     "--seed", "0"])
        assert code == 0
        assert b'class="umatrix"' in svg.read_bytes()
        assert dot.read_text().startswith("graph clusters {")

    def test_full_mode_deterministic(self, tmp_path, som_doc):
        graph, doc = som_doc
        svg = tmp_path / "f.svg"
        argv = ["layout", "--mode", "full", "--input", graph,
                "--model", doc, "--svg", str(svg),
                "--iterations", "40", "--seed", "3"]
        assert main(argv) == 0
        first = svg.read_bytes()
        assert main(argv) == 0
        assert svg.read_bytes() == first

    def test_map_needs_model(self, tmp_path, som_doc, capsys):
        graph, doc = som_doc
        code = main(["layout", "--mode", "map", "--input", graph,
                     "--partition", doc, "--svg", str(tmp_path / "x.svg"),
                     "--seed", "0"])
        assert code == 2
        assert "requires --model" in capsys.readouterr().err

    def test_partition_and_model_exclusive(self, tmp_path, som_doc, capsys):
        graph, doc = som_doc
        code = main(["layout", "--mode", "summary", "--input", graph,
                     "--partition", doc, "--model", doc,
                     "--svg", str(tmp_path / "x.svg"), "--seed", "0"])
        assert code == 2
        capsys.readouterr()

    def test_summary_on_plain_partition(self, tmp_path, graph_file):
        # a partition without a model block is enough for summary mode
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        svg = tmp_path / "s.svg"
        code = main(["layout", "--mode", "summary", "--input", graph_file,
                     "--partition", str(out), "--svg", str(svg),
                     "--seed", "0"])
        assert code == 0
        assert svg.exists()

    def test_full_on_plain_partition_fails(self, tmp_path, graph_file, capsys):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        code = main(["layout", "--mode", "full", "--input", graph_file,
                     "--model", str(out), "--svg", str(tmp_path / "x.svg"),
                     "--seed", "0"])
        assert code == 2
        assert "no trained map" in capsys.readouterr().err

    def test_model_matched_by_label(self, tmp_path, som_doc):
        # the same edges listed backwards put the vertices in another order
        graph, doc = som_doc
        lines = Path(graph).read_text().splitlines()
        reordered = tmp_path / "g2.tsv"
        reordered.write_text("\n".join(reversed(lines)) + "\n")
        assert load_edge_list(reordered).labels != load_edge_list(graph).labels
        pdoc = json.loads(Path(doc).read_text())
        unit_of = dict(zip(pdoc["assignment"], pdoc["model"]["assignment"]))
        cols = pdoc["model"]["grid"]["cols"]

        dot = tmp_path / "f.dot"
        assert main(["layout", "--mode", "full", "--input", str(reordered),
                     "--model", doc, "--svg", str(tmp_path / "f.svg"),
                     "--dot", str(dot), "--iterations", "40",
                     "--seed", "0"]) == 0
        pos = re.findall(r'^  "([^"]+)" \[pos="([-\d.]+),([-\d.]+)!"',
                         dot.read_text(), re.M)
        assert sorted(label for label, _, _ in pos) == sorted(unit_of)
        for label, x, y in pos:
            r, c = divmod(unit_of[label], cols)
            assert c * CELL_SIDE <= float(x) <= (c + 1) * CELL_SIDE, label
            assert r * CELL_SIDE <= float(y) <= (r + 1) * CELL_SIDE, label

        drawn = {}
        for name, source in (("g1", graph), ("g2", str(reordered))):
            svg, mdot = tmp_path / f"{name}.svg", tmp_path / f"{name}.dot"
            assert main(["layout", "--mode", "map", "--input", source,
                         "--model", doc, "--svg", str(svg),
                         "--dot", str(mdot), "--seed", "0"]) == 0
            drawn[name] = (svg.read_bytes(), mdot.read_bytes())
        assert drawn["g1"] == drawn["g2"]

    @pytest.mark.parametrize("mode", ["map", "full", "summary", "stats",
                                      "attrs"])
    def test_units_disagreeing_with_cluster_ids_exit_3(self, tmp_path, som_doc,
                                                       capsys, mode):
        # every command that reads the document checks its model block
        graph, doc = som_doc
        pdoc = json.loads(Path(doc).read_text())
        pdoc["assignment"]["n0"] = 1 - pdoc["assignment"]["n0"]
        Path(doc).write_bytes(document_bytes(pdoc))
        out = tmp_path / "x.out"
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("n0\tplace\tX\n")
        flag = "--partition" if mode == "summary" else "--model"
        argv = {"stats": ["stats", "--input", graph, "--partition", doc],
                "attrs": ["attrs", "--partition", doc, "--attributes",
                          str(attrs), "--out", str(out)]}.get(
            mode, ["layout", "--mode", mode, "--input", graph, flag, doc,
                   "--svg", str(out), "--seed", "0"])
        capsys.readouterr()
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "disagree" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["map", "full", "summary"])
    def test_unknown_vertex_exits_2(self, tmp_path, som_doc, capsys, mode):
        graph, doc = som_doc
        renamed = tmp_path / "renamed.tsv"
        renamed.write_text(Path(graph).read_text().replace("n7\t", "q\t")
                           .replace("n7\n", "q\n"))
        svg = tmp_path / "x.svg"
        flag = "--partition" if mode == "summary" else "--model"
        capsys.readouterr()
        assert main(["layout", "--mode", mode, "--input", str(renamed),
                     flag, doc, "--svg", str(svg), "--seed", "0"]) == 2
        assert "'q'" in capsys.readouterr().err
        assert not svg.exists()


class TestVersion1Documents:
    def test_same_outputs_as_version_2(self, tmp_path, capsys):
        # a version 1 document is a version 2 one plus the prototype weights;
        # older version 2 documents also kept each cluster's unit coordinate
        # in params and a second copy of params in the model block, or kept
        # the method and seed in params
        graph = clique_file(tmp_path / "g.tsv", bridge=1.0)
        v2 = tmp_path / "v2.json"
        assert main(["cluster", "--input", graph, "--method", "kernel-som",
                     "--grid", "1x2", "--beta", "0.5", "--epochs", "30",
                     "--seed", "0", "--out", str(v2)]) == 0
        model = batch_kernel_som(heat_kernel(load_edge_list(graph).laplacian(),
                                             0.5), SomGrid(1, 2), 30, seed=0)
        doc = json.loads(v2.read_text())
        assert doc["model"]["assignment"] == model.assignment.tolist()
        doc["schema_version"] = 1
        doc["model"]["gamma"] = model.gamma.tolist()
        v1 = document_bytes(doc)
        doc = json.loads(v2.read_text())
        block = doc["model"]
        doc["model"] = {"grid": block.pop("grid"), "params": dict(doc["params"]),
                        **block}
        units = np.unique(model.assignment)
        doc["params"]["unit_coords"] = SomGrid(1, 2).unit_coords[units].tolist()
        with_coords = document_bytes(doc)
        doc = json.loads(v2.read_text())
        doc["params"] = {"method": "kernel-som", "epochs": 30,
                         "radius": [1.0, 0.5], "seed": 0, "beta": 0.5}
        method_in_params = document_bytes(doc)
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("".join(f"n{i}\tplace\t{'XY'[i % 2]}\n"
                                 for i in range(8)))

        def outputs(version, data):
            # stats reports the document's path, so both versions use one
            source = tmp_path / "som.json"
            source.write_bytes(data)
            out = tmp_path / version
            out.mkdir()
            capsys.readouterr()
            assert main(["stats", "--input", graph,
                         "--partition", str(source)]) == 0
            got = {"stats": capsys.readouterr().out}
            assert main(["attrs", "--partition", str(source),
                         "--attributes", str(attrs),
                         "--out", str(out / "attrs.json")]) == 0
            for mode in ("summary", "map", "full"):
                flag = "--partition" if mode == "summary" else "--model"
                argv = ["layout", "--mode", mode, "--input", graph,
                        flag, str(source), "--svg", str(out / f"{mode}.svg"),
                        "--dot", str(out / f"{mode}.dot"), "--seed", "0"]
                if mode != "map":
                    argv += ["--iterations", "40"]
                assert main(argv) == 0
            for path in sorted(out.iterdir()):
                got[path.name] = path.read_bytes()
            return got

        expected = outputs("from-v2", v2.read_bytes())
        assert outputs("from-v1", v1) == expected
        assert outputs("with-unit-coords", with_coords) == expected
        assert outputs("method-in-params", method_in_params) == expected


class TestStatsCommand:
    def test_prints_report(self, tmp_path, graph_file, capsys):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        capsys.readouterr()
        assert main(["stats", "--input", graph_file,
                     "--partition", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "graphsom/report"
        assert doc["partition"]["q_modularity"] == 0.5
        assert doc["graph"]["vertices"] == 8

    def test_partition_for_other_graph(self, tmp_path, graph_file, capsys):
        out = tmp_path / "p.json"
        assert cluster_spectral(graph_file, out) == 0
        other = clique_file(tmp_path / "other.tsv", size=3)
        assert main(["stats", "--input", other,
                     "--partition", str(out)]) == 2
        capsys.readouterr()


def test_cli_import_loads_no_drawing_modules():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, graphsom.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('graphsom')))"],
        env=package_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "graphsom.cli" in loaded and "graphsom.pipeline" in loaded
    assert "graphsom.layout" not in loaded
    assert "graphsom.render" not in loaded


def test_no_command_imports_masked_arrays(tmp_path):
    # np.percentile, np.setdiff1d and np.unique import numpy.ma, which adds
    # to the start-up of every command that calls them
    graph = clique_file(tmp_path / "g.tsv", bridge=1.0)
    model, svg = str(tmp_path / "p.json"), str(tmp_path / "x.svg")
    table = _write(tmp_path / "t.tsv", "!schema\tage:numeric\nn0\tage\t30\n"
                   "n1\tcolour\tred\n")
    drawing = ["--input", graph, "--svg", svg, "--seed", "0"]
    commands = [
        ["cluster", "--input", graph, "--method", "kernel-som", "--grid", "2x2",
         "--epochs", "5", "--seed", "0", "--out", model,
         "--report", str(tmp_path / "r.json")],
        ["stats", "--input", graph, "--partition", model],
        ["attrs", "--partition", model, "--attributes", table,
         "--out", str(tmp_path / "s.json")],
        ["layout", "--mode", "summary", "--partition", model, *drawing],
        ["layout", "--mode", "full", "--model", model, "--iterations", "10",
         *drawing],
        ["layout", "--mode", "map", "--model", model, *drawing],
    ]
    script = ("import json, sys\n"
              "from graphsom.cli import main\n"
              "code = main(json.loads(sys.argv[1]))\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    for argv in commands:
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              env=package_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 False", (argv, proc.stderr)


def test_package_attribute_loads_only_its_home():
    """A package attribute imports its home module and that module's
    imports, nothing more."""
    script = (
        "import sys, graphsom\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('graphsom'))\n"
        "graphsom.load_edge_list\n"
        "print(loaded())\n"
        "graphsom.render_svg\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_graph, after_render = proc.stdout.splitlines()
    assert after_graph == str(["graphsom", "graphsom.errors", "graphsom.graph"])
    assert "graphsom.render" in after_render
    assert "graphsom.cluster" not in after_render
    assert "graphsom.pipeline" not in after_render


class TestParserShape:
    def test_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("cluster", "attrs", "layout", "stats"):
            assert name in text

    def test_method_choices(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["cluster", "--input", "g", "--method", "bogus",
                               "--seed", "0", "--out", "o"])
        err = capsys.readouterr().err
        for name in ("spectral", "kernel-kmeans", "spectral-som", "kernel-som"):
            assert name in err

    def test_mode_choices(self):
        parser = build_parser()
        args = parser.parse_args(["layout", "--mode", "map", "--input", "g",
                                  "--model", "m", "--svg", "s", "--seed", "4"])
        assert args.mode == "map"
        assert args.seed == 4
        assert args.dot is None and args.iterations is None


def _option_help(capsys, monkeypatch, command):
    """``command --help`` on one line per option, keyed by the option name."""
    monkeypatch.setenv("COLUMNS", "500")  # no wrapped help lines
    assert main([command, "--help"]) == 0
    options = capsys.readouterr().out.split("options:")[1]
    chunks = (" ".join(chunk.split()) for chunk in options.split("\n  --")[1:])
    return {chunk.split()[0]: chunk for chunk in chunks}


class TestDocsMatchTables:
    """README and --help state the defaults that the option tables hold."""

    def test_readme_knob_table(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text.split("Method knobs and their defaults:")[1].split("\n\n")[1]
        rows = {}
        for line in table.splitlines()[2:]:
            method, flags, defaults = (cell.strip()
                                       for cell in line.strip("|").split("|"))
            rows[method.strip("`")] = (re.findall(r"`--(\w+)`", flags),
                                       defaults.split(", "))
        assert list(rows) == list(_METHOD_KNOBS)
        for method, knobs in _METHOD_KNOBS.items():
            flags, defaults = rows[method]
            assert flags == list(knobs), method
            for name, value in knobs.items():
                if value is not None:
                    assert f"{name}={value}" in defaults, (method, name)

    def test_cluster_help(self, capsys, monkeypatch):
        helps = _option_help(capsys, monkeypatch, "cluster")
        for knobs in _METHOD_KNOBS.values():
            for name, value in knobs.items():
                if value is not None:
                    assert f"default {value})" in helps[name], name

    def test_layout_help(self, capsys, monkeypatch):
        helps = _option_help(capsys, monkeypatch, "layout")
        assert helps["mode"].startswith(
            "mode {" + ",".join(LAYOUT_ITERATIONS) + "}")
        for mode, iterations in LAYOUT_ITERATIONS.items():
            if iterations is not None:
                assert f"{iterations} {mode}" in helps["iterations"], mode


class TestDeterminism:
    def test_assignment_stable_across_blas_threads(self, tmp_path):
        # the criterion-10 landmark graph; heat-kernel bits may differ
        # between BLAS thread counts, the cluster assignment must not
        g = random_graph(615, density=0.0225, rng=np.random.default_rng(10615))
        lines = [f"{g.labels[i]}\t{g.labels[j]}\t{w!r}" for i, j, w in edge_list(g)]
        graph = tmp_path / "landmark.tsv"
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tables = []
        for threads in ("1", "2"):
            env = package_env(OPENBLAS_NUM_THREADS=threads,
                              OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"som-{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "graphsom.cli", "cluster",
                 "--input", str(graph), "--method", "kernel-som",
                 "--grid", "7x7", "--seed", "0", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            tables.append(json.loads(out.read_text())["assignment"])
        assert tables[0] == tables[1]
