import io
import json

import numpy as np
import pytest

import graphsom.linalg as linalg
import graphsom.pipeline as pipeline
from graphsom.cluster import kernel_kmeans, spectral_clustering
from graphsom.errors import ParseError, UsageError
from graphsom.graph import load_edge_list
from graphsom.linalg import heat_kernel, spectral_embedding
from graphsom.pipeline import (
    ATTRIBUTE_SUMMARY_SCHEMA,
    PARTITION_SCHEMA,
    REPORT_SCHEMA,
    _METHOD_KNOBS,
    AttributeTable,
    RunConfig,
    attribute_summary,
    document_bytes,
    load_partition_document,
    model_from_document,
    parse_attribute_table,
    partition_for_graph,
    run_attribute_summary,
    run_cluster,
    run_layout,
    run_stats,
)
from graphsom.som import SomGrid, SomModel, UMatrix, batch_kernel_som, \
    default_radius, som_partition, spectral_som, u_matrix
from graphgen import edge_list, random_graph, two_cliques


def write_cliques(path, size=10, bridge=0.0, weight=1.0):
    """Edge-list file for two complete graphs, optionally bridged."""
    lines = []
    for offset in (0, size):
        for i in range(offset, offset + size):
            for j in range(i + 1, offset + size):
                lines.append(f"v{i}\tv{j}\t{weight}")
    if bridge:
        lines.append(f"v0\tv{size}\t{bridge}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# each method's knobs, and the library call that runs it with them at seed 5
LIBRARY_RUNS = {
    "spectral": ({"k": 4, "p": 3, "restarts": 2},
                 lambda g: spectral_clustering(g, 3, 4, 5, 2)),
    "kernel-kmeans": ({"k": 4, "beta": 0.3, "restarts": 2},
                      lambda g: kernel_kmeans(heat_kernel(g.laplacian(), 0.3),
                                              4, 5, 2)),
    "spectral-som": ({"p": 3, "grid": (2, 2), "epochs": 7, "radius": (1.5, 0.5)},
                     lambda g: spectral_som(g, 3, SomGrid(2, 2), 7, (1.5, 0.5), 5)),
    "kernel-som": ({"beta": 0.3, "grid": (2, 2), "epochs": 7, "radius": (1.5, 0.5)},
                   lambda g: batch_kernel_som(heat_kernel(g.laplacian(), 0.3),
                                              SomGrid(2, 2), 7, (1.5, 0.5), 5)),
}


def config_for(tmp_path, method, **kw):
    kw.setdefault("input", str(tmp_path / "graph.tsv"))
    kw.setdefault("seed", 0)
    kw.setdefault("out", str(tmp_path / "partition.json"))
    return RunConfig(method=method, **kw)


class TestRunConfig:
    def test_unknown_method(self):
        with pytest.raises(UsageError, match="unknown method"):
            RunConfig(input="g", method="agglomerative", seed=0, out="o")

    def test_grid_required_for_som(self):
        with pytest.raises(UsageError, match="--grid is required"):
            RunConfig(input="g", method="kernel-som", seed=0, out="o")
        with pytest.raises(UsageError, match="--grid is required"):
            RunConfig(input="g", method="spectral-som", seed=0, out="o")

    def test_inapplicable_knobs_rejected(self):
        with pytest.raises(UsageError, match="--beta does not apply"):
            RunConfig(input="g", method="spectral", seed=0, out="o", beta=0.1)
        with pytest.raises(UsageError, match="--p does not apply"):
            RunConfig(input="g", method="kernel-kmeans", seed=0, out="o", p=3)
        with pytest.raises(UsageError, match="--restarts does not apply"):
            RunConfig(input="g", method="kernel-som", seed=0, out="o",
                      grid=(1, 2), restarts=5)
        with pytest.raises(UsageError, match="--k does not apply"):
            RunConfig(input="g", method="spectral-som", seed=0, out="o",
                      grid=(1, 2), k=4)

    def test_spectral_defaults(self):
        cfg = RunConfig(input="g", method="spectral", seed=7, out="o").resolved()
        assert cfg["k"] == 50
        assert cfg["p"] == 50
        assert cfg["restarts"] == 10
        assert cfg["beta"] is None and cfg["grid"] is None
        cfg = RunConfig(input="g", method="spectral", seed=7, out="o",
                        k=3).resolved()
        assert cfg["p"] == 3

    def test_kernel_som_defaults(self):
        cfg = RunConfig(input="g", method="kernel-som", seed=1, out="o",
                        grid=(2, 3)).resolved()
        assert cfg["beta"] == 0.05
        assert cfg["epochs"] == 100
        assert cfg["grid"] == {"rows": 2, "cols": 3}
        assert tuple(cfg["radius"]) == default_radius(SomGrid(2, 3))
        assert cfg["k"] is None

    def test_spectral_som_p_defaults_to_unit_count(self):
        cfg = RunConfig(input="g", method="spectral-som", seed=1, out="o",
                        grid=(2, 3)).resolved()
        assert cfg["p"] == 6
        cfg = RunConfig(input="g", method="spectral-som", seed=1, out="o",
                        grid=(2, 3), p=2).resolved()
        assert cfg["p"] == 2


class TestRunCluster:
    def test_spectral_two_cliques(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv")
        report = tmp_path / "report.json"
        config = config_for(tmp_path, "spectral", k=2, report=str(report))
        result = run_cluster(config)

        pdoc = json.loads((tmp_path / "partition.json").read_text())
        assert pdoc["schema"] == PARTITION_SCHEMA
        assert pdoc["schema_version"] == 2
        assert pdoc["method"] == "spectral"
        assert pdoc["seed"] == 0
        assert pdoc["num_clusters"] == 2
        assert len(pdoc["assignment"]) == 20
        assert "model" not in pdoc
        first_ten = {pdoc["assignment"][f"v{i}"] for i in range(10)}
        last_ten = {pdoc["assignment"][f"v{i}"] for i in range(10, 20)}
        assert len(first_ten) == 1 and len(last_ten) == 1
        assert first_ten != last_ten

        rdoc = json.loads(report.read_text())
        assert rdoc["schema"] == REPORT_SCHEMA
        assert rdoc["partition"]["q_modularity"] == 0.5
        assert rdoc["partition"]["q_modularity_unweighted"] == 0.5
        assert rdoc["partition"]["num_clusters"] == 2
        assert rdoc["partition"]["num_singletons"] == 0
        assert rdoc["partition"]["max_size"] == 10
        assert rdoc["graph"] == {"vertices": 20, "edges": 90,
                                 "total_weight": 90.0}
        assert rdoc["config"]["k"] == 2
        assert rdoc["config"]["input"] == str(tmp_path / "graph.tsv")
        assert result["report"] == rdoc

    def test_kernel_som_writes_model_block(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv")
        config = config_for(tmp_path, "kernel-som", grid=(1, 2), beta=0.5)
        run_cluster(config)
        pdoc = json.loads((tmp_path / "partition.json").read_text())
        assert pdoc["num_clusters"] == 2
        block = pdoc["model"]
        assert block["grid"] == {"rows": 1, "cols": 2}
        assert "gamma" not in block
        assert len(block["assignment"]) == 20
        # the method's parameters are stored once, at the top level
        assert "params" not in block
        model = model_from_document(pdoc)
        assert model.grid.num_units == 2
        np.testing.assert_array_equal(model.assignment,
                                      np.array(block["assignment"]))

    def test_model_block_round_trips_umatrix(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv", size=4, bridge=1.0)
        config = config_for(tmp_path, "kernel-som", grid=(2, 2), beta=0.5,
                            epochs=20)
        run_cluster(config)
        pdoc = json.loads((tmp_path / "partition.json").read_text())
        block = pdoc["model"]
        assert list(block) == ["grid", "energy_trace", "assignment", "umatrix"]
        model = model_from_document(pdoc)
        np.testing.assert_array_equal(model.umatrix.values,
                                      np.array(block["umatrix"]))
        assert model.umatrix.values.shape == (2, 2)

    def test_kernel_kmeans_default_beta_recorded(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv", size=4)
        config = config_for(tmp_path, "kernel-kmeans", k=2,
                            report=str(tmp_path / "report.json"))
        result = run_cluster(config)
        assert result["report"]["config"]["beta"] == 0.05
        assert result["partition"]["method"] == "kernel-kmeans"

    @pytest.mark.parametrize("method", list(_METHOD_KNOBS))
    def test_params_are_the_method_knobs(self, tmp_path, method):
        write_cliques(tmp_path / "graph.tsv", size=4)
        knobs = ({"grid": (1, 2), "epochs": 5} if "grid" in _METHOD_KNOBS[method]
                 else {"k": 2, "restarts": 2})
        config = config_for(tmp_path, method, seed=3,
                            report=str(tmp_path / "report.json"), **knobs)
        run_cluster(config)
        pdoc = json.loads((tmp_path / "partition.json").read_text())
        cfg = json.loads((tmp_path / "report.json").read_text())["config"]
        assert pdoc["method"] == method and pdoc["seed"] == 3
        expected = {knob: cfg[knob] for knob in _METHOD_KNOBS[method]}
        assert list(pdoc["params"].items()) == list(expected.items())
        assert "method" not in pdoc["params"] and "seed" not in pdoc["params"]

    @pytest.mark.parametrize("method", list(LIBRARY_RUNS))
    def test_matches_the_library_function(self, tmp_path, method):
        # a graph with no clear clusters, where every knob moves the result
        g = random_graph(24, density=0.2, rng=4)
        (tmp_path / "graph.tsv").write_text(
            "".join(f"{g.labels[i]}\t{g.labels[j]}\t{w!r}\n" for i, j, w in edge_list(g)),
            encoding="utf-8")
        knobs, run = LIBRARY_RUNS[method]
        pdoc = run_cluster(config_for(tmp_path, method, seed=5, **knobs))["partition"]
        g = load_edge_list(tmp_path / "graph.tsv")
        result = run(g)
        if isinstance(result, SomModel):
            part = som_partition(result)
            assert pdoc["model"] == {
                "grid": {"rows": 2, "cols": 2},
                "energy_trace": result.energy_trace.tolist(),
                "assignment": result.assignment.tolist(),
                "umatrix": result.umatrix.values.tolist()}
        else:
            part = result.partition
            assert "model" not in pdoc
        assert pdoc["num_clusters"] == part.k
        assert pdoc["assignment"] == dict(zip(g.labels, part.assignment.tolist()))

    @pytest.mark.parametrize("method, beta", [
        *((method, None) for method in LIBRARY_RUNS),
        ("kernel-kmeans", 0.0), ("kernel-som", 0.0)])
    def test_features_come_from_one_eigensolve(self, tmp_path, monkeypatch,
                                                method, beta):
        # the engine receives spectral_embedding(L, p) or heat_kernel(L, beta),
        # bit for bit, from the one eigensolve of the run (none at beta 0)
        write_cliques(tmp_path / "graph.tsv", size=4, bridge=1.0)
        knobs = dict(LIBRARY_RUNS[method][0])
        if beta is not None:
            knobs["beta"] = beta
        solves, handed = [], []
        real_eigensolve = linalg.eigendecompose_symmetric

        def eigensolve(m):
            solves.append(m)
            return real_eigensolve(m)

        def spy(real_engine):
            def engine(features, *args):
                handed.append(features)
                return real_engine(features, *args)
            return engine

        monkeypatch.setattr(linalg, "eigendecompose_symmetric", eigensolve)
        for name in ("kmeans", "batch_som"):
            monkeypatch.setattr(pipeline, name, spy(getattr(pipeline, name)))
        run_cluster(config_for(tmp_path, method, seed=5, **knobs))
        assert len(solves) == (0 if beta == 0.0 else 1)
        lap = load_edge_list(tmp_path / "graph.tsv").laplacian()
        [features] = handed
        if "p" in knobs:
            expected = spectral_embedding(lap, knobs["p"])
            assert features.dtype == expected.dtype
            assert features.tobytes() == expected.tobytes()
        else:
            assert (features.matrix.tobytes()
                    == heat_kernel(lap, knobs["beta"]).matrix.tobytes())

    def test_repeat_runs_byte_identical(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv", size=5)
        config = config_for(tmp_path, "kernel-som", grid=(1, 2), beta=0.5,
                            epochs=30)
        run_cluster(config)
        first = (tmp_path / "partition.json").read_bytes()
        run_cluster(config)
        assert (tmp_path / "partition.json").read_bytes() == first

    def test_missing_input_is_parse_error(self, tmp_path):
        config = config_for(tmp_path, "spectral", k=2,
                            input=str(tmp_path / "absent.tsv"))
        with pytest.raises(ParseError, match="cannot read"):
            run_cluster(config)

    def test_k_larger_than_graph_rejected(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv", size=3)
        config = config_for(tmp_path, "spectral")  # default k=50 > 6 vertices
        with pytest.raises(ValueError):
            run_cluster(config)


class TestPartitionDocuments:
    def partition_doc(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv")
        run_cluster(config_for(tmp_path, "spectral", k=2))
        return tmp_path / "partition.json"

    def test_load_and_rebuild(self, tmp_path):
        path = self.partition_doc(tmp_path)
        doc = load_partition_document(path)
        g = two_cliques(10)
        part = partition_for_graph(doc, g)
        assert part.k == 2
        assert part.num_vertices == 20

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_partition_document(bad)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "-1e400"])
    def test_non_finite_number(self, tmp_path, literal):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "graphsom/partition", "assignment": {"a": 0}, '
                       f'"params": {{"beta": {literal}}}}}')
        with pytest.raises(ParseError, match=f"^{literal} is not a finite JSON number"):
            load_partition_document(bad)

    def test_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "graphsom/report", "assignment": {"a": 0}}')
        with pytest.raises(ParseError, match="not a partition document"):
            load_partition_document(bad)

    def test_missing_assignment(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "graphsom/partition"}')
        with pytest.raises(ParseError, match="assignment"):
            load_partition_document(bad)

    def test_non_integer_cluster_id(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "graphsom/partition", '
                       '"assignment": {"a": "zero"}}')
        with pytest.raises(ParseError, match="integer"):
            load_partition_document(bad)

    def test_vertex_mismatch_named(self, tmp_path):
        path = self.partition_doc(tmp_path)
        doc = load_partition_document(path)
        bigger = two_cliques(11)
        with pytest.raises(UsageError, match="does not cover vertex 'v20'"):
            partition_for_graph(doc, bigger)
        smaller = two_cliques(9)
        with pytest.raises(UsageError, match="not in the graph"):
            partition_for_graph(doc, smaller)

    def test_cluster_id_out_of_range(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": PARTITION_SCHEMA,
            "num_clusters": 1,
            "assignment": {f"v{i}": (1 if i == 0 else 0) for i in range(20)}}))
        with pytest.raises(ParseError, match="num_clusters"):
            load_partition_document(bad)

    def test_params_must_be_an_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "graphsom/partition", "params": "x", '
                       '"assignment": {"a": 0}}')
        with pytest.raises(ParseError, match="params"):
            load_partition_document(bad)

    def test_model_block_required(self, tmp_path):
        path = self.partition_doc(tmp_path)
        assert "model" not in load_partition_document(path)
        with pytest.raises(UsageError, match="no trained map"):
            run_layout("map", tmp_path / "graph.tsv", model_path=path,
                       svg_path=tmp_path / "map.svg", seed=0)
        assert not (tmp_path / "map.svg").exists()

    def test_malformed_model_block(self):
        # a unit outside the 1x2 grid, one vertex too few, unit ids that are
        # no JSON integers (or overflow int64), then trace entries that are
        # no JSON numbers; numpy would read each of the odd types as a number
        for units, trace in (([0, 2], []), ([0], []), ([0.9, 1.2], []),
                             ([False, True], []), (["0", "1"], []),
                             ([0, 2 ** 70], []), ([0, 1], ["0.5"]),
                             ([0, 1], [True]), ([0, 1], [10 ** 400]),
                             ([0, 1], "0.5")):
            doc = {"assignment": {"a": 0, "b": 1},
                   "model": {"grid": {"rows": 1, "cols": 2},
                             "assignment": units,
                             "energy_trace": trace}}
            with pytest.raises(ParseError, match="malformed model block"):
                model_from_document(doc)

    @pytest.mark.parametrize("umatrix", [
        [[0.1, 0.2, 0.3]], [[0.1], [0.2]], [0.1, 0.2], [[0.1, -0.2]],
        [[0.1, float("nan")]], [[0.1, None]], "flat", [[0.1, "0.2"]],
        [[0.1, True]], [[0.1, 10 ** 400]]],
        ids=["wide", "tall", "1-D", "negative", "nan", "null", "string",
             "string-entry", "true", "huge"])
    def test_malformed_umatrix(self, umatrix):
        doc = {"assignment": {"a": 0, "b": 1},
               "model": {"grid": {"rows": 1, "cols": 2},
                         "assignment": [0, 1],
                         "energy_trace": [0.0],
                         "umatrix": umatrix}}
        with pytest.raises(ParseError, match="malformed model block"):
            model_from_document(doc)

    @staticmethod
    def hand_doc(rows=1, cols=2):
        return {"assignment": {"a": 0, "b": 1},
                "model": {"grid": {"rows": rows, "cols": cols},
                          "assignment": [0, 1],
                          "energy_trace": [0.0],
                          "umatrix": [[0.1, 0.1]]}}

    @pytest.mark.parametrize("size", [2.9, "2", True, 0, None],
                             ids=["2.9", "string", "true", "0", "null"])
    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_grid_size_must_be_integer(self, key, size):
        # every size the int() of a bad value gives would fit this block
        doc = self.hand_doc()
        doc["model"]["grid"][key] = size
        doc["model"]["assignment"] = [0, 0]
        del doc["model"]["umatrix"]
        with pytest.raises(ParseError, match="malformed model block"):
            model_from_document(doc)

    @pytest.mark.parametrize("table", [{"a": 0, "b": 0}, {"a": 1, "b": 0},
                                       {"b": 1, "a": 0}])
    def test_units_must_give_the_cluster_ids(self, table):
        # one id changed, the ids swapped, then the label table reordered
        doc = self.hand_doc()
        doc["assignment"] = table
        with pytest.raises(ParseError, match="disagree"):
            model_from_document(doc)

    @pytest.mark.parametrize("k", [1, 3])
    def test_num_clusters_must_count_the_nonempty_units(self, k):
        # a map drawing has one glyph per nonempty unit and per cluster
        doc = self.hand_doc()
        doc["num_clusters"] = k
        with pytest.raises(ParseError, match="num_clusters"):
            model_from_document(doc)
        doc["num_clusters"] = 2
        assert model_from_document(doc).num_vertices == 2

    def test_model_from_document_has_no_gamma(self):
        model = model_from_document(self.hand_doc())
        assert model.gamma is None
        assert model.num_vertices == 2
        np.testing.assert_array_equal(model.umatrix.values, [[0.1, 0.1]])
        with pytest.raises(ValueError, match="model.umatrix"):
            u_matrix(model, np.eye(2))


class TestLineEndings:
    """CRLF and bare-CR files parse exactly as LF files do."""

    EDGES = ["# weighted ties", "a\tb\t2.5", "", "b\tc", "c\ta\t0.75"]
    ATTRIBUTES = ["!schema\tdate:numeric", "# comment", "a\tdate\t1300",
                  "", "a\tplace\tX", "b\tplace\tY"]

    @staticmethod
    def write(path, lines, newline):
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        return path

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_edge_list(self, tmp_path, newline):
        lf = load_edge_list(self.write(tmp_path / "lf.tsv", self.EDGES, "\n"))
        other = load_edge_list(self.write(tmp_path / "other.tsv", self.EDGES, newline))
        assert other.labels == lf.labels == ("a", "b", "c")
        for got, want in zip(other.edge_arrays, lf.edge_arrays):
            assert got.tobytes() == want.tobytes()
        bad = self.write(tmp_path / "bad.tsv", [*self.EDGES, "c\td\tx"], newline)
        with pytest.raises(ParseError, match="line 6: unparseable weight 'x'$"):
            load_edge_list(bad)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_attribute_table(self, tmp_path, newline):
        lf = parse_attribute_table(self.write(tmp_path / "lf.tsv", self.ATTRIBUTES, "\n"))
        other = parse_attribute_table(
            self.write(tmp_path / "other.tsv", self.ATTRIBUTES, newline))
        assert (other.numeric_keys, other.categorical_keys) == (("date",), ("place",))
        assert (lf.numeric_keys, lf.categorical_keys) == (("date",), ("place",))
        assert other.records == lf.records == {"a": {"date": 1300.0, "place": "X"},
                                               "b": {"place": "Y"}}
        bad = self.write(tmp_path / "bad.tsv", [*self.ATTRIBUTES, "c\tdate\tsoon"],
                         newline)
        with pytest.raises(ParseError, match="line 7: numeric key 'date'"):
            parse_attribute_table(bad)

    def test_other_line_separators_stay_in_their_line(self, tmp_path):
        # str.splitlines would also break at each of these
        seps = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
        edges = self.write(tmp_path / "g.tsv", [
            f"# from the 1310 charter{seps}(second scribe)", "anna\x85x\tbruno\t1.0",
            "bruno\tcarla", "carla\tanna\x85x\tsoon"], "\r\n")
        with pytest.raises(ParseError, match="^line 4: unparseable weight 'soon'$"):
            load_edge_list(edges)
        table = self.write(tmp_path / "t.tsv", [
            "!schema\tdate:numeric", f"# note{seps}x", f"anna\x85x\tplace\tby{seps}sea",
            "anna\x85x\tdate\tsoon"], "\n")
        with pytest.raises(ParseError, match="^line 4: numeric key 'date'"):
            parse_attribute_table(table)
        table.write_text(f"a\tplace\tby{seps}sea\n", encoding="utf-8")
        assert parse_attribute_table(table).records == {"a": {"place": f"by{seps}sea"}}


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark parses as one without."""

    BOM = b"\xef\xbb\xbf"
    TRIANGLE = b"anna\tbruno\t2.0\nbruno\tcarla\t1.5\ncarla\tanna\t1.0\n"

    def test_edge_list(self, tmp_path):
        plain = load_edge_list(io.BytesIO(self.TRIANGLE))
        path = tmp_path / "bom.tsv"
        path.write_bytes(self.BOM + self.TRIANGLE)
        text = (self.BOM + self.TRIANGLE).decode("utf-8")
        for source in (path, io.BytesIO(self.BOM + self.TRIANGLE), io.StringIO(text)):
            g = load_edge_list(source)
            assert g.labels == plain.labels == ("anna", "bruno", "carla")
            for got, want in zip(g.edge_arrays, plain.edge_arrays):
                assert got.tobytes() == want.tobytes()

    def test_only_one_mark_is_dropped(self):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(io.BytesIO(self.BOM + "\ufeff\n".encode() + self.TRIANGLE))

    def test_attribute_table(self, tmp_path):
        path = tmp_path / "attrs.tsv"
        path.write_bytes(self.BOM + b"!schema\tera:numeric\nanna\tera\t1310\n")
        table = parse_attribute_table(path)
        assert table.numeric_keys == ("era",)
        assert table.records == {"anna": {"era": 1310.0}}

    def test_document(self, tmp_path):
        g = load_edge_list(io.BytesIO(self.TRIANGLE))
        doc = {"schema": PARTITION_SCHEMA, "schema_version": 2,
               "assignment": {"anna": 0, "bruno": 0, "carla": 1}}
        path = tmp_path / "part.json"
        path.write_bytes(self.BOM + json.dumps(doc).encode("utf-8"))
        part = partition_for_graph(load_partition_document(path), g)
        assert part.assignment.tolist() == [0, 0, 1]


class TestAttributeTable:
    def table_text(self):
        return "\n".join([
            "!schema\tdate:numeric\tlocation:categorical",
            "# comment line",
            "a\tdate\t1300",
            "a\tlocation\tX",
            "b\tdate\t1320",
            "b\tlocation\tX",
            "c\tlocation\tY",
            "",
        ])

    def test_parse_types(self):
        table = parse_attribute_table(io.StringIO(self.table_text()))
        assert table.numeric_keys == ("date",)
        assert table.categorical_keys == ("location",)
        assert table.records["a"]["date"] == 1300.0
        assert table.records["c"]["location"] == "Y"

    def test_undeclared_key_is_categorical(self):
        table = parse_attribute_table(io.StringIO("a\tcolor\tred\n"))
        assert table.categorical_keys == ("color",)
        assert table.records["a"]["color"] == "red"

    def test_numeric_value_errors(self):
        text = "!schema\tdate:numeric\na\tdate\tsoon\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_attribute_table(io.StringIO(text))
        text = "!schema\tdate:numeric\na\tdate\tinf\n"
        with pytest.raises(ParseError, match="non-finite"):
            parse_attribute_table(io.StringIO(text))

    def test_schema_line_errors(self):
        with pytest.raises(ParseError, match="schema entry"):
            parse_attribute_table(io.StringIO("!schema\tdate\n"))
        with pytest.raises(ParseError, match="unknown attribute type"):
            parse_attribute_table(io.StringIO("!schema\tdate:real\n"))
        with pytest.raises(ParseError, match="both"):
            parse_attribute_table(
                io.StringIO("!schema\tdate:numeric\tdate:categorical\n"))
        with pytest.raises(ParseError, match="first content line"):
            parse_attribute_table(
                io.StringIO("a\tk\tv\n!schema\tdate:numeric\n"))

    def test_malformed_rows(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_attribute_table(io.StringIO("a\tonly-two\n"))
        with pytest.raises(ParseError, match="duplicate"):
            parse_attribute_table(io.StringIO("a\tk\tv\na\tk\tw\n"))
        with pytest.raises(ParseError, match="no records"):
            parse_attribute_table(io.StringIO("# nothing\n"))

    def summary_doc(self):
        partition = {"schema": PARTITION_SCHEMA, "num_clusters": 2,
                     "assignment": {"a": 0, "b": 0, "c": 1}}
        table = parse_attribute_table(io.StringIO(self.table_text()))
        return attribute_summary(partition, table)

    def test_two_point_statistics(self):
        doc = self.summary_doc()
        assert doc["schema"] == ATTRIBUTE_SUMMARY_SCHEMA
        date0 = doc["clusters"][0]["numeric"]["date"]
        assert date0["count"] == 2
        assert date0["missing"] == 0
        assert date0["mean"] == pytest.approx(1310.0)
        assert date0["std"] == pytest.approx(10.0)

    def test_missing_values_reported(self):
        doc = self.summary_doc()
        date1 = doc["clusters"][1]["numeric"]["date"]
        assert date1 == {"count": 0, "missing": 1, "mean": None, "std": None}

    def test_categorical_distribution(self):
        partition = {"schema": PARTITION_SCHEMA, "num_clusters": 1,
                     "assignment": {"a": 0, "b": 0, "c": 0}}
        text = "a\tloc\tX\nb\tloc\tX\nc\tloc\tY\n"
        table = parse_attribute_table(io.StringIO(text))
        doc = attribute_summary(partition, table)
        dist = doc["clusters"][0]["categorical"]["loc"]["distribution"]
        assert dist == [
            {"value": "X", "count": 2, "fraction": pytest.approx(2 / 3)},
            {"value": "Y", "count": 1, "fraction": pytest.approx(1 / 3)},
        ]

    def test_unknown_vertex_named(self):
        partition = {"schema": PARTITION_SCHEMA, "num_clusters": 1,
                     "assignment": {"a": 0}}
        table = parse_attribute_table(io.StringIO("ghost\tk\tv\n"))
        with pytest.raises(UsageError, match="ghost"):
            attribute_summary(partition, table)

    def test_run_writes_document(self, tmp_path):
        write_cliques(tmp_path / "graph.tsv", size=2)
        run_cluster(config_for(tmp_path, "spectral", k=2))
        attrs = tmp_path / "attrs.tsv"
        attrs.write_text("!schema\tdate:numeric\nv0\tdate\t1300\n"
                         "v1\tdate\t1320\nv2\tdate\t1400\n")
        out = tmp_path / "summary.json"
        doc = run_attribute_summary(tmp_path / "partition.json", attrs, out)
        assert json.loads(out.read_text()) == doc


class TestRunLayoutAndStats:
    def som_doc(self, tmp_path, size=5, bridge=1.0):
        write_cliques(tmp_path / "graph.tsv", size=size, bridge=bridge)
        config = config_for(tmp_path, "kernel-som", grid=(1, 2), beta=0.5,
                            epochs=30)
        run_cluster(config)
        return tmp_path / "partition.json"

    def test_summary_layout(self, tmp_path):
        doc = self.som_doc(tmp_path)
        svg = tmp_path / "out.svg"
        scene = run_layout("summary", tmp_path / "graph.tsv",
                           partition_path=doc, svg_path=svg, seed=0)
        data = svg.read_bytes()
        assert data.startswith(b'<?xml')
        assert scene.num_items >= 1

    def test_map_layout_has_umatrix(self, tmp_path):
        doc = self.som_doc(tmp_path)
        svg = tmp_path / "map.svg"
        dot = tmp_path / "map.dot"
        run_layout("map", tmp_path / "graph.tsv", model_path=doc,
                   svg_path=svg, dot_path=dot, seed=0)
        data = svg.read_bytes()
        assert b'class="umatrix"' in data
        assert b'class="glyphs"' in data
        assert dot.read_bytes().startswith(b"graph clusters {")

    @pytest.mark.parametrize("mode, built", [("map", (1, 2, 1)), ("full", (2, 1, 2))],
                             ids=["map", "full"])
    def test_drawing_builds_the_stored_map_once(self, tmp_path, monkeypatch, mode,
                                                built):
        # maps, u-matrices and partitions: the map is read once in label-table
        # order, and only the full drawing puts it in graph order again; the
        # map drawing's second u-matrix is its enlarged raster
        doc = self.som_doc(tmp_path)
        counts = dict.fromkeys(("map", "umatrix", "partition"), 0)

        def counting(key, call):
            def wrapped(*args):
                counts[key] += 1
                return call(*args)
            return wrapped

        monkeypatch.setattr(SomModel, "__post_init__",
                            counting("map", SomModel.__post_init__))
        monkeypatch.setattr(UMatrix, "__post_init__",
                            counting("umatrix", UMatrix.__post_init__))
        for module in ("graphsom.pipeline", "graphsom.layout"):
            monkeypatch.setattr(f"{module}.som_partition",
                                counting("partition", som_partition))
        run_layout(mode, tmp_path / "graph.tsv", model_path=doc,
                   svg_path=tmp_path / "out.svg",
                   iterations=10 if mode == "full" else None, seed=0)
        assert (counts["map"], counts["umatrix"], counts["partition"]) == built

    def test_map_layout_runs_no_eigensolve(self, tmp_path, monkeypatch):
        doc = self.som_doc(tmp_path)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("map mode must draw the stored u-matrix")

        monkeypatch.setattr("graphsom.linalg.eigendecompose_symmetric",
                            no_eigensolve)
        svg = tmp_path / "map.svg"
        run_layout("map", tmp_path / "graph.tsv", model_path=doc,
                   svg_path=svg, seed=0)
        assert b'class="umatrix"' in svg.read_bytes()

    def test_document_without_umatrix(self, tmp_path):
        # documents written before maps kept their u-matrix
        doc = self.som_doc(tmp_path)
        pdoc = json.loads(doc.read_text())
        del pdoc["model"]["umatrix"]
        doc.write_bytes(document_bytes(pdoc))
        graph = tmp_path / "graph.tsv"
        run_layout("full", graph, model_path=doc,
                   svg_path=tmp_path / "full.svg", iterations=10, seed=0)
        assert (tmp_path / "full.svg").exists()
        with pytest.raises(UsageError, match="re-run cluster"):
            run_layout("map", graph, model_path=doc,
                       svg_path=tmp_path / "map.svg", seed=0)
        assert not (tmp_path / "map.svg").exists()

    def test_full_layout_deterministic(self, tmp_path):
        doc = self.som_doc(tmp_path)
        svg = tmp_path / "full.svg"
        run_layout("full", tmp_path / "graph.tsv", model_path=doc,
                   svg_path=svg, iterations=40, seed=5)
        first = svg.read_bytes()
        run_layout("full", tmp_path / "graph.tsv", model_path=doc,
                   svg_path=svg, iterations=40, seed=5)
        assert svg.read_bytes() == first
        assert b'class="cells"' in first

    def test_mode_validation(self, tmp_path):
        doc = self.som_doc(tmp_path)
        graph = tmp_path / "graph.tsv"
        svg = tmp_path / "x.svg"
        with pytest.raises(UsageError, match="unknown mode"):
            run_layout("orbit", graph, partition_path=doc, svg_path=svg)
        with pytest.raises(UsageError, match="exactly one"):
            run_layout("summary", graph, svg_path=svg)
        with pytest.raises(UsageError, match="exactly one"):
            run_layout("summary", graph, partition_path=doc, model_path=doc,
                       svg_path=svg)
        with pytest.raises(UsageError, match="requires --model"):
            run_layout("map", graph, partition_path=doc, svg_path=svg)
        with pytest.raises(UsageError, match="does not apply"):
            run_layout("map", graph, model_path=doc, svg_path=svg,
                       iterations=10)
        with pytest.raises(ValueError, match="iterations must be at least 1"):
            run_layout("full", graph, model_path=doc, svg_path=svg,
                       iterations=0)
        assert not svg.exists()

    def test_model_trained_elsewhere_rejected(self, tmp_path):
        doc = self.som_doc(tmp_path)
        other = tmp_path / "other.tsv"
        write_cliques(other, size=3)
        with pytest.raises(UsageError, match="not in the graph"):
            run_layout("full", other, model_path=doc,
                       svg_path=tmp_path / "x.svg", seed=0)
        assert not (tmp_path / "x.svg").exists()

    def test_stats_roundtrip(self, tmp_path):
        doc_path = self.som_doc(tmp_path, bridge=0.0)
        report = run_stats(tmp_path / "graph.tsv", doc_path)
        assert report["schema"] == REPORT_SCHEMA
        assert report["partition"]["q_modularity"] == 0.5
        assert report["config"]["method"] == "kernel-som"
        assert report["graph"]["vertices"] == 10

    def test_document_bytes_stable(self):
        doc = {"schema": "x", "value": 0.5, "items": [1, 2, 3]}
        data = document_bytes(doc)
        assert data == document_bytes(doc)
        assert data.endswith(b"\n")
        assert json.loads(data.decode("utf-8")) == doc
