"""The output comparison tool names each differing value by its key path, and
the benchmark recorder names and counts the sources it measured and gives
each metric the verdict its docstring's rule states."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_names_dotted_key_paths():
    tool = load_tool("same_outputs")
    old = {"schema": "graphsom/partition", "seed": 10,
           "model": {"grid": {"rows": 7, "cols": 7}, "energy_trace": [1.0, 0.5],
                     "umatrix": [[0.1]]},
           "params": {"grid": [7, 7]}}
    new = json.loads(json.dumps(old))
    new["model"]["energy_trace"][1] = 0.5000000000000001
    new["model"]["grid"]["cols"] = 8
    new["params"] = [7, 7]
    del new["seed"]
    new["note"] = {"added": True}
    paths = tool._differing_paths(json.dumps(old).encode(), json.dumps(new).encode())
    assert paths == ["seed", "model.grid.cols", "model.energy_trace", "params",
                     "note"]
    same = json.dumps(old).encode()
    assert tool._differing_paths(same, same) == []
    assert tool._differing_paths(b"[1]", b"[2]") is None
    assert tool._differing_paths(b"<svg/>", b"<svg></svg>") is None


def test_bench_record_hashes_the_sources(tmp_path):
    tool = load_tool("bench_record")
    trees = []
    for name in ("a", "b"):
        pkg = tmp_path / name / "src" / "pkg"
        (pkg / "__pycache__").mkdir(parents=True)
        (pkg / "__init__.py").write_bytes(b"x = 1\n")
        (pkg / "sub.py").write_bytes(b"y = 2\n")
        trees.append(str(tmp_path / name))
    assert not (tmp_path / "a" / ".git").exists()
    first = tool.src_sha256(trees[0])
    assert tool.src_sha256(trees[1]) == first
    # bytecode a run leaves behind does not count
    (tmp_path / "b" / "src" / "pkg" / "__pycache__" / "sub.pyc").write_bytes(b"\0")
    assert tool.src_sha256(trees[1]) == first
    (tmp_path / "b" / "src" / "pkg" / "sub.py").write_bytes(b"y = 3\n")
    assert tool.src_sha256(trees[1]) != first
    # moving bytes between files changes the hash too
    (tmp_path / "b" / "src" / "pkg" / "sub.py").write_bytes(b"1\ny = 2\n")
    (tmp_path / "b" / "src" / "pkg" / "__init__.py").write_bytes(b"x = ")
    assert tool.src_sha256(trees[1]) != first


def test_bench_record_counts_the_source_lines(tmp_path):
    tool = load_tool("bench_record")
    pkg = tmp_path / "src" / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "__init__.py").write_bytes(b"x = 1\ny = 2\n")
    (pkg / "sub.py").write_bytes(b"z = 3\r\n# no final newline")
    assert tool.src_lines(str(tmp_path)) == 3
    # run and install leftovers are skipped, as in the hash
    (pkg / "__pycache__" / "sub.pyc").write_bytes(b"\n\n")
    (tmp_path / "src" / "pkg.egg-info").mkdir()
    (tmp_path / "src" / "pkg.egg-info" / "SOURCES.txt").write_bytes(b"a\nb\n")
    assert tool.src_lines(str(tmp_path)) == 3
    assert [rel for rel, _ in tool.src_files(str(tmp_path))] == \
        ["pkg/__init__.py", "pkg/sub.py"]


def synthetic_runs(metrics):
    """Ten alternating pairs of runs of one workload; ``metrics`` maps each
    metric to a function of the pair giving its (parent, change) values."""
    runs = []
    for pair in range(10):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            values = {name: {"value": of(pair)[0 if side == "parent" else 1]}
                      for name, of in metrics.items()}
            runs.append({"pair": pair, "side": side, "exit_status": 0,
                         "record": {"results": {"w": {"metrics": values}}}})
    return runs


def test_bench_record_verdicts_follow_the_stated_rule():
    tool = load_tool("bench_record")
    drift = [0.99, 1.01] * 5  # the control wins 5 pairs and loses 5

    def scaled(ratios, base=1.0):
        return lambda pair: (base, base * ratios[pair])

    runs = synthetic_runs({
        "setup_s": scaled(drift),
        # 9 of 10 pairs won with every won ratio well below 1
        "pipeline_s": scaled([0.9] * 9 + [1.05]),
        # 8 of 10 pairs won: not enough
        "cluster_s": scaled([0.9] * 8 + [1.05] * 2),
        # every pair lost
        "layout_s": scaled([1.1] * 10),
        # every pair lower, by half a megabyte of 100
        "peak_rss_mb": scaled([0.995] * 10, base=100.0),
    })
    paired = tool.summary(runs)["paired"]["w"]
    assert {metric: entry["verdict"] for metric, entry in paired.items()} == {
        "setup_s": "control", "pipeline_s": "faster", "cluster_s": "no change shown",
        "layout_s": "slower", "peak_rss_mb": "no change shown"}
    pipeline = paired["pipeline_s"]
    assert pipeline["ratios"] == [0.9] * 9 + [1.05]
    assert (pipeline["pairs_won"], pipeline["pairs_lost"]) == (9, 1)
    assert pipeline["median"] == 0.9
    assert (pipeline["q1"], pipeline["q3"]) == (0.9, 0.9)
    assert paired["setup_s"]["pairs_won"] == 5
    assert paired["peak_rss_mb"]["median_difference"] == \
        pytest.approx(-0.5)

    # the same gain beside a control that drifts the same way shows nothing
    runs = synthetic_runs({"setup_s": scaled([0.95] * 8 + [1.01] * 2),
                           "pipeline_s": scaled([0.9] * 10),
                           "peak_rss_mb": scaled([0.98] * 9 + [1.0], base=100.0)})
    verdicts = {m: e["verdict"] for m, e in tool.summary(runs)["paired"]["w"].items()}
    assert verdicts == {"setup_s": "control", "pipeline_s": "no change shown",
                        "peak_rss_mb": "smaller"}

    # a run that wrote no record drops its pair from the comparison
    runs[0]["record"] = None
    assert len(tool.summary(runs)["paired"]["w"]["pipeline_s"]["ratios"]) == 9


def test_bench_record_verdicts_of_the_committed_records():
    # the two gains the records were written for, and nothing else
    tool = load_tool("bench_record")
    found = []
    for label in ("pr16", "pr22", "pr23", "pr24", "pr25", "pr26", "pr28", "pr29",
                  "pr30"):
        record = json.loads((ROOT / f"BENCH_{label}.json").read_text(encoding="utf-8"))
        for workload, metrics in tool.summary(record["runs"])["paired"].items():
            found += [(label, workload, metric, entry["verdict"])
                      for metric, entry in metrics.items()
                      if entry["verdict"] not in ("control", "no change shown")]
    assert sorted(found) == [
        ("pr16", "landmark-drawing", "layout_s", "faster"),
        ("pr16", "landmark-drawing", "pipeline_s", "faster"),
        ("pr24", "clusterings-1500", "cluster_s", "faster"),
        ("pr24", "landmark-drawing", "cluster_s", "faster")]
