"""The output comparison tool names each differing value by its key path, and
the benchmark recorder names and counts the sources it measured."""

import importlib.util
import json
from pathlib import Path

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
