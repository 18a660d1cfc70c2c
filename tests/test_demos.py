"""Smoke test: every demo script, and README's quick start and library
example, runs to completion against this graphsom."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import package_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
# demos that write files take an output directory
WRITES_FILES = ("full_pipeline.py", "som_map.py")


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(tmp_path, name):
    argv = [sys.executable, str(DEMOS / name)]
    if name in WRITES_FILES:
        argv += ["--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(argv, cwd=tmp_path, env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_exits_zero(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n")[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_exits_zero(tmp_path):
    # both sh blocks, in order in one directory, with a graphsom command on
    # PATH that runs this graphsom
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "\n## Quick start\n")[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```sh\n")[1:]]
    assert len(blocks) == 2
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "graphsom"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m graphsom.cli "$@"\n')
    shim.chmod(0o755)
    env = package_env(PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    work = tmp_path / "work"
    work.mkdir()
    printed = []
    for block in blocks:
        proc = subprocess.run(["sh", "-e", "-c", block], cwd=work, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    # the first block's stats prints its report; nothing else prints
    assert json.loads(printed[0])["schema"] == "graphsom/report"
    assert printed[1] == ""
    for name in ("partition.json", "report.json", "clusters.svg", "som.json",
                 "map.svg", "full.svg"):
        assert (work / name).stat().st_size > 0, name
