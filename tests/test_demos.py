"""Smoke test: every demo script, and README's library example, runs to
completion against this graphsom."""

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
