"""Every Python file of the project parses under the oldest supported grammar.

``pyproject.toml`` allows Python 3.10. This test parses each ``.py`` file
under ``src/``, ``tests/``, ``tools/`` and ``demos/`` with
``ast.parse(..., feature_version=(3, 10))``, which rejects syntax that the
parser limits to newer versions, such as ``except*`` (3.11) or ``type``
aliases (3.12). It is not a run under Python 3.10: the newer interpreter's
grammar is only approximately limited, and a library name that 3.10 lacks
(``tomllib``, ``typing.Self``) still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "tools", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "layout.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
