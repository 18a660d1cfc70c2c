"""The public surface: ``graphsom._HOMES`` declares each exported name once,
in the module that defines it, and every function the benchmark tracer
wraps still exists under its name."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import graphsom


def _tracer_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _top_level_names(module):
    """The names a module's own top-level statements bind, imports aside."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", sorted(graphsom._HOMES))
def test_module_all_resolves(name):
    """Each name that ``_HOMES`` gives a module is defined by that module's
    own top-level code, not imported into it."""
    module = importlib.import_module(f"graphsom.{name}")
    assert sorted(set(graphsom._HOMES[name]) - _top_level_names(module)) == []


def test_package_all_is_the_home_objects():
    declared = [n for names in graphsom._HOMES.values() for n in names]
    assert len(declared) == len(set(declared)), "a name with two homes"
    assert sorted(graphsom.__all__) == sorted([*declared, "__version__"])
    for home, names in graphsom._HOMES.items():
        module = importlib.import_module(f"graphsom.{home}")
        for name in names:
            assert getattr(graphsom, name) is getattr(module, name), name


@pytest.mark.parametrize("layer, names", sorted(_tracer_layers().items()))
def test_traced_functions_exist(layer, names):
    module = importlib.import_module(f"graphsom.{layer}")
    for fname in names:
        assert inspect.isfunction(getattr(module, fname, None)), \
            f"graphsom.{layer}.{fname}"
