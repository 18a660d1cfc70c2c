"""The public surface: every exported name resolves, and every function the
benchmark tracer wraps still exists under its name."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import graphsom

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(graphsom.__path__))


def _tracer_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"graphsom.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_is_the_home_objects():
    modules = [importlib.import_module(f"graphsom.{n}") for n in SUBMODULES]
    for name in graphsom.__all__:
        if name == "__version__":
            continue
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, f"{name} is exported by {len(homes)} modules"
        assert getattr(graphsom, name) is getattr(homes[0], name), name


@pytest.mark.parametrize("layer, names", sorted(_tracer_layers().items()))
def test_traced_functions_exist(layer, names):
    module = importlib.import_module(f"graphsom.{layer}")
    for fname in names:
        assert inspect.isfunction(getattr(module, fname, None)), \
            f"graphsom.{layer}.{fname}"
