"""Per-layer spans taken from outside the program.

The tracer replaces each public function listed in ``LAYERS`` with a wrapper,
at every name under which a ``graphsom`` module holds it, so calls made
through the names the callers import (``graphsom.pipeline.heat_kernel``,
``graphsom.cluster.spectral_embedding``, ...) are timed. The program's own
files are not changed. A span's self time is its duration minus the time of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

# layer (the graphsom module) -> public functions timed in that layer
LAYERS = {
    "graph": ("load_edge_list", "summary_graph"),
    "linalg": ("eigendecompose_symmetric", "heat_kernel", "spectral_embedding"),
    "cluster": ("kmeans", "kernel_kmeans", "q_modularity", "partition_stats"),
    "som": ("batch_kernel_som", "batch_som", "u_matrix", "som_partition"),
    "layout": ("constrained_full_layout", "force_directed_layout",
               "som_map_scene"),
    "render": ("render_svg", "export_dot"),
    "pipeline": ("document_bytes", "read_document", "model_from_document",
                 "partition_for_graph", "parse_attribute_table",
                 "attribute_summary"),
}

COUNTERS = ("graph.edges_parsed", "linalg.eigh_calls", "linalg.dense_bytes",
            "cluster.lloyd_iterations", "som.epochs", "som.units",
            "som.nonempty_units", "layout.iterations",
            "layout.repulsion_pairs", "render.svg_bytes",
            "pipeline.bytes_written")


class MissingFunction(RuntimeError):
    """A function the trace must wrap no longer exists under its name."""


def _count(counters, name, args, result):
    """Add the work counts one finished call contributes."""
    if name == "graph.load_edge_list":
        counters["graph.edges_parsed"] += result.num_edges
    elif name == "linalg.eigendecompose_symmetric":
        counters["linalg.eigh_calls"] += 1
        counters["linalg.dense_bytes"] += result.eigenvalues.size ** 2 * 8
    elif name in ("cluster.kmeans", "cluster.kernel_kmeans"):
        counters["cluster.lloyd_iterations"] += result.iterations
    elif name in ("som.batch_kernel_som", "som.batch_som"):
        counters["som.epochs"] += result.energy_trace.size
        counters["som.units"] += result.grid.num_units
        counters["som.nonempty_units"] += int(
            np.count_nonzero(result.unit_counts()))
    elif name == "layout.constrained_full_layout":
        counters["layout.iterations"] += args["iterations"]
        sizes = np.bincount(args["model"].assignment)
        counters["layout.repulsion_pairs"] += int((sizes ** 2).sum())
    elif name == "layout.force_directed_layout":
        counters["layout.iterations"] += args["iterations"]
    elif name == "render.render_svg":
        counters["render.svg_bytes"] += len(result)
    elif name == "pipeline.document_bytes":
        counters["pipeline.bytes_written"] += len(result)


class Tracer:
    """Aggregated spans and counters of the calls made while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_s = []  # time of finished children, one slot per open span
        self._patches = []

    def _wrap(self, name, func):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            _count(self.counters, name, bound.arguments, result)
            return result

        return wrapper

    def install(self):
        """Wrap every listed function; fail if one of them is missing."""
        package = importlib.import_module("graphsom")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"graphsom.{info.name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "graphsom" or key.startswith("graphsom.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"graphsom.{layer}")
            for fname in names:
                func = getattr(home, fname, None)
                if not inspect.isfunction(func):
                    self.uninstall()
                    raise MissingFunction(
                        f"graphsom.{layer}.{fname} is not a function; "
                        f"the {layer} layer would drop out of the trace")
                wrapper = self._wrap(f"{layer}.{fname}", func)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            self._patches.append((module, attr, func))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, func = self._patches.pop()
            setattr(module, attr, func)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict[str, float]:
        """Calls, total and self time per function, then the counters."""
        out = {}
        for layer, names in LAYERS.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.total_s"] = self.total_s[name]
                out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        som_s = (self.total_s["som.batch_kernel_som"]
                 + self.total_s["som.batch_som"])
        out["som.s_per_epoch"] = som_s / max(self.counters["som.epochs"], 1)
        out["som.nonempty_share"] = (self.counters["som.nonempty_units"]
                                     / max(self.counters["som.units"], 1))
        layout_s = (self.total_s["layout.constrained_full_layout"]
                    + self.total_s["layout.force_directed_layout"])
        out["layout.s_per_iteration"] = (
            layout_s / max(self.counters["layout.iterations"], 1))
        return out

    def dominant(self) -> tuple[str, float]:
        """The function with the largest self time, and that time."""
        name = max(self.self_s, key=self.self_s.get)
        return name, self.self_s[name]
