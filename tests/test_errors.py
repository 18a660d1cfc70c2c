"""Error types: each range check a command-line flag can reach raises
UsageError, which callers catching ValueError still catch; checks only
library callers can reach stay plain ValueError."""

import numpy as np
import pytest

from graphsom.cluster import kmeans, spectral_clustering
from graphsom.errors import NumericalError, ParseError, UsageError
from graphsom.graph import Partition, summary_graph
from graphsom.layout import Rect, constrained_full_layout, force_directed_layout
from graphsom.linalg import KernelMatrix, heat_kernel, spectral_embedding
from graphsom.som import SomGrid, SomModel, UMatrix, batch_som
from graphgen import two_cliques

POINTS = np.arange(12.0).reshape(6, 2)
GRAPH = two_cliques(3)
GRID = SomGrid(1, 2)
HALVES = [0, 0, 0, 1, 1, 1]


def _summary_layout(iterations):
    sg = summary_graph(GRAPH, Partition(HALVES, 2))
    return force_directed_layout(sg, iterations, Rect(0.0, 0.0, 100.0, 100.0), 0)


def _full_layout(iterations):
    model = SomModel(GRID, None, HALVES, [0.0])
    return constrained_full_layout(GRAPH, model, iterations, 0)


# (parameter the message names, call); each mirrors a flag of the cluster
# or layout command
FLAG_CHECKS = [
    ("k", lambda: kmeans(POINTS, 0, 0)),
    ("k", lambda: spectral_clustering(GRAPH, 2, 7, 0)),
    ("restarts", lambda: kmeans(POINTS, 2, 0, restarts=0)),
    ("beta", lambda: heat_kernel(GRAPH.laplacian(), -1.0)),
    ("p", lambda: spectral_embedding(GRAPH.laplacian(), 0)),
    ("grid", lambda: SomGrid(0, 3)),
    ("radius", lambda: batch_som(POINTS, GRID, radius=(np.nan, 0.5))),
    ("radius", lambda: batch_som(POINTS, GRID, radius=(0.5, 1.0))),
    ("epochs", lambda: batch_som(POINTS, GRID, epochs=0)),
    ("iterations", lambda: _summary_layout(0)),
    ("iterations", lambda: _full_layout(0)),
    # exp(-beta * lambda) underflows to 0 on every mode above the null space
    ("beta", lambda: heat_kernel(GRAPH.laplacian(), 1e20)),
    ("beta", lambda: heat_kernel(GRAPH.laplacian(), 1e3)),
    # a null eigenvalue rounded to -1e-17 makes exp(-beta * lambda) overflow
    ("beta", lambda: heat_kernel(np.diag([-1e-17, 1.0]), 1e20)),
    ("radius", lambda: batch_som(POINTS, GRID, radius=(1e-320, 1e-320))),
    ("radius", lambda: batch_som(POINTS, GRID, radius=(1e308, 1.0))),
]


@pytest.mark.parametrize("name, call", FLAG_CHECKS,
                         ids=[f"{i}-{name}" for i, (name, _) in
                              enumerate(FLAG_CHECKS)])
def test_flag_range_checks_raise_usage_error(name, call):
    with pytest.raises(UsageError, match=name):
        call()


def test_beta_that_keeps_a_mode_above_the_null_space_is_accepted():
    # exp(-300 * lambda) is 0 on every mode but the weak bridge's, which
    # still tells the two cliques apart
    kern = heat_kernel(two_cliques(3, bridge=1e-3).laplacian(), 300.0).matrix
    assert kern[1, 2] > kern[1, 4] + 0.1


def test_tiny_radius_trains_without_warnings():
    # 2 sigma^2 is positive but d^2 / (2 sigma^2) overflows; the far unit's
    # weight is its limit 0, and pytest turns a RuntimeWarning into an error
    model = batch_som(POINTS, GRID, epochs=2, radius=(1e-160, 1e-160))
    assert np.isfinite(model.energy_trace).all()


def test_grid_above_the_unit_limit(monkeypatch):
    monkeypatch.setattr("graphsom.graph.MAX_VERTICES", 6)
    assert SomGrid(2, 3).num_units == 6
    with pytest.raises(UsageError, match="grid 1x7 has 7 units, above the limit of 6"):
        SomGrid(1, 7)


@pytest.mark.parametrize("call", [
    lambda: KernelMatrix(np.eye(2), beta=-1.0),
    lambda: UMatrix(np.zeros((2, 2))).upsampled(0),
    lambda: spectral_embedding(np.zeros((2, 3)), 1),
], ids=["KernelMatrix beta", "UMatrix.upsampled", "non-square laplacian"])
def test_library_only_checks_stay_value_error(call):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError


def test_exit_codes_live_on_the_types():
    assert (ParseError.exit_code, UsageError.exit_code,
            NumericalError.exit_code) == (3, 2, 4)
    assert issubclass(UsageError, ValueError)
    assert issubclass(ParseError, ValueError)
