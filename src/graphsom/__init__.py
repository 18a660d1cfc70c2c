"""Spectral and kernel self-organizing-map clustering for weighted graphs.

Every public name lives in one submodule and is imported from it on first
access (PEP 562), so importing the package, or a submodule such as
``graphsom.cli``, loads only the modules that code path needs. ``_HOMES``
below is the one list of public names, so the submodules declare no
``__all__``.
"""

import importlib

# submodule -> the public names it defines
_HOMES = {
    "errors": ("NumericalError", "ParseError", "UsageError"),
    "graph": ("WeightedGraph", "Partition", "ClusterSummaryGraph",
              "load_edge_list", "summary_graph"),
    "linalg": ("EigenDecomposition", "KernelMatrix", "eigendecompose_symmetric",
               "heat_kernel", "spectral_embedding"),
    "cluster": ("KMeansResult", "PartitionStats", "kmeans", "kernel_kmeans",
                "spectral_clustering", "q_modularity", "partition_stats"),
    "som": ("SomGrid", "SomModel", "UMatrix", "batch_som", "batch_kernel_som",
            "spectral_som", "u_matrix", "som_partition", "default_radius"),
    "layout": ("Rect", "LayoutScene", "CELL_SIDE", "force_directed_layout",
               "som_map_scene", "constrained_full_layout"),
    "render": ("render_svg", "export_dot"),
    "pipeline": ("RunConfig", "AttributeTable", "run_cluster",
                 "run_attribute_summary", "run_layout", "run_stats",
                 "parse_attribute_table", "attribute_summary", "document_bytes",
                 "read_document", "load_partition_document",
                 "partition_for_graph", "model_from_document"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
