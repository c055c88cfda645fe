"""Leveled expander constructions with exact random-walk mixing diagnostics.

The names of the walk, sampling and spectral modules load their module on
first use (PEP 562), so a cold command compiles only the modules it runs.
"""

import os

# numpy's OpenBLAS runs only small dense work, so one thread (scipy's keeps its
# default); a numpy imported before this package keeps its threads, as before.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]

from .construction import (
    ConstructionParams,
    RootChain,
    build,
    build_cylinder,
    choose_L,
    cylinder_vertex_count,
    family_vertex_count,
    leaf_level,
    level_census,
    root_chain,
    standalone_cylinder,
    theoretical_tstar,
)
from .expanders import CertifiedExpander, ExpanderSpec, make_expander
from .graphs import (
    AUXILIARY,
    LEAF,
    PATH_INTERIOR,
    TREE_NODE,
    UNLEVELED,
    GraphBuilder,
    GraphError,
    LeveledGraph,
    assert_regular,
    from_text,
    is_bipartite,
    is_connected,
    stretch_edges,
    to_text,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported by __getattr__
_LAZY = {
    **dict.fromkeys((
        "MixingSummary", "TVProfile", "cutoff_report", "default_laziness",
        "default_starts", "step", "tv_profile_until", "tv_to_uniform"),
        "mixing"),
    **dict.fromkeys((
        "DescentChain", "HittingStats", "bimodality_check",
        "cylinder_passage_exact", "cylinder_passage_oracle", "descent_chain",
        "hitting_mixing_ratio", "hitting_stats", "path_passage_exact",
        "path_passage_oracle", "predicted_tau", "sample_hitting_times",
        "stretched_edge_delay", "stretched_edge_delay_mc"),
        "montecarlo"),
    **dict.fromkeys((
        "NoCutoffCertificate", "SpectralReport", "cheeger_bruteforce",
        "cheeger_sandwich", "dirichlet_gap_upper", "distance_test_function",
        "exact_walk_gap", "no_cutoff_certificate", "spectral_report"),
        "spectral"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
