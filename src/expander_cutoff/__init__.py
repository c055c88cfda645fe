"""Leveled expander constructions with exact random-walk mixing diagnostics."""

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
from .mixing import (
    MixingSummary,
    TVProfile,
    cutoff_report,
    default_laziness,
    default_starts,
    step,
    tv_profile_until,
    tv_to_uniform,
)
from .montecarlo import (
    DescentChain,
    HittingStats,
    bimodality_check,
    cylinder_passage_exact,
    cylinder_passage_oracle,
    descent_chain,
    hitting_mixing_ratio,
    hitting_stats,
    path_passage_exact,
    path_passage_oracle,
    predicted_tau,
    sample_hitting_times,
    stretched_edge_delay,
    stretched_edge_delay_mc,
)
from .spectral import (
    NoCutoffCertificate,
    SpectralReport,
    cheeger_bruteforce,
    cheeger_sandwich,
    dirichlet_gap_upper,
    distance_test_function,
    exact_walk_gap,
    no_cutoff_certificate,
    spectral_report,
)

__version__ = "0.1.0"
