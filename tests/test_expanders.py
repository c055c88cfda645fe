import numpy as np
import pytest

from expander_cutoff.expanders import (
    ExpanderSpec,
    adjacency_extremes,
    make_expander,
)
from expander_cutoff.graphs import GraphError
from expander_cutoff.spectral import cheeger_bruteforce, spectral_report

from conftest import complete_graph, cycle_graph, petersen_graph


def test_determinism():
    a = make_expander(ExpanderSpec(3, 64, 0.05, 7))
    b = make_expander(ExpanderSpec(3, 64, 0.05, 7))
    assert a.graph.edge_array().tolist() == b.graph.edge_array().tolist()
    assert a.gap == b.gap


def test_seed_changes_graph():
    a = make_expander(ExpanderSpec(3, 64, 0.05, 7))
    b = make_expander(ExpanderSpec(3, 64, 0.05, 8))
    assert a.graph.edge_array().tolist() != b.graph.edge_array().tolist()


def test_odd_degree_size_product_rejected():
    with pytest.raises(GraphError, match="even"):
        make_expander(ExpanderSpec(3, 5, 0.05, 1))


def test_smallest_four_regular_is_k5():
    ex = make_expander(ExpanderSpec(4, 5, 0.05, 1))
    assert ex.graph.edge_count == 10
    assert ex.lam == pytest.approx(1.0, abs=1e-9)
    assert ex.gap == pytest.approx(0.75, abs=1e-9)


def test_basic_request():
    ex = make_expander(ExpanderSpec(3, 8, 0.05, 1))
    assert ex.size == 8
    assert (ex.graph.degrees() == 3).all()
    assert ex.gap >= 0.05


def test_unreachable_gap_exhausts_retries():
    with pytest.raises(GraphError, match="no expander found"):
        make_expander(ExpanderSpec(3, 8, 0.99, 1))


# ---------------------------------------------------------------------------
# the certified gap of spectral_report


def test_certify_cycle_is_degenerate():
    assert spectral_report(cycle_graph(4)).gap == pytest.approx(0.0, abs=1e-9)


def test_certify_k4():
    assert spectral_report(complete_graph(4)).gap == \
        pytest.approx(2.0 / 3.0, abs=1e-9)


def test_certify_petersen():
    assert spectral_report(petersen_graph()).gap == \
        pytest.approx(1.0 / 3.0, abs=1e-9)


def test_certify_rejects_disconnected():
    from conftest import graph_from_edges

    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(GraphError, match="disconnected"):
        spectral_report(g)


def test_dense_and_iterative_paths_agree():
    # same graph through both solvers by monkeying the dense cutoff
    import expander_cutoff.expanders as ex_mod

    ex = make_expander(ExpanderSpec(3, 256, 0.05, 3))
    dense = adjacency_extremes(ex.graph)
    old = ex_mod.DENSE_LIMIT
    ex_mod.DENSE_LIMIT = 10
    try:
        sparse = adjacency_extremes(ex.graph)
    finally:
        ex_mod.DENSE_LIMIT = old
    assert dense[0] == pytest.approx(sparse[0], abs=1e-6)
    assert dense[1] == pytest.approx(sparse[1], abs=1e-6)


def test_cheeger_sandwich_on_certified_expanders():
    # brute-force edge expansion against the spectral sandwich
    for size, seed in ((8, 1), (10, 2), (12, 3), (14, 4), (16, 5)):
        ex = make_expander(ExpanderSpec(3, size, 0.01, seed))
        ch = cheeger_bruteforce(ex.graph)
        lo = (3 - ex.lam) / 2
        hi = np.sqrt(2 * 3 * (3 - ex.lam))
        assert lo - 1e-9 <= ch <= hi + 1e-9
