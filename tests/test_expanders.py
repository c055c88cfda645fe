import numpy as np
import pytest

from expander_cutoff.expanders import (
    ExpanderSpec,
    adjacency_extremes,
    make_expander,
)
from expander_cutoff.graphs import GraphError
from expander_cutoff.spectral import cheeger_bruteforce, spectral_report

from conftest import (
    adjacency_dense,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dense_extremes,
    graph_from_edges,
    hypercube_graph,
    petersen_graph,
)


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
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(GraphError, match="disconnected"):
        spectral_report(g)


def test_dense_and_iterative_paths_agree():
    # Lanczos against dense eigvalsh on certified pairings
    for d, n, seed in ((3, 256, 3), (3, 1000, 1), (3, 2000, 2),
                       (4, 256, 1), (4, 999, 2), (4, 2000, 3)):
        g = make_expander(ExpanderSpec(d, n, 0.05, seed)).graph
        assert adjacency_extremes(g) == pytest.approx(dense_extremes(g),
                                                      abs=1e-9), (d, n, seed)


@pytest.mark.parametrize("g, d", [
    pytest.param(cycle_graph(6), 2, id="C_6"),
    pytest.param(cycle_graph(12), 2, id="C_12"),
    pytest.param(cycle_graph(2004), 2, id="C_2004"),
    pytest.param(petersen_graph(), 3, id="Petersen"),
    pytest.param(hypercube_graph(4), 4, id="Q_4"),
    pytest.param(complete_bipartite_graph(3, 3), 3, id="K_3,3"),
    pytest.param(complete_graph(4), 3, id="K_4"),
    pytest.param(complete_graph(2), 1, id="K_2")])
def test_lanczos_agrees_with_dense_on_structured_graphs(g, d):
    """A start built from index residues has no weight on most eigenspaces
    of a cycle (on C_2004 it returned lam2 = -1); the seeded Gaussian start
    finds every extreme, returns it bit for bit again, and keeps it in
    [-d, d], so no gap is negative."""
    lam2, lam_min = adjacency_extremes(g)
    assert (lam2, lam_min) == pytest.approx(dense_extremes(g), abs=1e-9)
    assert adjacency_extremes(g) == (lam2, lam_min)
    assert -d <= lam_min <= lam2 <= d
    assert spectral_report(g).gap >= 0.0


def test_spectral_report_on_a_long_cycle():
    """C_2004 is bipartite, so its report gives the lazy walk's gap,
    (1 - cos(2 pi / n)) / 2."""
    rep = spectral_report(cycle_graph(2004))
    assert rep.degenerate
    assert rep.lambda2 == pytest.approx(2 * np.cos(2 * np.pi / 2004), abs=1e-9)
    assert rep.lazy_gap == pytest.approx((1 - np.cos(2 * np.pi / 2004)) / 2,
                                         rel=1e-6)


@pytest.mark.parametrize("n", [0, 1])
def test_eigensolve_refuses_fewer_than_two_vertices(n):
    with pytest.raises(GraphError,
                       match=f"no nontrivial eigenvalue on {n} vertices"):
        adjacency_extremes(graph_from_edges(n, []))


@pytest.mark.parametrize("degree", [3, 4])
def test_lanczos_on_the_transition_kernel_agrees_with_dense(degree):
    """The extremes come from Lanczos on the walk's kernel P = A/d, times
    d: they agree with the dense spectrum of A/d times d."""
    g = make_expander(ExpanderSpec(degree, 2002, 0.05, 1)).graph
    w = np.linalg.eigvalsh(adjacency_dense(g) / degree) * degree
    lam2, lam_min = adjacency_extremes(g)
    assert abs(lam2 - w[-2]) < 1e-10
    assert abs(lam_min - w[0]) < 1e-10


def test_lanczos_on_the_cubic_h4_h2():
    """The 2^14-vertex H2 of `build --variant cubic --h 4 --L 3 --seed 1`
    (seed 2, certified at its first attempt), against the values ARPACK
    gave it; a second call repeats the floats bit for bit."""
    ex = make_expander(ExpanderSpec(3, 16384, 0.05, 2))
    assert ex.attempts == 1
    lam2, lam_min = adjacency_extremes(ex.graph)
    assert lam2 == pytest.approx(2.828305715568, abs=1e-9)
    assert lam_min == pytest.approx(-2.826499620870, abs=1e-9)
    assert adjacency_extremes(ex.graph) == (lam2, lam_min)


@pytest.mark.parametrize("n", [2000, 10])
def test_eigensolve_refuses_a_graph_that_is_not_regular(n):
    # an n-cycle with one chord: two vertices of degree 3
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
    with pytest.raises(GraphError, match="not regular"):
        adjacency_extremes(graph_from_edges(n, edges))


def test_lanczos_past_its_step_cap_is_a_graph_error(monkeypatch, tmp_path,
                                                    capsys):
    import expander_cutoff.expanders as ex_mod
    from expander_cutoff.cli import main

    ex = make_expander(ExpanderSpec(3, 2048, 0.05, 1))
    monkeypatch.setattr(ex_mod, "LANCZOS_STEPS", 30)
    with pytest.raises(GraphError, match=r"LANCZOS_STEPS=30 steps: "
                       r"residuals \S+ \(lam2\) and \S+ \(lam_min\)"):
        adjacency_extremes(ex.graph)
    # the build of that expander exits 1 with the message, not a traceback
    make_expander.cache_clear()
    assert main(["build", "--variant", "cubic", "--h", "3", "--L", "1",
                 "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "LANCZOS_STEPS=30 steps" in capsys.readouterr().err


def test_cheeger_sandwich_on_certified_expanders():
    # brute-force edge expansion against the spectral sandwich
    for size, seed in ((8, 1), (10, 2), (12, 3), (14, 4), (16, 5)):
        ex = make_expander(ExpanderSpec(3, size, 0.01, seed))
        ch = cheeger_bruteforce(ex.graph)
        lo = (3 - ex.lam) / 2
        hi = np.sqrt(2 * 3 * (3 - ex.lam))
        assert lo - 1e-9 <= ch <= hi + 1e-9
