from dataclasses import asdict

import numpy as np
import pytest

from expander_cutoff.expanders import ExpanderSpec, make_expander
from expander_cutoff.graphs import GraphBuilder, GraphError
from expander_cutoff.spectral import (
    cheeger_bruteforce,
    cheeger_sandwich,
    dirichlet_gap_upper,
    distance_test_function,
    exact_walk_gap,
    farthest_vertex_pair,
    no_cutoff_certificate,
    spectral_report,
)

from conftest import complete_graph, cycle_graph, graph_from_edges, petersen_graph


def small_cubic(size, seed):
    return make_expander(ExpanderSpec(3, size, 0.01, seed)).graph


def corpus():
    return {
        "K2": (graph_from_edges(2, [(0, 1)]), 1),
        "C4": (cycle_graph(4), 2),
        "C6": (cycle_graph(6), 2),
        "K4": (complete_graph(4), 3),
        "Petersen": (petersen_graph(), 3),
        "cubic8": (small_cubic(8, 11), 3),
        "cubic10": (small_cubic(10, 12), 3),
        "cubic14": (small_cubic(14, 13), 3),
    }


# ---------------------------------------------------------------------------
# brute force


def test_bruteforce_k2():
    assert cheeger_bruteforce(graph_from_edges(2, [(0, 1)])) == 1.0


def test_bruteforce_c4():
    assert cheeger_bruteforce(cycle_graph(4)) == pytest.approx(1.0)


def test_bruteforce_k4():
    assert cheeger_bruteforce(complete_graph(4)) == pytest.approx(2.0)


def test_bruteforce_petersen():
    # vertex-transitive with edge expansion 1 at the balanced 4-cut... the
    # exact value is checked against an independent exhaustive rescan
    g = petersen_graph()
    val = cheeger_bruteforce(g)
    best = np.inf
    edges = g.edge_array()
    for mask in range(1, 1 << 9):
        members = [v for v in range(9) if (mask >> v) & 1]
        size = len(members)
        inset = np.zeros(10, dtype=bool)
        inset[members] = True
        boundary = int((inset[edges[:, 0]] != inset[edges[:, 1]]).sum())
        best = min(best, boundary / min(size, 10 - size))
    assert val == pytest.approx(best)


def test_bruteforce_size_cap():
    with pytest.raises(GraphError, match="brute force bound exceeded"):
        cheeger_bruteforce(cycle_graph(25))


# ---------------------------------------------------------------------------
# spectral bounds


def test_bounds_k4():
    # lam_2 = lam_min = -1
    lo, hi = cheeger_sandwich(complete_graph(4), 3)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(np.sqrt(24), abs=1e-9)


def test_bounds_petersen():
    # lam_2 = 1, lam_min = -2
    lo, hi = cheeger_sandwich(petersen_graph(), 3)
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(np.sqrt(12), abs=1e-9)


def test_sandwich_covers_brute_force_everywhere():
    for name, (g, d) in corpus().items():
        lo, hi = cheeger_sandwich(g, d)
        ch = cheeger_bruteforce(g)
        assert lo - 1e-9 <= ch <= hi + 1e-9, name


# ---------------------------------------------------------------------------
# Dirichlet form


def test_dirichlet_c4_distance_function_is_tight():
    g = cycle_graph(4)
    f = distance_test_function(g, 0)
    assert f.tolist() == [0.0, 1.0, 2.0, 1.0]
    ratio = dirichlet_gap_upper(g, f)
    assert ratio == pytest.approx(1.0)
    assert exact_walk_gap(g) == pytest.approx(1.0)


def test_dirichlet_affine_invariance():
    g = petersen_graph()
    f = distance_test_function(g, 0)
    base = dirichlet_gap_upper(g, f)
    assert dirichlet_gap_upper(g, 3.0 * f - 7.0) == pytest.approx(base)


def test_dirichlet_rejects_constant():
    with pytest.raises(GraphError, match="zero variance"):
        dirichlet_gap_upper(complete_graph(4), np.ones(4))


def test_dirichlet_upper_bounds_exact_gap():
    graphs = [cycle_graph(n) for n in (8, 50, 100, 200)]
    graphs += [petersen_graph(), complete_graph(6), small_cubic(64, 5)]
    for g in graphs:
        x, _, _ = farthest_vertex_pair(g)
        f = distance_test_function(g, x)
        assert dirichlet_gap_upper(g, f) >= exact_walk_gap(g) - 1e-9


# ---------------------------------------------------------------------------
# distance test function


def test_distance_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert distance_test_function(g, 0).tolist() == [0.0, 1.0, 2.0]


def test_distance_k4():
    assert distance_test_function(complete_graph(4), 0).tolist() == [0.0, 1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# slow-mixing certificate


def test_certificate_cycle100():
    cert = no_cutoff_certificate(cycle_graph(100))
    assert cert.applicable
    assert cert.diameter == 50
    assert cert.n2_product <= 40.0
    assert cert.gap_upper >= exact_walk_gap(cycle_graph(100)) - 1e-12


def test_certificate_k4_inapplicable():
    cert = no_cutoff_certificate(complete_graph(4))
    assert not cert.applicable
    assert cert.reason == "diameter not linear"


def test_certificate_cylinder_stable_across_lengths():
    from expander_cutoff.construction import build_cylinder

    host = complete_graph(4)
    products = []
    for L in (5, 9, 13):
        g = build_cylinder(host, L)
        cert = no_cutoff_certificate(g)
        assert cert.applicable
        assert cert.gap_upper >= exact_walk_gap(g) - 1e-12
        products.append(cert.n2_product)
    assert max(products) / min(products) < 1.25


# ---------------------------------------------------------------------------
# whole-build expansion lower bound (consistency at desk scale)


@pytest.mark.parametrize("L", [2, 3])
def test_five_regular_expansion_floor_consistent(L):
    # the build's expansion should dominate (leaf-expander floor)/(25 L),
    # with the floor taken from the certified leaf-expander spectrum; at
    # desk scale both spectral Cheeger bounds of the build must sit above it
    from expander_cutoff.construction import ConstructionParams, build

    g = build(ConstructionParams(h=1, L=L))
    lam_leaf = 4.0 * (1.0 - g.meta["gap2"])
    kappa = min((4.0 - lam_leaf) / 2.0, 1.0) / 3.0
    floor = kappa / (25.0 * L)
    lo, hi = cheeger_sandwich(g, 5)
    assert floor <= hi + 1e-12
    assert lo >= floor - 1e-12


# ---------------------------------------------------------------------------
# report assembly


def test_report_fields():
    rep = spectral_report(petersen_graph(), cheeger_exact=True, dirichlet=True)
    assert rep.degree == 3
    assert rep.lambda_abs == pytest.approx(2.0, abs=1e-9)
    assert rep.gap == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.cheeger_lower - 1e-9 <= rep.cheeger_exact <= rep.cheeger_upper + 1e-9
    assert rep.dirichlet_upper is not None
    d = asdict(rep)
    assert set(d) >= {"gap", "lambda_abs", "cheeger_lower", "cheeger_upper"}


def _near_bipartite_cubic(half, seed):
    """Three random perfect matchings between two halves of `half`
    vertices, pairwise disjoint, then one switch (a1, b1), (a2, b2) ->
    (a1, a2), (b1, b2): cubic, with one edge inside each half."""
    gen = np.random.default_rng(seed)
    while True:
        p = np.array([gen.permutation(half) for _ in range(3)])
        if ((p[0] != p[1]) & (p[0] != p[2]) & (p[1] != p[2])).all():
            break
    us = np.tile(np.arange(half), 3)
    vs = half + p.ravel()
    us[1], vs[0] = vs[0], us[1]
    b = GraphBuilder()
    b.add_vertices(2 * half)
    b.add_edge_array(us, vs)
    return b.finish()


def test_report_cheeger_box_holds_on_near_bipartite_graph():
    # lam_min is within 1e-3 of -3, so sqrt(2d(d - lam_abs)) would fall
    # below the lower bound (3 - lam_2)/2 that every cubic graph obeys
    rep = spectral_report(_near_bipartite_cubic(2000, 1))
    assert rep.lambda_min < -2.999
    assert rep.cheeger_upper >= (3 - rep.lambda2) / 2
    assert rep.cheeger_lower <= rep.cheeger_upper


def test_report_bipartite_carries_lazy_gap():
    rep = spectral_report(cycle_graph(6))
    assert rep.degenerate
    assert rep.lazy_gap == pytest.approx((1 - 1.0 / 2.0) / 2.0, abs=1e-9)


def test_report_rejects_irregular_graph_with_degree():
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="not 2-regular"):
        spectral_report(path)
    # an empty graph is refused for its size before its regularity
    with pytest.raises(GraphError, match="no nontrivial eigenvalue on 0 "
                                         "vertices"):
        spectral_report(GraphBuilder().finish())
