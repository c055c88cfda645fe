import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expander_cutoff import construction, graphs
from expander_cutoff.construction import (
    FAMILIES,
    ConstructionParams,
    build,
    build_cylinder,
    choose_L,
    class_chain,
    cylinder_vertex_count,
    family_vertex_count,
    leaf_level,
    level_census,
    root_chain,
    standalone_cylinder,
    theoretical_tstar,
)
from expander_cutoff.expanders import ExpanderSpec, make_expander
from expander_cutoff.graphs import (
    LEAF,
    UNLEVELED,
    GraphBuilder,
    GraphError,
    assert_regular,
    is_bipartite,
    is_connected,
    to_text,
)

from conftest import complete_graph, graph_from_edges


# ---------------------------------------------------------------------------
# stretch-length floor


def test_choose_L_all_slack():
    assert choose_L(1.0, 1.0) == 32


def test_choose_L_first_term():
    # 2/sqrt(0.01) = 20 still below the constant floor
    assert choose_L(0.01, 1.0) == 32


def test_choose_L_second_term():
    assert choose_L(1.0, 0.1) == 160


def test_choose_L_rejects_bad_gaps():
    with pytest.raises(GraphError):
        choose_L(0.0, 0.5)
    with pytest.raises(GraphError):
        choose_L(0.5, -1.0)


def test_theoretical_tstar():
    assert theoretical_tstar(3, 1) == pytest.approx(15.0)
    assert theoretical_tstar(0, 5) == 0.0
    assert theoretical_tstar(1, 2) == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# 5-regular family censuses


@pytest.mark.parametrize("h,L", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_five_regular_census(h, L):
    g = build(ConstructionParams(h=h, L=L))
    assert assert_regular(g, 5)
    assert is_connected(g)
    census = level_census(g)
    assert census[2] == 20
    assert census[h + 2] == 20 * 4 ** h
    assert census[3 * h + 2] == 20 * 2 ** (6 * h)
    assert leaf_level(g) == 3 * h + 2
    assert int((g.role == LEAF).sum()) == 20 * 2 ** (6 * h)


@pytest.mark.parametrize("h", [1, 2])
def test_five_regular_full_level_census(h):
    # closed forms for every level: top 1/5/20, then 20*4^d per band depth
    g = build(ConstructionParams(h=h, L=2))
    census = level_census(g)
    expect = {0: 1, 1: 5, 2: 20}
    for d in range(1, h + 1):
        expect[2 + d] = 20 * 4 ** d
        expect[h + 2 + d] = 20 * 4 ** (h + d)
        expect[2 * h + 2 + d] = 20 * 4 ** (2 * h + d)
    assert census == expect


def test_five_regular_interior_count(five_reg_h1):
    # every stretched edge contributes L-1 interiors: bands 1 and 2 have
    # 20 + 80 trees of 4 edges each at L=2
    from expander_cutoff.graphs import PATH_INTERIOR

    interiors = int((five_reg_h1.role == PATH_INTERIOR).sum())
    assert interiors == (20 * 4 + 80 * 4) * (2 - 1)


def test_five_regular_not_bipartite(five_reg_h1):
    assert five_reg_h1.meta["bipartite"] is False


# ---------------------------------------------------------------------------
# cubic family


@pytest.mark.parametrize("h,L", [(2, 2), (3, 2), (2, 3)])
def test_cubic_regular_connected(h, L):
    g = build(ConstructionParams(h=h, L=L, variant="cubic"))
    assert assert_regular(g, 3)
    assert is_connected(g)
    census = level_census(g)
    assert census[2] == 6
    assert int((g.role == LEAF).sum()) == 6 * 2 ** (3 * h)


# ---------------------------------------------------------------------------
# tree families against their closed-form size and class chain


def _chain_census(params):
    """Vertices per level summed over the levelled classes of the chain."""
    chain = class_chain(params)
    census = {}
    for size, level in zip(chain.sizes, chain.levels):
        if level != UNLEVELED:
            census[level] = census.get(level, 0) + size
    return census


@st.composite
def tree_families(draw):
    """Parameters of any tree row of FAMILIES, small enough to build."""
    variant = draw(st.sampled_from(
        [v for v, fam in FAMILIES.items() if fam.branching]))
    fam = FAMILIES[variant]
    L = draw(st.integers(1, 3))
    # an uneven row builds at even h only; every level multiplies the size
    # by about branching^3
    h = 2 if fam.uneven else draw(st.integers(1, 3 if fam.branching == 2
                                              else 1))
    return ConstructionParams(h=h, L=L, variant=variant,
                              L_prime=L + 1 if fam.uneven else 0)


@settings(max_examples=10, deadline=None, database=None)
@given(params=tree_families())
def test_tree_family_build_matches_size_and_chain(params):
    fam = FAMILIES[params.variant]
    g = build(params)
    assert g.meta["degree"] == fam.degree
    assert assert_regular(g, fam.degree)
    assert is_connected(g)
    assert g.vertex_count == class_chain(params).vertex_count
    if params.variant in ("cubic", "five_regular"):
        assert g.vertex_count == family_vertex_count(params.variant, params.h,
                                                     params.L)
    assert level_census(g) == _chain_census(params)
    # exactly the rows with an equitable class partition have a root chain
    if fam.uneven:
        with pytest.raises(GraphError, match="no root chain"):
            root_chain(params)
    else:
        assert root_chain(params).sizes == class_chain(params).sizes


def test_no_cutoff_census_matches_chain(no_cutoff_h2):
    params = ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff")
    assert level_census(no_cutoff_h2) == _chain_census(params)


# ---------------------------------------------------------------------------
# uneven stretch variant


def test_no_cutoff_requires_longer_stretch():
    with pytest.raises(GraphError, match="L_prime > L"):
        ConstructionParams(h=2, L=2, L_prime=2, variant="no_cutoff").validate()


def test_no_cutoff_requires_even_h():
    with pytest.raises(GraphError, match="even h"):
        ConstructionParams(h=3, L=2, L_prime=4, variant="no_cutoff").validate()


def test_no_cutoff_census_and_size(no_cutoff_h2):
    g = no_cutoff_h2
    assert assert_regular(g, 5)
    assert is_connected(g)
    lo = build(ConstructionParams(h=2, L=2))
    hi = build(ConstructionParams(h=2, L=4))
    assert lo.vertex_count < g.vertex_count < hi.vertex_count


def test_no_cutoff_intermediate_size_l3():
    g = build(ConstructionParams(h=2, L=2, L_prime=3, variant="no_cutoff"))
    lo = build(ConstructionParams(h=2, L=2))
    hi = build(ConstructionParams(h=2, L=3))
    assert lo.vertex_count < g.vertex_count < hi.vertex_count


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_identity_at_length_one():
    host = make_expander(ExpanderSpec(3, 8, 0.01, 1))
    g = build_cylinder(host, 1)
    assert g.vertex_count == 8
    assert g.edge_count == 12


@pytest.mark.parametrize("L", [1, 5])
def test_cylinder_meta_names_bipartiteness_at_every_length(L):
    host = make_expander(ExpanderSpec(3, 8, 0.01, 1))
    g = build_cylinder(host, L)
    assert g.meta["bipartite"] == is_bipartite(g)


def test_cylinder_k4_counts():
    g = build_cylinder(complete_graph(4), 5)
    assert g.vertex_count == 40
    assert g.vertex_count == cylinder_vertex_count(4, 6, 5)
    assert assert_regular(g, 3)
    assert is_connected(g)


@pytest.mark.parametrize("m,seed", [(8, 3), (10, 4)])
@pytest.mark.parametrize("L", [5, 9, 13])
def test_cylinder_count_formula(m, seed, L):
    host = make_expander(ExpanderSpec(3, m, 0.01, seed))
    g = build_cylinder(host, L)
    assert g.vertex_count == cylinder_vertex_count(m, host.graph.edge_count, L)
    assert assert_regular(g, 3)
    assert is_connected(g)


@pytest.mark.parametrize("L", [1, 5])
def test_cylinder_rejects_disconnected_host(L):
    two_k4 = graph_from_edges(8, [(o + u, o + v) for o in (0, 4)
                                  for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(GraphError, match="cylinder host must be connected"):
        build_cylinder(two_k4, L)


def test_cylinder_rejects_bad_length():
    with pytest.raises(GraphError, match="mod 4"):
        build_cylinder(complete_graph(4), 7)


@pytest.mark.parametrize("L", [-3, -7, 0, 3])
def test_standalone_cylinder_rejects_bad_length(L):
    with pytest.raises(GraphError, match="mod 4"):
        standalone_cylinder(L)


def _ladder_edges(k):
    """The gadget's edges added position by position: ports 0 and 1, then
    interiors numbered from 2 in order of position."""
    edges, prev, nxt = [], [0], 2
    for p in range(1, 4 * k + 1):
        if p % 4 in (0, 1):
            edges += [(q, nxt) for q in prev]
            prev, nxt = [nxt], nxt + 1
        else:
            x, y = nxt, nxt + 1
            edges += [(x, y), (prev[0], x), (prev[-1], y)]
            prev, nxt = [x, y], nxt + 2
    return edges + [(prev[0], 1)]


@pytest.mark.parametrize("L", range(1, 42, 4))
def test_standalone_gadget_matches_position_by_position_ladder(L):
    edges = {tuple(sorted(e)) for e in _ladder_edges((L - 1) // 4)}
    assert standalone_cylinder(L).edge_set() == edges


def test_standalone_gadget_ports():
    gad = standalone_cylinder(5)
    assert gad.degree(0) == 1 and gad.degree(1) == 1
    assert gad.vertex_count == 2 + 6
    inner = gad.degrees()[2:]
    assert (inner == 3).all()


# ---------------------------------------------------------------------------
# determinism and dispatch


def test_build_determinism():
    p = ConstructionParams(h=1, L=2)
    a = to_text(build(p))
    b = to_text(build(p))
    assert a == b


# sha256 of to_text for the session fixtures: a change to any of them
# changes the artifact bytes a seed gives
PINNED_BUILDS = [
    ("five_reg_h1", 2106,
     "3ff3445957f9e793ae456e26cf908818103490798cfbc0982047fad112690a07"),
    ("five_reg_h2", 116026,
     "8c71ae807d15ed3a2f975d41acac108a765834b36b44c1b3125a97f32b3a01b7"),
    ("cubic_h2", 1442,
     "4e4ae581c3271f704b52cff0f959bfb3d0de3821720f3096d6d0912ebab9f176"),
    ("no_cutoff_h2", 116346,
     "c9487666c246beeb5dd87227d06dc96c86f1ae5c5fa50e4ef8547c441df3050a"),
    # the graph the benchmark's `walks` study profiles (build --seed 1)
    ("cubic_h4", 81254,
     "757adadc94bbe307fd43c56b6926e23a835e1316dee0f09d76ad2ee383573eb3"),
]

# sha256 of repr((sizes, levels, leaves, indices)) of class_chain for
# (variant, h, L, L_prime): the chains cutoff-report walks, the one the
# benchmark's `hitting --chain` samples (five_regular h=16 L=4), and the
# uneven family's
PINNED_CHAINS = [
    (("cubic", 3, 3, 0), 37,
     "45ef5a47b1aafc72d58ce44475e8149d29c15c1eed1989d6177de1526288919e"),
    (("cubic", 12, 3, 0), 136,
     "8fbfad5a08daab3f0e5ccac2a8a94a37f976deb18c1cd44cf24eca4c31fbdfa4"),
    (("cubic", 40, 3, 0), 444,
     "7bd2953ff100c8ec66495609d5cba006b5480c0bc14a1ee5bedd2755717d4b02"),
    (("five_regular", 16, 4, 0), 147,
     "46d7994369f111b80a6bfe82a3cc24893d3225f916fa1cea1faddb5e35cddbdb"),
    (("no_cutoff", 2, 2, 4), 25,
     "2f8a205e5de2ee8eadb3a55580e03ec38fa556a1d6fc7f44fa5b2f0e68ccceb5"),
    (("no_cutoff", 8, 2, 4), 85,
     "81ff2bcf9affb34728b745a9fe6dabab901d7be7fcc766bb0d1dce23291c9fbf"),
]


# sha256 of to_text for cylinders on K4 and for one standalone gadget
PINNED_CYLINDERS = [
    ("k4_L5", lambda: build_cylinder(complete_graph(4), 5), 40,
     "78da0db880abdcfc55d8fe008d716af2ddec26cd35cf25dd93b0f5f8445c1491"),
    ("k4_L9", lambda: build_cylinder(complete_graph(4), 9), 76,
     "44523e98023fbd5fef2fad333f35d73a9a5f8357f7a46154a2121a75492922b8"),
    ("k4_L13", lambda: build_cylinder(complete_graph(4), 13), 112,
     "fde528acef7ecbaee6e519b3c9ed9e2c5106346a6497192cd911217e6115df6a"),
    ("gadget_L9", lambda: standalone_cylinder(9), 14,
     "81626f5c128d9a44f48509fd3ed8691f23372dbb863ffba4fabbf6a8ab087649"),
]


@pytest.mark.parametrize("make, n, digest", [c[1:] for c in PINNED_CYLINDERS],
                         ids=[c[0] for c in PINNED_CYLINDERS])
def test_cylinder_bytes_are_pinned(make, n, digest):
    g = make()
    assert g.vertex_count == n
    assert hashlib.sha256(to_text(g).encode()).hexdigest() == digest


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.integers(2, 10).map(lambda k: 2 * k), seed=st.integers(1, 5),
       L=st.integers(0, 5).map(lambda k: 4 * k + 1))
def test_cylinder_on_small_hosts_is_cubic_and_connected(m, seed, L):
    host = make_expander(ExpanderSpec(3, m, 0.01, seed))
    g = build_cylinder(host, L)
    assert assert_regular(g, 3)
    assert is_connected(g)
    assert g.vertex_count == cylinder_vertex_count(m, host.graph.edge_count, L)


@pytest.mark.parametrize("fixture, n, digest", PINNED_BUILDS,
                         ids=[b[0] for b in PINNED_BUILDS])
def test_build_bytes_are_pinned(request, fixture, n, digest):
    g = request.getfixturevalue(fixture)
    assert g.vertex_count == n
    assert hashlib.sha256(to_text(g).encode()).hexdigest() == digest
    keys = {"variant", "h", "L", "degree", "seeds", "gap1", "gap2",
            "L_floor", "meets_L_floor", "bipartite"}
    if g.meta["variant"] != "cubic":
        keys |= {"L_prime"}
    assert set(g.meta) == keys


@pytest.mark.parametrize("params, k, digest", PINNED_CHAINS,
                         ids=["-".join(map(str, c[0])) for c in PINNED_CHAINS])
def test_class_chain_is_pinned(params, k, digest):
    variant, h, L, L_prime = params
    c = class_chain(ConstructionParams(h=h, L=L, variant=variant,
                                       L_prime=L_prime))
    assert c.state_count == k
    key = repr((c.sizes, c.levels, c.leaves, c.indices.tolist()))
    assert hashlib.sha256(key.encode()).hexdigest() == digest


@pytest.mark.parametrize("variant", ["cubic", "five_regular"])
def test_tree_family_checks_run_without_the_builder(monkeypatch, variant):
    """build() hands _finalize its only reference to the GraphBuilder, so
    its edge chunks are freed before the regularity, connectivity and
    bipartiteness checks, where a held builder would raise the peak."""
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, GraphBuilder)}
    held = []

    def checked(g, d):
        held.append(sum(isinstance(o, GraphBuilder) and id(o) not in before
                        for o in gc.get_objects()))
        return assert_regular(g, d)

    monkeypatch.setattr(construction, "assert_regular", checked)
    build(ConstructionParams(h=1, L=2, variant=variant))
    assert held == [0]


@pytest.mark.parametrize("variant", ["cubic", "five_regular"])
def test_finalize_runs_one_bfs(monkeypatch, variant):
    """_finalize learns connectivity and bipartiteness from one BFS."""
    b = construction._tree_family_builder(
        ConstructionParams(h=1, L=2, variant=variant))
    bfs, calls = graphs.bfs_distances, []

    def counted(g, source):
        calls.append(source)
        return bfs(g, source)

    monkeypatch.setattr(graphs, "bfs_distances", counted)
    g = construction._finalize(b, FAMILIES[variant].degree)
    assert calls == [0]
    monkeypatch.undo()
    assert g.meta["bipartite"] == is_bipartite(g)


def test_finalize_refuses_a_disconnected_build():
    b = GraphBuilder()
    b.add_vertices(6)
    # two triangles
    b.add_edge_array(np.arange(6), np.array([1, 2, 0, 4, 5, 3]))
    with pytest.raises(GraphError, match="build bug: graph is disconnected"):
        construction._finalize(b, 2)


def test_build_rejects_unknown_variant():
    with pytest.raises(GraphError, match="unknown variant 'quartic'"):
        build(ConstructionParams(h=1, L=2, variant="quartic"))


def test_different_seeds_change_wiring():
    a = build(ConstructionParams(h=1, L=2, seed=1))
    b = build(ConstructionParams(h=1, L=2, seed=3))
    assert not a.same_structure(b)
