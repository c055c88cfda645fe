import numpy as np
import pytest

from expander_cutoff.graphs import (
    LEAF,
    PATH_INTERIOR,
    UNLEVELED,
    GraphBuilder,
    GraphError,
    are_isomorphic,
    assert_regular,
    bfs_distances,
    build_tree,
    contract_paths,
    from_text,
    graft_stretched_trees,
    interconnect_interiors,
    is_bipartite,
    is_connected,
    line_graph_embed,
    spectrum_fingerprint,
    stretch_edges,
    to_text,
)

from conftest import complete_graph, cycle_graph


# ---------------------------------------------------------------------------
# build_tree


def test_tree_five_regular_top():
    t = build_tree(branching=4, height=2, root_degree=5)
    assert t.vertex_count == 1 + 5 + 20
    assert t.edge_count == 25
    assert int((t.level == 2).sum()) == 20
    assert (t.role[t.level == 2] == LEAF).all()


def test_tree_height_zero():
    t = build_tree(branching=2, height=0, root_degree=3)
    assert t.vertex_count == 1
    assert t.edge_count == 0


def test_tree_binary():
    t = build_tree(branching=2, height=2, root_degree=3)
    assert t.vertex_count == 1 + 3 + 6
    assert t.edge_count == 9
    assert [int((t.level == i).sum()) for i in range(3)] == [1, 3, 6]


def test_tree_levels_are_bfs_distances():
    t = build_tree(branching=3, height=3, root_degree=2)
    assert np.array_equal(bfs_distances(t, 0), t.level)


# ---------------------------------------------------------------------------
# stretch_edges


def test_stretch_single_edge():
    k2 = build_tree(1, 1, 1)
    p = stretch_edges(k2, [(0, 1)], 3)
    assert p.vertex_count == 4
    assert p.edge_count == 3
    assert int((p.role == PATH_INTERIOR).sum()) == 2
    assert sorted(p.degrees().tolist()) == [1, 1, 2, 2]


def test_stretch_identity():
    g = complete_graph(4)
    assert stretch_edges(g, g.edge_set(), 1) is g


def test_stretch_triangle_gives_hexagon():
    k3 = complete_graph(3)
    g = stretch_edges(k3, k3.edge_set(), 2)
    assert g.vertex_count == 6 and g.edge_count == 6
    assert assert_regular(g, 2) and is_connected(g)
    assert are_isomorphic(g, cycle_graph(6))


def test_stretch_count_arithmetic():
    g = complete_graph(5)
    for L in (2, 3, 4):
        s = stretch_edges(g, g.edge_set(), L)
        assert s.vertex_count == g.vertex_count + (L - 1) * g.edge_count
        assert s.edge_count == g.edge_count + (L - 1) * g.edge_count
        s.check()


def test_stretch_unknown_edge():
    g = cycle_graph(4)
    with pytest.raises(GraphError, match="no such edge"):
        stretch_edges(g, [(0, 2)], 2)


def test_stretch_interior_levels_take_lower_endpoint():
    t = build_tree(2, 2, 2)
    s = stretch_edges(t, t.edge_set(), 3)
    interior = s.role == PATH_INTERIOR
    for v in np.flatnonzero(interior):
        # walk the chain both ways to its non-interior endpoints
        ends = []
        for start in s.neighbors(v):
            prev, cur = v, int(start)
            while interior[cur]:
                nxt = [int(w) for w in s.neighbors(cur) if w != prev]
                prev, cur = cur, nxt[0]
            ends.append(int(s.level[cur]))
        assert int(s.level[v]) == min(ends)


# ---------------------------------------------------------------------------
# stretch then contract is the identity


@pytest.mark.parametrize("make", [
    lambda: complete_graph(4),
    lambda: cycle_graph(5),
    lambda: build_tree(2, 2, 3),
])
@pytest.mark.parametrize("L", [2, 3])
def test_stretch_contract_roundtrip(make, L):
    g = make()
    s = stretch_edges(g, g.edge_set(), L)
    back = contract_paths(s)
    if back.vertex_count <= 12:
        assert are_isomorphic(back, g)
    assert sorted(back.degrees().tolist()) == sorted(g.degrees().tolist())
    assert back.edge_count == g.edge_count
    assert spectrum_fingerprint(back) == spectrum_fingerprint(g)


def test_contract_hexagon_to_triangle():
    g = cycle_graph(6)
    b = GraphBuilder.from_graph(g)
    for v in (1, 3, 5):
        b._role[v] = PATH_INTERIOR
    marked = b.finish()
    t = contract_paths(marked)
    assert are_isomorphic(t, complete_graph(3))


def test_contract_no_interiors_is_identity():
    g = complete_graph(4)
    assert contract_paths(g) is g


def test_contract_stretched_k2():
    k2 = build_tree(1, 1, 1)
    s = stretch_edges(k2, [(0, 1)], 4)
    back = contract_paths(s)
    assert back.vertex_count == 2 and back.edge_count == 1


def test_contract_rejects_high_degree_interior():
    g = complete_graph(4)
    b = GraphBuilder.from_graph(g)
    b._role[0] = PATH_INTERIOR
    with pytest.raises(GraphError, match="cannot contract"):
        contract_paths(b.finish())


# ---------------------------------------------------------------------------
# graft + interconnect


def _four_roots():
    b = GraphBuilder()
    b.add_vertices(4, level=0)
    return b.finish()


def test_interconnect_clique_on_stretched_edges():
    g, trees = graft_stretched_trees(_four_roots(), [0, 1, 2, 3],
                                     branching=1, height=1, stretch=3)
    wired = interconnect_interiors(g, [trees], "clique")
    interiors = np.flatnonzero(wired.role == PATH_INTERIOR)
    assert len(interiors) == 8
    assert (wired.degrees()[interiors] == 5).all()


def test_interconnect_single_tree_group_no_edges():
    g, trees = graft_stretched_trees(_four_roots(), [0], 1, 1, stretch=3)
    wired = interconnect_interiors(g, [trees], "clique")
    assert wired.edge_count == g.edge_count


def test_interconnect_matching_pair():
    g, trees = graft_stretched_trees(_four_roots(), [0, 1], 1, 1, stretch=2)
    wired = interconnect_interiors(g, [trees], "matching")
    assert wired.edge_count == g.edge_count + 1


def test_interconnect_shape_mismatch():
    base = _four_roots()
    g, t1 = graft_stretched_trees(base, [0], 1, 1, stretch=2)
    g, t2 = graft_stretched_trees(g, [1], 1, 1, stretch=3)
    with pytest.raises(GraphError, match="group shape mismatch"):
        interconnect_interiors(g, [[t1[0], t2[0]]], "matching")


# ---------------------------------------------------------------------------
# line-graph embedding


def test_line_graph_embed_k4_host():
    host = complete_graph(4)
    b = GraphBuilder()
    b.add_vertices(12)
    for i in range(6):
        b.add_edge(2 * i, 2 * i + 1)
    g = b.finish()
    attach = {tuple(e): 2 * j for j, e in enumerate(host.edge_array())}
    out = line_graph_embed(g, host, attach)
    assert out.vertex_count == 16
    aux = np.flatnonzero(out.role == 2)
    assert len(aux) == 4
    assert (out.degrees()[aux] == 3).all()
    for t in attach.values():
        assert out.degree(t) == 3


def test_line_graph_embed_rejects_non_cubic_host():
    host = cycle_graph(4)
    g = complete_graph(2)
    with pytest.raises(GraphError, match="3-regular"):
        line_graph_embed(g, host, {(0, 1): 0})


def test_line_graph_embed_rejects_partial_attachment():
    host = complete_graph(4)
    b = GraphBuilder()
    b.add_vertices(12)
    for i in range(6):
        b.add_edge(2 * i, 2 * i + 1)
    g = b.finish()
    attach = {tuple(e): 0 for e in host.edge_array()}
    with pytest.raises(GraphError, match="attachment mismatch"):
        line_graph_embed(g, host, attach)


@pytest.mark.parametrize("levels, expected", [
    ([7] * 12, [7, 7, 7, 7]),
    # host edge 0 is (0, 1): its target sits alone on level 8
    ([8] + [7] * 11, [UNLEVELED, UNLEVELED, 7, 7]),
])
def test_line_graph_embed_auxiliary_levels(levels, expected):
    host = complete_graph(4)
    b = GraphBuilder()
    b.add_vertex_array(levels, [PATH_INTERIOR] * 12)
    for i in range(6):
        b.add_edge(2 * i, 2 * i + 1)
    g = b.finish()
    attach = {tuple(e): 2 * j for j, e in enumerate(host.edge_array())}
    out = line_graph_embed(g, host, attach)
    assert out.level[12:].tolist() == expected
    assert out.level[:12].tolist() == levels


def test_line_graph_walk_moves_between_incident_host_edges():
    # from an attachment vertex, two auxiliary steps reach exactly the
    # attachment vertices of host edges sharing an endpoint with it
    host = complete_graph(4)
    b = GraphBuilder()
    b.add_vertices(12)
    for i in range(6):
        b.add_edge(2 * i, 2 * i + 1)
    g = b.finish()
    host_edges = [tuple(map(int, e)) for e in host.edge_array()]
    attach = {e: 2 * j for j, e in enumerate(host_edges)}
    out = line_graph_embed(g, host, attach)
    by_vertex = {v: e for e, v in attach.items()}
    for e, v in attach.items():
        reach = set()
        for a in out.neighbors(v):
            if out.role[a] == 2:
                reach.update(int(x) for x in out.neighbors(a))
        incident = {w for w in reach if w in by_vertex and w != v}
        expected = {attach[f] for f in host_edges
                    if f != e and (set(f) & set(e))}
        assert incident == expected


# ---------------------------------------------------------------------------
# regularity, duplicates, serialization


def test_assert_regular():
    assert assert_regular(complete_graph(4), 3)
    assert not assert_regular(complete_graph(4), 4)


def test_duplicate_edge_raises():
    b = GraphBuilder()
    b.add_vertices(3)
    b.add_edge(0, 1)
    b.add_edge(1, 0)
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        b.finish()


def test_bulk_duplicate_detected_at_finish():
    b = GraphBuilder()
    b.add_vertices(3)
    b.add_edge(0, 1)
    b.add_edge_array([1], [2])
    b.add_edge_array([2], [1])
    with pytest.raises(GraphError, match="duplicate edge"):
        b.finish()


def test_self_loop_raises():
    b = GraphBuilder()
    b.add_vertices(2)
    with pytest.raises(GraphError, match="self-loop"):
        b.add_edge(1, 1)


def test_bipartiteness():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(build_tree(2, 3, 2))


def test_serialization_roundtrip(five_reg_h1):
    text = to_text(five_reg_h1)
    g2 = from_text(text)
    assert g2.same_structure(five_reg_h1)
    assert to_text(g2) == text


def test_serialization_header():
    g = build_tree(2, 1, 2).with_meta(variant="custom", h=0, L=0)
    text = to_text(g)
    assert text.splitlines()[0] == "ev 3 2 0 0 custom"
    assert "levels" in text


def test_serialization_full_text():
    b = GraphBuilder(meta={"variant": "tiny", "h": 1, "L": 2})
    b.add_vertex_array([0, 0, UNLEVELED, 1], [0, 1, 2, 3])
    b.add_edge_array([3, 0, 1], [1, 2, 0])
    g = b.finish()
    assert to_text(g) == (
        "ev 4 3 1 2 tiny\n"
        "0 1\n"
        "0 2\n"
        "1 3\n"
        "levels\n"
        "0 0 TreeNode\n"
        "1 0 PathInterior\n"
        "2 -1 Auxiliary\n"
        "3 1 Leaf\n")
    assert from_text(to_text(g)).same_structure(g)


@pytest.mark.parametrize("edge_line, message", [
    ("1 0", r"duplicate edge \(0, 1\)"),
    ("2 2", "self-loop at vertex 2"),
    ("0 3", "unknown vertex"),
    ("-1 2", "unknown vertex"),
    (f"0 {2 ** 70}", "malformed"),
])
def test_from_text_rejects_bad_edge_line(edge_line, message):
    text = f"ev 3 2 0 0 custom\n0 1\n{edge_line}\nlevels\n" + "".join(
        f"{v} 0 TreeNode\n" for v in range(3))
    with pytest.raises(GraphError, match=message):
        from_text(text)
