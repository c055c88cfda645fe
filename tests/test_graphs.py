import numpy as np
import pytest

from expander_cutoff import graphs
from expander_cutoff.graphs import (
    AUXILIARY,
    LEAF,
    PATH_INTERIOR,
    TREE_NODE,
    UNLEVELED,
    GraphBuilder,
    GraphError,
    _embed_line_graph_bulk,
    _graft_trees_onto,
    _join_counterparts,
    _tree_template,
    assert_regular,
    bfs_distances,
    from_text,
    is_bipartite,
    is_connected,
    stretch_edges,
    to_text,
)

from conftest import complete_graph, cycle_graph, graph_from_edges


def _grafted_tree(branching, height):
    """A `branching`-ary tree of the given height grafted at stretch 1 below
    a level-0 root (vertex 0), its deepest level tagged LEAF."""
    b = GraphBuilder()
    b.add_vertices(1, 0, TREE_NODE)
    _graft_trees_onto(b, [0], _tree_template(branching, height,
                                             lambda d, p: 1, LEAF), 0)
    return b.finish()


def _chain_ends(g, v):
    """The two non-interior endpoints of the PATH_INTERIOR chain through v."""
    interior = g.role == PATH_INTERIOR
    ends = []
    for start in g.neighbors(v):
        prev, cur = v, int(start)
        while interior[cur]:
            nxt = [int(w) for w in g.neighbors(cur) if w != prev]
            prev, cur = cur, nxt[0]
        ends.append(cur)
    return ends


# ---------------------------------------------------------------------------
# trees: the build's top and grafted trees


def test_tree_five_regular_top(five_reg_h1):
    # the build's top: the root's 5 children, each with 4 tree-node
    # children, and the grafted bands start below those 20
    d = bfs_distances(five_reg_h1, 0)
    top = np.flatnonzero(d <= 2)
    assert top.tolist() == list(range(26))
    assert [int((d == k).sum()) for k in (1, 2)] == [5, 20]
    assert np.array_equal(five_reg_h1.level[top], d[top])
    assert (five_reg_h1.role[top] == TREE_NODE).all()


def test_tree_height_zero():
    t = _grafted_tree(2, 0)
    assert t.vertex_count == 1
    assert t.edge_count == 0


def test_tree_binary():
    t = _grafted_tree(2, 2)
    assert t.vertex_count == 1 + 2 + 4
    assert t.edge_count == 6
    assert [int((t.level == i).sum()) for i in range(3)] == [1, 2, 4]
    assert ((t.role == LEAF) == (t.level == 2)).all()


def test_tree_levels_are_bfs_distances():
    t = _grafted_tree(3, 3)
    assert np.array_equal(bfs_distances(t, 0), t.level)


# ---------------------------------------------------------------------------
# stretch_edges


def test_stretch_single_edge():
    k2 = graph_from_edges(2, [(0, 1)])
    p = stretch_edges(k2, [(0, 1)], 3)
    assert p.vertex_count == 4
    assert p.edge_count == 3
    assert int((p.role == PATH_INTERIOR).sum()) == 2
    assert sorted(p.degrees().tolist()) == [1, 1, 2, 2]


def test_stretch_identity():
    g = complete_graph(4)
    assert stretch_edges(g, g.edge_set(), 1) is g


def test_stretch_triangle_gives_hexagon():
    # the only connected 2-regular graph on 6 vertices is the 6-cycle
    k3 = complete_graph(3)
    g = stretch_edges(k3, k3.edge_set(), 2)
    assert g.vertex_count == 6 and g.edge_count == 6
    assert assert_regular(g, 2) and is_connected(g)


def test_stretch_count_arithmetic():
    g = complete_graph(5)
    for L in (2, 3, 4):
        s = stretch_edges(g, g.edge_set(), L)
        assert s.vertex_count == g.vertex_count + (L - 1) * g.edge_count
        assert s.edge_count == g.edge_count + (L - 1) * g.edge_count
        s.check()


def test_stretch_unknown_edge():
    g = cycle_graph(4)
    for edge in [(0, 2), (2, 0), (0, 9), (-1, 0)]:
        lo, hi = sorted(edge)
        with pytest.raises(GraphError, match=rf"no such edge \({lo}, {hi}\)"):
            stretch_edges(g, [(0, 1), edge], 2)


def test_stretch_takes_each_edge_once_in_either_orientation():
    g = complete_graph(4)
    s = stretch_edges(g, [(3, 2), (1, 0), (0, 1)], 3)
    assert s.vertex_count == 4 + 2 * 2 and s.edge_count == 6 + 2 * 2
    # the paths follow the (min, max) order of their edges
    assert _chain_ends(s, 4) == [0, 1] and _chain_ends(s, 6) == [2, 3]


def test_stretch_interior_levels_take_lower_endpoint():
    t = _grafted_tree(2, 2)
    s = stretch_edges(t, t.edge_set(), 3)
    for v in np.flatnonzero(s.role == PATH_INTERIOR):
        ends = _chain_ends(s, int(v))
        assert int(s.level[v]) == min(int(s.level[e]) for e in ends)


# ---------------------------------------------------------------------------
# stretch then contract is the identity


@pytest.mark.parametrize("make", [
    lambda: complete_graph(4),
    lambda: cycle_graph(5),
    lambda: _grafted_tree(2, 2),
])
@pytest.mark.parametrize("L", [2, 3])
def test_stretch_contract_roundtrip(make, L):
    # collapsing each interior chain into one edge between its ends gives
    # back g exactly: stretch_edges keeps the ids and tags of g's vertices
    g = make()
    s = stretch_edges(g, g.edge_set(), L)
    n = g.vertex_count
    interior = np.flatnonzero(s.role == PATH_INTERIOR)
    assert interior.tolist() == list(range(n, s.vertex_count))
    assert (s.degrees()[interior] == 2).all()
    assert np.array_equal(s.level[:n], g.level)
    assert np.array_equal(s.role[:n], g.role)
    contracted = {(u, v) for u, v in s.edge_set() if v < n}
    contracted |= {tuple(sorted(_chain_ends(s, int(x)))) for x in interior}
    assert contracted == g.edge_set()


# ---------------------------------------------------------------------------
# graft + counterpart wiring


def _four_roots():
    b = GraphBuilder()
    b.add_vertices(4, level=0)
    return b


def _stretched_edge(stretch):
    """The template of one stretched edge (a height-1 unary tree)."""
    return _tree_template(1, 1, lambda d, p: stretch, TREE_NODE)


def test_graft_returns_copy_bases():
    b = _four_roots()
    tmpl = _stretched_edge(3)
    bases = _graft_trees_onto(b, [0, 1, 2, 3], tmpl, 5)
    assert bases.dtype == np.int64
    assert bases.tolist() == [4, 7, 10, 13]
    g = b.finish()
    # each copy: two interiors then the lower node, levels from base_level
    for i, base in enumerate(bases.tolist()):
        assert g.level[base:base + 3].tolist() == [5, 5, 6]
        assert _chain_ends(g, base) == [i, base + 2]


def test_interconnect_clique_on_stretched_edges():
    b = _four_roots()
    tmpl = _stretched_edge(3)
    bases = _graft_trees_onto(b, [0, 1, 2, 3], tmpl, 0)
    pairs = np.column_stack(np.triu_indices(4, 1))
    _join_counterparts(b, bases, tmpl["interiors"], pairs)
    wired = b.finish()
    interiors = np.flatnonzero(wired.role == PATH_INTERIOR)
    assert len(interiors) == 8
    assert (wired.degrees()[interiors] == 5).all()
    # the three cross edges of each interior join its counterparts
    assert {(int(bi + k), int(bj + k)) for k in tmpl["interiors"]
            for bi in bases for bj in bases if bi < bj} <= wired.edge_set()


def test_interconnect_single_tree_group_no_edges():
    b = _four_roots()
    tmpl = _stretched_edge(3)
    bases = _graft_trees_onto(b, [0], tmpl, 0)
    grafted = b.finish().edge_count
    _join_counterparts(b, bases, tmpl["interiors"], np.empty((0, 2)))
    assert b.finish().edge_count == grafted


def test_interconnect_matching_pair():
    b = _four_roots()
    tmpl = _stretched_edge(2)
    bases = _graft_trees_onto(b, [0, 1], tmpl, 0)
    grafted = b.finish().edge_count
    _join_counterparts(b, bases, tmpl["interiors"], [(0, 1)])
    g = b.finish()
    assert g.edge_count == grafted + 1
    assert (int(bases[0]), int(bases[1])) in g.edge_set()


# ---------------------------------------------------------------------------
# line-graph embedding


def _embed_on_k4():
    """Six disjoint edges (2j, 2j + 1) with the K4 host's edge j attached at
    vertex 2j, embedded with auxiliaries on level 7."""
    host_edges = complete_graph(4).edge_array()
    b = GraphBuilder()
    b.add_vertices(12)
    b.add_edge_array(np.arange(0, 12, 2), np.arange(1, 12, 2))
    attach = {tuple(map(int, e)): 2 * j for j, e in enumerate(host_edges)}
    aux0 = _embed_line_graph_bulk(b, 4, host_edges, list(attach.values()), 7)
    return b.finish(), attach, aux0


def test_line_graph_embed_k4_host():
    out, attach, aux0 = _embed_on_k4()
    assert aux0 == 12 and out.vertex_count == 16
    aux = np.flatnonzero(out.role == AUXILIARY)
    assert aux.tolist() == [12, 13, 14, 15]
    assert (out.degrees()[aux] == 3).all()
    assert (out.level[aux] == 7).all()
    assert (out.level[:12] == UNLEVELED).all()
    for t in attach.values():
        assert out.degree(t) == 3


def test_line_graph_walk_moves_between_incident_host_edges():
    # from an attachment vertex, two auxiliary steps reach exactly the
    # attachment vertices of host edges sharing an endpoint with it
    out, attach, _ = _embed_on_k4()
    by_vertex = {v: e for e, v in attach.items()}
    for e, v in attach.items():
        reach = set()
        for a in out.neighbors(v):
            if out.role[a] == AUXILIARY:
                reach.update(int(x) for x in out.neighbors(a))
        incident = {w for w in reach if w in by_vertex and w != v}
        expected = {attach[f] for f in attach
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
    b.add_edge_array([0, 1], [1, 0])
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        b.finish()


def test_bulk_duplicate_detected_at_finish():
    b = GraphBuilder()
    b.add_vertices(3)
    b.add_edge_array([0], [1])
    b.add_edge_array([1], [2])
    b.add_edge_array([2], [1])
    with pytest.raises(GraphError, match=r"duplicate edge \(1, 2\)"):
        b.finish()


def test_self_loop_raises():
    b = GraphBuilder()
    b.add_vertices(2)
    b.add_edge_array([0, 1], [1, 1])
    with pytest.raises(GraphError, match="self-loop at vertex 1"):
        b.finish()


@pytest.mark.parametrize("u, v", [(0, 2), (-1, 0), (3, 1)])
def test_unknown_endpoint_raises(u, v):
    b = GraphBuilder()
    b.add_vertices(2)
    b.add_edge_array([u], [v])
    with pytest.raises(GraphError, match="unknown vertex"):
        b.finish()


def test_finish_checks_every_chunk_for_range_first_then_loops():
    # per-chunk checks must keep finish()'s order over the whole edge set:
    # a bad endpoint anywhere wins over an earlier self-loop or duplicate,
    # and a self-loop anywhere over an earlier duplicate
    b = GraphBuilder()
    b.add_vertices(4)
    b.add_edge_array([0, 0], [1, 1])
    b.add_edge_array([2], [2])
    b.add_edge_array([1], [4])
    with pytest.raises(GraphError, match="unknown vertex"):
        b.finish()
    b = GraphBuilder()
    b.add_vertices(4)
    b.add_edge_array([0, 1], [1, 0])
    b.add_edge_array([3], [3])
    with pytest.raises(GraphError, match="self-loop at vertex 3"):
        b.finish()


def test_finish_is_repeatable():
    b = GraphBuilder(meta={"variant": "custom"})
    b.add_vertices(6)
    b.add_edge_array(np.array([[0, 1], [2, 3]]), np.array([[4, 5], [5, 4]]))
    ids = np.arange(6)
    b.add_edge_array(ids[0::2], ids[1::2])  # strided views
    first, second = b.finish(), b.finish(h=1)
    assert first.same_structure(second)
    assert second.meta == {"variant": "custom", "h": 1}
    assert first.edge_set() == {(0, 4), (1, 5), (2, 5), (3, 4), (0, 1),
                                (2, 3), (4, 5)}
    first.check()


def test_index_arrays_are_int32_and_shared_with_the_adjacency():
    b = GraphBuilder(meta={"variant": "custom"})
    b.add_vertices(4)
    b.add_edge_array([0, 1, 2], [1, 2, 3])
    built = b.finish()
    for g in (built, from_text(to_text(built)),
              stretch_edges(built, [(1, 2)], 3)):
        assert g.indptr.dtype == g.indices.dtype == np.int32
        assert g.level.dtype == np.int64 and g.role.dtype == np.uint8
        a = g.adjacency_csr()
        assert np.shares_memory(a.indices, g.indices)
        assert np.shares_memory(a.indptr, g.indptr)


def test_edge_arrays_of_different_shapes_raise():
    b = GraphBuilder()
    b.add_vertices(3)
    with pytest.raises(GraphError, match="differ in shape"):
        b.add_edge_array([0, 1], [1])


@pytest.mark.parametrize("levels, roles, message", [
    ([0, 0], [0], "differ in shape"),
    ([0], [0, 3], "differ in shape"),
    ([0, 0], [0, 4], r"role codes must lie in 0\.\.3"),
    ([0], [-1], r"role codes must lie in 0\.\.3"),
    ([0], [256], r"role codes must lie in 0\.\.3")])
def test_vertex_arrays_with_bad_tags_raise(levels, roles, message):
    b = GraphBuilder()
    with pytest.raises(GraphError, match=message):
        b.add_vertex_array(levels, roles)
    with pytest.raises(GraphError, match=message):
        b.add_vertex_array(np.array(levels), np.array(roles))
    assert b.vertex_count == 0


def test_bipartiteness():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(_grafted_tree(2, 3))


@pytest.mark.parametrize("last, bipartite", [
    ([(7, 8), (8, 9), (9, 7)], False),   # a triangle
    ([(7, 8), (8, 9)], True),            # a path
])
def test_bipartiteness_reaches_every_component(last, bipartite):
    # a 4-cycle, isolated vertex 4, an edge 5-6, then the last component:
    # only a search that reaches it can see its odd cycle
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = graph_from_edges(10, square + [(5, 6)] + last)
    assert g.degrees()[4] == 0
    assert is_bipartite(g) is bipartite


def test_bipartiteness_checks_every_block_of_arcs(monkeypatch):
    # three arcs per block, so the odd cycle's arcs span many blocks
    monkeypatch.setattr(graphs, "_BLOCK", 3)
    assert is_bipartite(cycle_graph(10))
    assert not is_bipartite(cycle_graph(9))
    assert not is_bipartite(graph_from_edges(
        12, [(i, i + 1) for i in range(8)] + [(9, 10), (10, 11), (11, 9)]))


def test_serialization_roundtrip(five_reg_h1):
    text = to_text(five_reg_h1)
    g2 = from_text(text)
    assert g2.same_structure(five_reg_h1)
    assert to_text(g2) == text


def test_serialization_header():
    g = graph_from_edges(3, [(0, 1), (0, 2)]).with_meta(
        variant="custom", h=0, L=0)
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


@pytest.mark.parametrize("vertex_lines, message", [
    # vertex 0 named twice and vertex 1 never: 1 would keep level -1
    ("0 5 Leaf\n0 5 Leaf\n2 5 Leaf\n", "line 6: expected vertex 1, got 0"),
    ("0 5 Leaf\n2 5 Leaf\n1 5 Leaf\n", "line 6: expected vertex 1, got 2"),
    ("0 5 Leaf\n1 5 Leaf\n7 5 Leaf\n", "line 7: expected vertex 2, got 7"),
])
def test_from_text_requires_vertex_lines_in_order(vertex_lines, message):
    text = "ev 3 2 0 0 c\n0 1\n1 2\nlevels\n" + vertex_lines
    with pytest.raises(GraphError, match=message):
        from_text(text)
