"""Sparse undirected graphs with per-vertex level and role tags, plus the
structural builders that all constructions in this package compose: rooted
trees, edge stretching, interior interconnection across isomorphic trees,
line-graph auxiliary embedding, and path contraction.

Vertex ids are dense integers assigned in construction order.  Graphs are
immutable after build; every operation returns a new graph.  A parallel
edge or a self-loop is an error, never a silent no-op: that policy catches
construction bugs early.  A self-loop added edge by edge is refused at once;
duplicates are found when the builder freezes the graph.
"""

from __future__ import annotations

import numpy as np

TREE_NODE = 0
PATH_INTERIOR = 1
AUXILIARY = 2
LEAF = 3

ROLE_NAMES = ("TreeNode", "PathInterior", "Auxiliary", "Leaf")
ROLE_CODES = {name: code for code, name in enumerate(ROLE_NAMES)}

UNLEVELED = -1


class GraphError(ValueError):
    """A structural operation was applied to an unsuitable graph."""


class LeveledGraph:
    """Undirected simple graph in CSR form.

    Attributes
    ----------
    indptr, indices : int64 arrays
        CSR adjacency; each neighbor list is sorted ascending.
    level : int64 array
        Per-vertex level; ``UNLEVELED`` (-1) where levels are meaningless.
    role : uint8 array
        Per-vertex role code (TREE_NODE, PATH_INTERIOR, AUXILIARY, LEAF).
    meta : dict
        Construction provenance (params, seeds, tree blocks).
    """

    __slots__ = ("indptr", "indices", "level", "role", "meta", "_csr",
                 "_float_degrees")

    def __init__(self, indptr, indices, level, role, meta=None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.level = np.asarray(level, dtype=np.int64)
        self.role = np.asarray(role, dtype=np.uint8)
        self.meta = dict(meta or {})
        self._csr = None
        self._float_degrees = None
        for arr in (self.indptr, self.indices, self.level, self.role):
            arr.setflags(write=False)

    @property
    def vertex_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def float_degrees(self) -> np.ndarray:
        """Degrees as a cached, read-only float64 array (the walk kernel's
        divisor)."""
        if self._float_degrees is None:
            d = self.degrees().astype(np.float64)
            d.setflags(write=False)
            self._float_degrees = d
        return self._float_degrees

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, sorted lexicographically."""
        n = self.vertex_count
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edge_array()}

    def adjacency_csr(self):
        """Adjacency as a cached scipy CSR matrix with float64 entries."""
        if self._csr is None:
            import scipy.sparse as sp

            n = self.vertex_count
            data = np.ones(len(self.indices), dtype=np.float64)
            self._csr = sp.csr_matrix(
                (data, self.indices.astype(np.int32, copy=False)
                 if n < 2**31 else self.indices, self.indptr),
                shape=(n, n))
        return self._csr

    def adjacency_dense(self) -> np.ndarray:
        n = self.vertex_count
        a = np.zeros((n, n))
        for v in range(n):
            a[v, self.neighbors(v)] = 1.0
        return a

    def with_meta(self, **updates) -> "LeveledGraph":
        meta = dict(self.meta)
        meta.update(updates)
        return LeveledGraph(self.indptr, self.indices, self.level, self.role, meta)

    def check(self) -> None:
        """Exact symmetry / no-self-loop / sortedness scan (used by tests)."""
        n = self.vertex_count
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        if np.any(src == self.indices):
            raise GraphError("self-loop present")
        for v in range(n):
            nbrs = self.neighbors(v)
            if np.any(np.diff(nbrs) <= 0):
                raise GraphError(f"adjacency of {v} not strictly sorted")
        fwd = {(int(u), int(w)) for u, w in zip(src, self.indices)}
        for u, w in fwd:
            if (w, u) not in fwd:
                raise GraphError(f"asymmetric edge ({u}, {w})")

    def same_structure(self, other: "LeveledGraph") -> bool:
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.level, other.level)
                and np.array_equal(self.role, other.role))

    def __repr__(self):
        return (f"LeveledGraph(n={self.vertex_count}, m={self.edge_count}, "
                f"variant={self.meta.get('variant', 'custom')!r})")


class GraphBuilder:
    """Mutable accumulator that freezes into a LeveledGraph.

    add_edge refuses a self-loop or an unknown endpoint at once and
    appends; add_edge_array appends whole arrays.  finish() checks the
    whole edge set in one vectorized pass: a duplicate edge, a self-loop or
    an unknown endpoint is a GraphError there, never dropped silently.
    """

    def __init__(self, meta=None):
        self._level = []
        self._role = []
        self._src = []
        self._dst = []
        self._chunks = []
        self.meta = dict(meta or {})

    @classmethod
    def from_graph(cls, g: LeveledGraph) -> "GraphBuilder":
        b = cls(meta=g.meta)
        b._level = g.level.tolist()
        b._role = g.role.tolist()
        edges = g.edge_array()
        b.add_edge_array(edges[:, 0], edges[:, 1])
        return b

    @property
    def vertex_count(self) -> int:
        return len(self._level)

    def add_vertex(self, level=UNLEVELED, role=TREE_NODE) -> int:
        self._level.append(int(level))
        self._role.append(int(role))
        return len(self._level) - 1

    def add_vertices(self, count, level=UNLEVELED, role=TREE_NODE) -> int:
        """Add `count` vertices with shared tags; returns the first new id."""
        first = len(self._level)
        self._level.extend([int(level)] * count)
        self._role.extend([int(role)] * count)
        return first

    def add_vertex_array(self, levels, roles) -> int:
        first = len(self._level)
        self._level.extend(np.asarray(levels, dtype=np.int64).tolist())
        self._role.extend(np.asarray(roles, dtype=np.int64).tolist())
        return first

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        n = len(self._level)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references unknown vertex")
        self._src.append(u)
        self._dst.append(v)

    def add_edge_array(self, us, vs) -> None:
        """Bulk edge insertion; every check runs at finish()."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise GraphError("endpoint arrays differ in length")
        self._chunks.append((us, vs))

    def _all_edges(self):
        parts_u = [np.asarray(self._src, dtype=np.int64)]
        parts_v = [np.asarray(self._dst, dtype=np.int64)]
        for us, vs in self._chunks:
            parts_u.append(us)
            parts_v.append(vs)
        return np.concatenate(parts_u), np.concatenate(parts_v)

    def finish(self, **meta_updates) -> LeveledGraph:
        n = len(self._level)
        eu, ev = self._all_edges()
        if len(eu):
            if eu.min() < 0 or ev.min() < 0 or max(eu.max(), ev.max()) >= n:
                raise GraphError("edge references unknown vertex")
            lo = np.minimum(eu, ev)
            hi = np.maximum(eu, ev)
            if np.any(lo == hi):
                bad = int(lo[np.argmax(lo == hi)])
                raise GraphError(f"self-loop at vertex {bad}")
            keys = np.sort((lo << 32) | hi)
            dup = np.flatnonzero(np.diff(keys) == 0)
            if len(dup):
                k = int(keys[dup[0]])
                raise GraphError(f"duplicate edge ({k >> 32}, {k & 0xffffffff})")
            src = np.concatenate([eu, ev])
            dst = np.concatenate([ev, eu])
            order = np.lexsort((dst, src))
            indices = dst[order]
            counts = np.bincount(src, minlength=n)
        else:
            indices = np.empty(0, np.int64)
            counts = np.zeros(n, np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        meta = dict(self.meta)
        meta.update(meta_updates)
        return LeveledGraph(indptr, indices,
                            np.asarray(self._level, dtype=np.int64),
                            np.asarray(self._role, dtype=np.uint8), meta)


# ---------------------------------------------------------------------------
# basic constructors


def from_edges(n, edges, level=None, role=None, meta=None) -> LeveledGraph:
    b = GraphBuilder(meta=meta)
    b.add_vertices(n)
    for u, v in edges:
        b.add_edge(int(u), int(v))
    if level is not None:
        b._level = [int(x) for x in level]
    if role is not None:
        b._role = [int(x) for x in role]
    return b.finish()


def build_tree(branching: int, height: int, root_degree: int) -> LeveledGraph:
    """Rooted tree: the root has `root_degree` children and every deeper
    internal node has `branching` children; level(v) is the depth from the
    root and the deepest level is tagged LEAF.  height 0 is a single root.
    """
    if branching < 1:
        raise GraphError("branching must be >= 1")
    if root_degree < 1:
        raise GraphError("root_degree must be >= 1")
    if height < 0:
        raise GraphError("height must be >= 0")
    b = GraphBuilder()
    root = b.add_vertex(0, LEAF if height == 0 else TREE_NODE)
    prev = [root]
    for depth in range(1, height + 1):
        role = LEAF if depth == height else TREE_NODE
        width = root_degree if depth == 1 else branching
        cur = []
        for p in prev:
            for _ in range(width):
                c = b.add_vertex(depth, role)
                b.add_edge(p, c)
                cur.append(c)
        prev = cur
    return b.finish(builder="tree", branching=branching, height=height,
                    root_degree=root_degree)


# ---------------------------------------------------------------------------
# edge stretching


def stretch_edges(g: LeveledGraph, edges, L: int) -> LeveledGraph:
    """Replace each listed edge (u, v) by a path u - x1 - ... - x_{L-1} - v.

    New interior vertices carry role PATH_INTERIOR and the level of the
    lower endpoint (min of the two endpoint levels).  L = 1 is the identity.
    """
    if L < 1:
        raise GraphError("stretch length must be >= 1")
    targets = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u > v:
            u, v = v, u
        if not g.has_edge(u, v):
            raise GraphError(f"no such edge ({u}, {v})")
        targets.add((u, v))
    if L == 1 or not targets:
        return g
    meta = {k: val for k, val in g.meta.items() if k != "tree_blocks"}
    b = GraphBuilder(meta=meta)
    b._level = g.level.tolist()
    b._role = g.role.tolist()
    for u, v in map(tuple, g.edge_array()):
        if (u, v) not in targets:
            b.add_edge(u, v)
    for u, v in sorted(targets):
        lvl = min(g.level[u], g.level[v])
        prev = u
        for _ in range(L - 1):
            x = b.add_vertex(lvl, PATH_INTERIOR)
            b.add_edge(prev, x)
            prev = x
        b.add_edge(prev, v)
    return b.finish()


# ---------------------------------------------------------------------------
# stretched-tree grafting (the layout interconnect_interiors relies on)


def _tree_template(branching, height, length_at, leaf_role):
    """Shared layout of one stretched tree: vertex offsets (interiors of an
    edge first, then its lower node, in BFS edge order), edge offset pairs
    (-1 stands for the grafting root), level offsets, and roles."""
    t_src, t_dst = [], []
    level_off, role_of = [], []
    interiors, leaves = [], []
    sig = []
    off = 0
    prev_nodes = [-1]
    for depth in range(1, height + 1):
        role = leaf_role if depth == height else TREE_NODE
        cur = []
        pos = 0
        for parent in prev_nodes:
            for _ in range(branching):
                ln = int(length_at(depth, pos))
                if ln < 1:
                    raise GraphError("stretch length must be >= 1")
                sig.append((depth, pos, ln))
                prev = parent
                for _ in range(ln - 1):
                    interiors.append(off)
                    level_off.append(depth - 1)
                    role_of.append(PATH_INTERIOR)
                    t_src.append(prev)
                    t_dst.append(off)
                    prev = off
                    off += 1
                level_off.append(depth)
                role_of.append(role)
                t_src.append(prev)
                t_dst.append(off)
                cur.append(off)
                if depth == height:
                    leaves.append(off)
                off += 1
                pos += 1
        prev_nodes = cur
    return {
        "size": off,
        "src": np.asarray(t_src, dtype=np.int64),
        "dst": np.asarray(t_dst, dtype=np.int64),
        "level_off": np.asarray(level_off, dtype=np.int64),
        "roles": np.asarray(role_of, dtype=np.int64),
        "interiors": np.asarray(interiors, dtype=np.int64),
        "leaves": np.asarray(leaves, dtype=np.int64),
        "signature": tuple(sig),
    }


def _graft_trees_onto(b, roots, branching, height, length_at, base_levels,
                      leaf_role=TREE_NODE):
    """Grow one identically-shaped stretched tree below each root, directly
    on a builder.  Returns the new block records.

    length_at(depth, position) gives the stretch length of the edge ending
    at the depth-`depth` node with left-to-right index `position`; the same
    shape is used for every root, so vertices at equal offsets from their
    block base are isomorphic counterparts.
    """
    tmpl = _tree_template(branching, height, length_at, leaf_role)
    roots_a = np.asarray(roots, dtype=np.int64)
    base_lvls = np.asarray(base_levels, dtype=np.int64)
    n_trees = len(roots_a)
    size = tmpl["size"]
    levels = (base_lvls[:, None] + tmpl["level_off"][None, :]).ravel()
    base0 = b.add_vertex_array(levels, np.tile(tmpl["roles"], n_trees))
    bases = base0 + np.arange(n_trees, dtype=np.int64) * size
    src = np.where(tmpl["src"][None, :] < 0, roots_a[:, None],
                   bases[:, None] + tmpl["src"][None, :]).ravel()
    dst = (bases[:, None] + tmpl["dst"][None, :]).ravel()
    b.add_edge_array(src, dst)
    return [{
        "root": int(roots_a[i]),
        "base": int(bases[i]),
        "size": size,
        "interiors": tmpl["interiors"],
        "leaves": tmpl["leaves"],
        "signature": tmpl["signature"],
    } for i in range(n_trees)]


def graft_stretched_trees(g, roots, branching, height, stretch=1,
                          stretch_of=None, leaf_role=TREE_NODE):
    """Attach a stretched `branching`-ary tree of the given height below each
    root vertex of g.  Returns (graph, tree_ids); the new graph's meta
    carries the tree blocks that interconnect_interiors consumes.

    stretch_of(depth, position) overrides the constant stretch per edge; it
    must be the same function for every root (the trees stay isomorphic).
    """
    if height < 1:
        raise GraphError("height must be >= 1")
    length_at = stretch_of if stretch_of is not None else (lambda d, p: stretch)
    b = GraphBuilder.from_graph(g)
    base_levels = [int(g.level[r]) for r in roots]
    blocks = _graft_trees_onto(b, [int(r) for r in roots], branching, height,
                               length_at, base_levels, leaf_role=leaf_role)
    existing = list(g.meta.get("tree_blocks", ()))
    first = len(existing)
    out = b.finish(tree_blocks=tuple(existing + blocks))
    return out, list(range(first, first + len(blocks)))


def _interconnect_onto(b, blocks, tree_groups, mode):
    if mode not in ("clique", "matching"):
        raise GraphError(f"unknown interconnect mode {mode!r}")
    for group in tree_groups:
        blks = [blocks[t] for t in group]
        sig0 = blks[0]["signature"]
        for blk in blks[1:]:
            if blk["signature"] != sig0:
                raise GraphError("group shape mismatch")
        if mode == "matching" and len(blks) not in (1, 2):
            raise GraphError("matching mode takes groups of 2")
        if len(blks) < 2:
            continue
        ints = blks[0]["interiors"]
        for i in range(len(blks)):
            for j in range(i + 1, len(blks)):
                b.add_edge_array(blks[i]["base"] + ints, blks[j]["base"] + ints)


def interconnect_interiors(g, tree_groups, mode) -> LeveledGraph:
    """Wire isomorphic path interiors across each group of grafted trees.

    mode "clique" adds a complete graph on every interior class of the group
    (each interior's degree grows by group size - 1); mode "matching" adds a
    single edge per class and takes groups of exactly 2.  Trees are named by
    the ids graft_stretched_trees returned.
    """
    blocks = g.meta.get("tree_blocks")
    if not blocks:
        raise GraphError("graph has no grafted trees to interconnect")
    b = GraphBuilder.from_graph(g)
    _interconnect_onto(b, blocks, tree_groups, mode)
    return b.finish()


# ---------------------------------------------------------------------------
# line-graph auxiliary embedding


def _embed_line_graph_bulk(b, host_n, host_edges, targets, aux_level):
    """Vectorized embedding: one auxiliary per host vertex, joined to
    targets[j] for every host edge j incident to it.  targets must follow
    the host's edge_array order; aux_level is one level for every auxiliary
    or an array of one level per host vertex."""
    targets = np.asarray(targets, dtype=np.int64)
    aux0 = b.add_vertex_array(np.full(host_n, aux_level, dtype=np.int64),
                              np.full(host_n, AUXILIARY, dtype=np.int64))
    us = np.concatenate([aux0 + host_edges[:, 0], aux0 + host_edges[:, 1]])
    b.add_edge_array(us, np.concatenate([targets, targets]))
    return aux0


def line_graph_embed(g, host, attach) -> LeveledGraph:
    """Add one auxiliary vertex per host vertex w, joined to the attachment
    vertices of w's three incident host edges.

    `attach` must be a bijection from the host's edge set onto attachment
    vertices of current degree 1 or 2; a walk restricted to the attachment
    vertices then moves between host edges that share a host endpoint.
    """
    host_g = getattr(host, "graph", host)
    if not assert_regular(host_g, 3):
        raise GraphError("host is not 3-regular")
    edges = host_g.edge_array()
    host_edges = [tuple(e) for e in edges.tolist()]
    norm = {}
    for e, t in attach.items():
        u, v = int(e[0]), int(e[1])
        if u > v:
            u, v = v, u
        norm[(u, v)] = int(t)
    if set(norm) != set(host_edges) or len(set(norm.values())) != len(norm):
        raise GraphError("attachment mismatch: need a bijection onto the host edges")
    degs = g.degrees()
    for t in norm.values():
        if degs[t] not in (1, 2):
            raise GraphError(f"attachment mismatch: vertex {t} has degree {degs[t]}")
    targets = np.asarray([norm[e] for e in host_edges], dtype=np.int64)
    # an auxiliary takes the level its three targets share, else UNLEVELED
    by_vertex = np.repeat(g.level[targets], 2)[
        np.argsort(edges.ravel(), kind="stable")].reshape(-1, 3)
    shared = (by_vertex == by_vertex[:, :1]).all(axis=1)
    b = GraphBuilder.from_graph(g)
    _embed_line_graph_bulk(b, host_g.vertex_count, edges, targets,
                           np.where(shared, by_vertex[:, 0], UNLEVELED))
    return b.finish()


# ---------------------------------------------------------------------------
# path contraction


def contract_paths(g: LeveledGraph) -> LeveledGraph:
    """Collapse every maximal chain of degree-2 PATH_INTERIOR vertices into a
    single edge between its non-interior endpoints.

    Inverse of stretch_edges on graphs whose cross edges were removed first.
    """
    n = g.vertex_count
    interior = g.role == PATH_INTERIOR
    if not interior.any():
        return g
    degs = g.degrees()
    bad = np.flatnonzero(interior & (degs != 2))
    if len(bad):
        raise GraphError(f"cannot contract: interior {bad[0]} has degree {degs[bad[0]]}")

    keep = np.flatnonzero(~interior)
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    meta = {k: v for k, v in g.meta.items() if k != "tree_blocks"}
    b = GraphBuilder(meta=meta)
    for v in keep:
        b.add_vertex(int(g.level[v]), int(g.role[v]))

    seen = np.zeros(n, dtype=bool)
    for u, v in map(tuple, g.edge_array()):
        iu, iv = interior[u], interior[v]
        if not iu and not iv:
            b.add_edge(int(new_id[u]), int(new_id[v]))
        elif not iu and iv and not seen[v]:
            # walk the chain starting from endpoint u through v
            prev, cur = u, v
            while interior[cur]:
                seen[cur] = True
                a, c = g.neighbors(cur)
                nxt = a if c == prev else c
                prev, cur = cur, nxt
            if interior[cur]:
                raise GraphError("cannot contract: interior-only cycle")
            b.add_edge(int(new_id[u]), int(new_id[cur]))
    if not seen[interior].all():
        raise GraphError("cannot contract: interior-only cycle")
    return b.finish()


# ---------------------------------------------------------------------------
# predicates and traversal


def assert_regular(g: LeveledGraph, d: int) -> bool:
    """True iff every vertex has degree exactly d."""
    degs = g.degrees()
    return bool(len(degs) > 0 and (degs == d).all())


def bfs_distances(g: LeveledGraph, source: int) -> np.ndarray:
    """BFS distance from source to every vertex (-1 for unreachable)."""
    n = g.vertex_count
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        take = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts) \
            + np.repeat(starts, counts)
        nbrs = g.indices[take]
        fresh = np.unique(nbrs[dist[nbrs] < 0])
        if fresh.size == 0:
            break
        d += 1
        dist[fresh] = d
        frontier = fresh
    return dist


def is_connected(g: LeveledGraph) -> bool:
    if g.vertex_count == 0:
        return True
    return bool((bfs_distances(g, 0) >= 0).all())


def is_bipartite(g: LeveledGraph) -> bool:
    """True iff g has no odd cycle (checked per connected component)."""
    n = g.vertex_count
    color = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        if color[s] >= 0:
            continue
        dist = bfs_distances(g, s)
        comp = dist >= 0
        color[comp] = dist[comp] % 2
    edges = g.edge_array()
    if len(edges) == 0:
        return True
    return bool((color[edges[:, 0]] != color[edges[:, 1]]).all())


# ---------------------------------------------------------------------------
# serialization: text edge-list with a levels section


def to_text(g: LeveledGraph) -> str:
    """Serialize: header `ev <n> <m> <h> <L> <variant>`, one `u v` line per
    edge (u < v), then a `levels` section of `vertex level role` triples."""
    meta = g.meta
    h = int(meta.get("h", 0))
    L = int(meta.get("L", 0))
    variant = str(meta.get("variant", "custom"))
    lines = [f"ev {g.vertex_count} {g.edge_count} {h} {L} {variant}"]
    lines += [f"{u} {v}" for u, v in g.edge_array().tolist()]
    lines.append("levels")
    names = [ROLE_NAMES[r] for r in g.role.tolist()]
    lines += [f"{v} {lvl} {name}"
              for v, (lvl, name) in enumerate(zip(g.level.tolist(), names))]
    lines.append("")
    return "\n".join(lines)


def from_text(text: str) -> LeveledGraph:
    """Parse the to_text format; any missing line, wrong field count,
    non-integer or out-of-range field, unknown role, duplicate edge or
    self-loop raises GraphError."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("ev "):
        raise GraphError("bad header")
    try:
        _, n_s, m_s, h_s, L_s, variant = lines[0].split(maxsplit=5)
        n, m = int(n_s), int(m_s)
        b = GraphBuilder(meta={"h": int(h_s), "L": int(L_s),
                               "variant": variant})
        b.add_vertices(n)
        us, vs = [], []
        for i in range(1, 1 + m):
            u_s, v_s = lines[i].split()
            us.append(int(u_s))
            vs.append(int(v_s))
        b.add_edge_array(us, vs)
        if lines[1 + m] != "levels":
            raise GraphError("missing levels section")
        for i in range(2 + m, 2 + m + n):
            v_s, lvl_s, role_s = lines[i].split()
            v = int(v_s)
            if not 0 <= v < n:
                raise GraphError(f"line {i + 1}: vertex {v} out of range")
            b._level[v] = int(lvl_s)
            b._role[v] = ROLE_CODES[role_s]
        return b.finish()
    except GraphError:
        raise
    except (IndexError, KeyError, ValueError, OverflowError) as exc:
        raise GraphError(f"malformed graph text: {exc!r}") from exc


# ---------------------------------------------------------------------------
# small-instance isomorphism (used by tests to check structural identities)


def are_isomorphic(g1: LeveledGraph, g2: LeveledGraph, max_n: int = 12) -> bool:
    """Exact isomorphism test by backtracking; intended for tiny graphs."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    if n > max_n:
        raise GraphError(f"isomorphism search capped at {max_n} vertices")
    d1 = sorted(g1.degrees().tolist())
    d2 = sorted(g2.degrees().tolist())
    if d1 != d2:
        return False
    deg1, deg2 = g1.degrees(), g2.degrees()
    order = sorted(range(n), key=lambda v: -deg1[v])
    mapping = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or deg2[w] != deg1[v]:
                continue
            ok = True
            for u in g1.neighbors(v):
                mu = mapping[u]
                if mu >= 0 and not g2.has_edge(int(mu), w):
                    ok = False
                    break
            if ok:
                # also reject extra adjacencies of w to mapped non-neighbors
                nbrs_v = set(g1.neighbors(v).tolist())
                for x in range(n):
                    mx = mapping[x]
                    if mx >= 0 and x not in nbrs_v and g2.has_edge(int(mx), w):
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)


def spectrum_fingerprint(g: LeveledGraph, digits: int = 8) -> tuple:
    """Sorted adjacency spectrum rounded for structural comparison."""
    w = np.linalg.eigvalsh(g.adjacency_dense())
    return tuple(np.round(w, digits))
