"""Sparse undirected graphs with per-vertex level and role tags, the
builder that freezes them, and the structural operations the constructions
compose on a builder: stretched-tree grafting that copies one template
below every root, wiring between counterpart vertices of those copies, and
line-graph auxiliary embedding.  stretch_edges replaces edges of a finished
graph by paths.

Vertex ids are dense integers assigned in construction order.  The builder
takes vertices in runs and edges in arrays only.  Graphs are immutable
after build; every operation returns a new graph.  A parallel edge or a
self-loop is an error, never a silent no-op: finish() finds both, and
unknown endpoints, over the whole edge set.  It reads the builder's edge
chunks in place and holds one key per edge, then both arcs of each, and
frees the arcs before it copies the tags, so its peak stays under twice
the bytes of the graph it returns.

The `.ev` codec stays near the size of its text: text_blocks formats the
edge lines block by block from the CSR rows (to_text joins the blocks,
build writes them as they come), and from_text matches each section in
runs of lines and converts its fields in bulk, so neither keeps a Python
object or matcher state per line.
"""

from __future__ import annotations

import os
import re
import sys
from array import array
from functools import cache
from itertools import chain

import numpy as np

TREE_NODE = 0
PATH_INTERIOR = 1
AUXILIARY = 2
LEAF = 3

ROLE_NAMES = ("TreeNode", "PathInterior", "Auxiliary", "Leaf")
ROLE_CODES = {name: code for code, name in enumerate(ROLE_NAMES)}

UNLEVELED = -1

# rows or arcs per block where a whole-graph pass would make an n- or
# arc-long int64 temporary (numpy gathers through an int32 index array by
# an intp copy of it)
_BLOCK = 1 << 12


class GraphError(ValueError):
    """A structural operation was applied to an unsuitable graph."""


class LeveledGraph:
    """Undirected simple graph in CSR form.

    Attributes
    ----------
    indptr, indices : int32 arrays
        CSR adjacency; each neighbor list is sorted ascending.  int32 is
        an index type scipy's compiled csr_matvec runs on, so the walk's
        kernel (matvec_kernel) and adjacency_csr() use these arrays
        without a copy; GraphBuilder.finish refuses a graph of 2^31
        vertices or arcs or more.
    level : int64 array
        Per-vertex level; ``UNLEVELED`` (-1) where levels are meaningless.
    role : uint8 array
        Per-vertex role code (TREE_NODE, PATH_INTERIOR, AUXILIARY, LEAF).
    meta : dict
        Construction provenance (params, seeds, certified gaps).
    """

    __slots__ = ("indptr", "indices", "level", "role", "meta", "_csr",
                 "_kernel", "_float_degrees")

    def __init__(self, indptr, indices, level, role, meta=None):
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.level = np.asarray(level, dtype=np.int64)
        self.role = np.asarray(role, dtype=np.uint8)
        self.meta = dict(meta or {})
        self._csr = None
        self._kernel = None
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
        divisor); a vertex of degree 0, where the walk is undefined, is a
        GraphError."""
        if self._float_degrees is None:
            d = self.degrees().astype(np.float64)
            if not d.all():
                raise GraphError(f"vertex {int(d.argmin())} has degree 0: "
                                 f"the walk is undefined there")
            d.setflags(write=False)
            self._float_degrees = d
        return self._float_degrees

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, sorted lexicographically."""
        n = self.vertex_count
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edge_array()}

    def adjacency_csr(self):
        """Adjacency as a cached scipy CSR matrix with float64 entries, on
        the graph's own index arrays.  No command calls it: it imports
        scipy.sparse, which the walk's kernel does without."""
        if self._csr is None:
            import scipy.sparse as sp

            n = self.vertex_count
            data = np.ones(len(self.indices), dtype=np.float64)
            self._csr = sp.csr_matrix((data, self.indices, self.indptr),
                                      shape=(n, n))
        return self._csr

    def matvec_kernel(self):
        """Cached kernel(x, out) writing A x into `out`: scipy's compiled
        csr_matvec, the loop csr_matrix.dot runs, on the graph's own index
        arrays and one float64 array of ones, so it agrees bit for bit
        with adjacency_csr().dot(x) without importing scipy.sparse.  It
        checks no lengths, so x and out must be distinct contiguous
        float64 vectors of length n (mixing.step checks them)."""
        if self._kernel is None:
            csr_matvec = _csr_matvec()
            n = self.vertex_count
            indptr, indices = self.indptr, self.indices
            ones = np.ones(len(indices), dtype=np.float64)

            def kernel(x, out):
                out.fill(0)
                csr_matvec(n, n, indptr, indices, ones, x, out)

            self._kernel = kernel
        return self._kernel

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


@cache
def _csr_matvec():
    """scipy's compiled csr_matvec, loaded once per process from the
    sparse/_sparsetools extension file of the installed scipy.

    Importing scipy.sparse would run its package init (about 19 MB of
    modules, among them numpy.testing, numpy.random and numpy.fft) to
    reach this one function.  Only the top-level scipy package is
    imported, as its init sets up the wheel's bundled-library paths on
    some platforms.  The extension enters itself in sys.modules as it
    loads; that entry is removed again unless scipy.sparse made it, so
    sys.modules lists no submodule of a package that was never
    imported."""
    from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                     FileFinder)
    from importlib.util import module_from_spec

    import scipy

    name = "scipy.sparse._sparsetools"
    finder = FileFinder(os.path.join(scipy.__path__[0], "sparse"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in {finder.path}")
    entered = name not in sys.modules
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if entered:
        sys.modules.pop(name, None)
    return module.csr_matvec


class GraphBuilder:
    """Mutable accumulator that freezes into a LeveledGraph.

    Vertices come in runs (add_vertices, add_vertex_array) and edges in
    arrays (add_edge_array).  finish() checks the whole edge set in one
    vectorized pass: a duplicate edge, a self-loop or an unknown endpoint
    is a GraphError there, never dropped silently.
    """

    def __init__(self, meta=None):
        self._level = array("q")
        self._role = array("B")
        self._chunks = []
        self.meta = dict(meta or {})

    @property
    def vertex_count(self) -> int:
        return len(self._level)

    def add_vertices(self, count, level=UNLEVELED, role=TREE_NODE) -> int:
        """Add `count` vertices with shared tags; returns the first new id."""
        return self.add_vertex_array(np.full(count, level),
                                     np.full(count, role))

    def add_vertex_array(self, levels, roles) -> int:
        """Add one vertex per entry of the equal-shape arrays levels and
        roles (codes 0..3); returns the first new id."""
        levels = np.asarray(levels, dtype=np.int64)
        roles = np.asarray(roles, dtype=np.int64)
        if levels.shape != roles.shape:
            raise GraphError("level and role arrays differ in shape")
        if roles.size and not 0 <= roles.min() <= roles.max() <= LEAF:
            raise GraphError(f"role codes must lie in 0..{LEAF}")
        first = len(self._level)
        self._level.frombytes(levels.tobytes())
        self._role.frombytes(roles.astype(np.uint8).tobytes())
        return first

    def add_edge_array(self, us, vs) -> None:
        """Edges us[i] - vs[i] for arrays of one shape; every check runs at
        finish()."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise GraphError("endpoint arrays differ in shape")
        # reshape, not ravel: a strided 1-D slice stays a view
        self._chunks.append((us.reshape(-1), vs.reshape(-1)))

    def finish(self, **meta_updates) -> LeveledGraph:
        """Freeze into a LeveledGraph; the builder is left as it was.

        The edge chunks are read in place, never concatenated: one key per
        edge and both arcs of each edge are the only int64 edge-sized
        arrays, the keys are freed before the arcs are sorted, and the arcs
        before the tags are copied.  A graph whose vertex or arc count does
        not fit int32 is a GraphError."""
        n = len(self._level)
        chunks = [(us, vs) for us, vs in self._chunks if len(us)]
        m = sum(len(us) for us, _ in chunks)
        if n >= 2**31 or 2 * m >= 2**31:
            raise GraphError(f"{n} vertices and {2 * m} arcs do not fit the "
                             f"int32 CSR index arrays")
        # every endpoint is checked before any self-loop, and every
        # self-loop before any duplicate
        for us, vs in chunks:
            if min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n:
                raise GraphError("edge references unknown vertex")
        for us, vs in chunks:
            loops = us == vs
            if loops.any():
                raise GraphError(f"self-loop at vertex {us[loops.argmax()]}")
        # one (lo << 32) | hi key per edge: sorted, a duplicate repeats
        keys = _edge_keys(chunks, m)
        keys.sort()
        dup = keys[1:] == keys[:-1]
        if dup.any():
            k = int(keys[dup.argmax()])
            raise GraphError(f"duplicate edge ({k >> 32}, {k & 0xffffffff})")
        # both arcs of each edge as (src << 32) | dst: sorted, they list
        # the CSR rows in order
        arcs = np.empty(2 * m, np.int64)
        arcs[:m] = keys
        back = arcs[m:]
        np.bitwise_and(keys, 0xffffffff, out=back)
        back <<= 32
        keys >>= 32
        back |= keys
        # the view `back` would keep the arcs alive past `del arcs` below
        del keys, back
        arcs.sort()
        # row v starts at the first arc leaving v or a later vertex; found
        # _BLOCK rows at a time, so no n-long int64 temporary is made
        indptr = np.empty(n + 1, np.int32)
        for i in range(0, n + 1, _BLOCK):
            rows = np.arange(i, min(i + _BLOCK, n + 1), dtype=np.int64)
            rows <<= 32
            indptr[i:i + _BLOCK] = np.searchsorted(arcs, rows)
        arcs &= 0xffffffff
        indices = arcs.astype(np.int32)
        del arcs
        meta = dict(self.meta)
        meta.update(meta_updates)
        return LeveledGraph(indptr, indices,
                            np.array(self._level, dtype=np.int64),
                            np.array(self._role, dtype=np.uint8), meta)


def _edge_keys(chunks, m):
    """One (lo << 32) | hi key per edge of the (us, vs) chunks, in chunk
    order; a function of its own, so no view of the keys outlives it."""
    keys = np.empty(m, np.int64)
    end = 0
    for us, vs in chunks:
        part = keys[end:end + len(us)]
        np.minimum(us, vs, out=part)
        part <<= 32
        part |= np.maximum(us, vs)
        end += len(us)
    return keys


# ---------------------------------------------------------------------------
# edge stretching


def stretch_edges(g: LeveledGraph, edges, L: int) -> LeveledGraph:
    """Replace each listed edge (u, v) by a path u - x1 - ... - x_{L-1} - v.

    New interior vertices carry role PATH_INTERIOR and the level of the
    lower endpoint (min of the two endpoint levels); the paths come in
    (min, max) order of their edges.  L = 1 is the identity.
    """
    if L < 1:
        raise GraphError("stretch length must be >= 1")
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    # one (lo << 32) | hi key per edge, as finish() keys them
    all_edges = g.edge_array()
    keys = all_edges[:, 0] << 32 | all_edges[:, 1]
    wanted = lo << 32 | hi
    missing = np.flatnonzero((lo < 0) | (hi >= g.vertex_count)
                             | ~np.isin(wanted, keys))
    if len(missing):
        i = missing[0]
        raise GraphError(f"no such edge ({lo[i]}, {hi[i]})")
    if L == 1 or not len(pairs):
        return g
    wanted, first = np.unique(wanted, return_index=True)
    lo, hi = lo[first], hi[first]
    b = GraphBuilder(meta=g.meta)
    b.add_vertex_array(g.level, g.role)
    kept = ~np.isin(keys, wanted)
    b.add_edge_array(all_edges[kept, 0], all_edges[kept, 1])
    x0 = b.add_vertex_array(
        np.repeat(np.minimum(g.level[lo], g.level[hi]), L - 1),
        np.full(len(lo) * (L - 1), PATH_INTERIOR))
    paths = np.column_stack([
        lo, (x0 + np.arange(len(lo) * (L - 1))).reshape(-1, L - 1), hi])
    b.add_edge_array(paths[:, :-1], paths[:, 1:])
    return b.finish()


# ---------------------------------------------------------------------------
# stretched-tree grafting and counterpart wiring on a builder


def _tree_template(branching, height, length_at, leaf_role):
    """Shared layout of one stretched tree: vertex offsets (interiors of an
    edge first, then its lower node, in BFS edge order), edge offset pairs
    (-1 stands for the grafting root), level offsets, and roles.

    length_at(depth, position) gives the stretch length of the edge ending
    at the depth-`depth` node with left-to-right index `position`."""
    t_src, t_dst = [], []
    level_off, role_of = [], []
    interiors, leaves = [], []
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
    }


def _graft_trees_onto(b, roots, tmpl, base_level):
    """Copy the tree template `tmpl` below each root, directly on a
    builder, with levels base_level + the template's level offsets, and
    return the int64 array of copy bases: the vertex at offset k of the
    copy below roots[i] is bases[i] + k.  Vertices at equal offsets from
    their bases are isomorphic counterparts.
    """
    roots = np.asarray(roots, dtype=np.int64)
    first = b.add_vertex_array(
        np.tile(base_level + tmpl["level_off"], len(roots)),
        np.tile(tmpl["roles"], len(roots)))
    bases = first + np.arange(len(roots), dtype=np.int64) * tmpl["size"]
    b.add_edge_array(np.where(tmpl["src"] < 0, roots[:, None],
                              bases[:, None] + tmpl["src"]),
                     bases[:, None] + tmpl["dst"])
    return bases


def _join_counterparts(b, bases, offsets, pairs):
    """For every row (i, j) of the (p, 2) array pairs, join the vertex at
    each offset k of copy i to its counterpart bases[j] + k of copy j."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    b.add_edge_array(bases[pairs[:, :1]] + offsets,
                     bases[pairs[:, 1:]] + offsets)


# ---------------------------------------------------------------------------
# line-graph auxiliary embedding


def _embed_line_graph_bulk(b, host_n, host_edges, targets, aux_level):
    """Vectorized embedding: one auxiliary per host vertex, joined to
    targets[j] for every host edge j incident to it.  targets must follow
    the host's edge_array order; every auxiliary gets level aux_level."""
    targets = np.asarray(targets, dtype=np.int64)
    aux0 = b.add_vertex_array(np.full(host_n, aux_level, dtype=np.int64),
                              np.full(host_n, AUXILIARY, dtype=np.int64))
    us = np.concatenate([aux0 + host_edges[:, 0], aux0 + host_edges[:, 1]])
    b.add_edge_array(us, np.concatenate([targets, targets]))
    return aux0


# ---------------------------------------------------------------------------
# predicates and traversal


def assert_regular(g: LeveledGraph, d: int) -> bool:
    """True iff every vertex has degree exactly d."""
    degs = g.degrees()
    return bool(len(degs) > 0 and (degs == d).all())


# frontier vertices expanded per gather: bounds the temporaries of one BFS
# level, which on an expander can hold a third of the graph
_BFS_ROWS = 1 << 14


def bfs_distances(g: LeveledGraph, source: int) -> np.ndarray:
    """BFS distance from source to every vertex (-1 for unreachable)."""
    n = len(g.indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        fresh = []
        for i in range(0, len(frontier), _BFS_ROWS):
            rows = frontier[i:i + _BFS_ROWS]
            starts = g.indptr[rows].astype(np.int64)
            counts = g.indptr[rows + 1] - starts
            # arc k of the gathered rows is indptr[v] + (k - first arc of v),
            # an int64 offset whatever the dtype of indptr
            take = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            take += np.arange(len(take))
            nbrs = g.indices[take]
            # freed before dist[nbrs] makes its intp copy of the int32 nbrs
            del take
            # not np.unique: it imports numpy.ma on first use and hashes
            # slower; a vertex marked here is not fresh in a later block
            new = np.sort(nbrs[dist[nbrs] < 0])
            new = new[np.diff(new, prepend=-1) != 0]
            dist[new] = d
            fresh.append(new)
        frontier = np.concatenate(fresh)
    return dist


def is_connected(g: LeveledGraph) -> bool:
    if g.vertex_count == 0:
        return True
    return bool((bfs_distances(g, 0) >= 0).all())


def is_bipartite(g: LeveledGraph) -> bool:
    """True iff g has no odd cycle (checked per connected component).  g is
    a LeveledGraph or any CSR multigraph (a construction.RootChain), so
    every arc is checked: a self-loop is an odd cycle."""
    n = len(g.indptr) - 1
    # one byte per vertex, so the per-arc comparison reads bytes
    color = np.full(n, -1, dtype=np.int8)
    while (uncoloured := color < 0).any():
        dist = bfs_distances(g, int(uncoloured.argmax()))
        comp = dist >= 0
        dist &= 1
        color[comp] = dist[comp]
        del dist, comp
    tail_color = np.repeat(color, np.diff(g.indptr))
    return all((tail_color[i:i + _BLOCK]
                != color[g.indices[i:i + _BLOCK]]).all()
               for i in range(0, len(tail_color), _BLOCK))


# ---------------------------------------------------------------------------
# serialization: text edge-list with a levels section

# vertex lines, or arcs read for edge lines, per % operation: bounds the
# Python objects alive at once
_CHUNK_ROWS = 8192
_ROLE_OBJECTS = np.array(ROLE_NAMES, dtype=object)

# at most 18 digits, so a field never leaves int64 (np.fromstring would
# saturate it silently); (?=(...))\1 takes each line atomically, leaving no
# backtracking state behind (an atomic group, which Python 3.10 lacks)
_INT = r"-?[0-9]{1,18}"
# lines per match: the matcher keeps state for every line it repeats over
# (about 90 bytes), so a section is matched in runs of this many lines
_MATCH_LINES = 1024
_EDGE_LINES = re.compile(
    rf"(?:(?=([ \t]*{_INT}[ \t]+{_INT}[ \t]*\r?\n))\1){{0,{_MATCH_LINES}}}")
_VERTEX_LINES = re.compile(
    rf"(?:(?=([ \t]*{_INT}[ \t]+{_INT}[ \t]+(?:{'|'.join(ROLE_NAMES)})"
    rf"[ \t]*(?:\r?\n|\Z)))\1){{0,{_MATCH_LINES}}}")
_LEVELS_LINE = re.compile(r"levels(?:\r?\n|\Z)")
_BLANK_TAIL = re.compile(r"[ \t\r\n]*\Z")


def _format_block(fmt, *columns):
    """fmt % row for every row of the equal-length columns, in one %."""
    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, col in enumerate(columns):
        cells[:, j] = col
    return fmt * len(cells) % tuple(cells.ravel().tolist())


def _edge_lines(g):
    """The `u v` line of every edge u < v, in row order, formatted block by
    block straight from the CSR rows: a block reads _CHUNK_ROWS arcs."""
    indptr, indices = g.indptr, g.indices
    for i in range(0, len(indices), _CHUNK_ROWS):
        j = min(i + _CHUNK_ROWS, len(indices))
        # rows a..b-1 hold arcs i..j-1
        a = int(np.searchsorted(indptr, i, "right")) - 1
        b = int(np.searchsorted(indptr, j))
        src = np.repeat(np.arange(a, b), np.diff(indptr[a:b + 1].clip(i, j)))
        dst = indices[i:j]
        keep = src < dst
        yield _format_block("%d %d\n", src[keep], dst[keep])


def _vertex_lines(g):
    """The `vertex level role` line of every vertex, _CHUNK_ROWS per block."""
    n = g.vertex_count
    for i in range(0, n, _CHUNK_ROWS):
        j = min(i + _CHUNK_ROWS, n)
        yield _format_block("%d %d %s\n", np.arange(i, j), g.level[i:j],
                            _ROLE_OBJECTS[g.role[i:j]])


def text_blocks(g: LeveledGraph):
    """to_text as an iterator of string blocks, for writing a graph without
    one string of the whole text; its fields are checked before it
    returns."""
    meta = g.meta
    h = int(meta.get("h", 0))
    L = int(meta.get("L", 0))
    variant = str(meta.get("variant", "custom"))
    # from_text reads the variant as the rest of line 1, stripped
    if (not variant or variant != variant.strip()
            or "\r" in variant or "\n" in variant):
        raise GraphError(f"variant {variant!r} does not fit the header line")
    # from_text reads integer fields of at most 18 digits
    for name, value in (("h", h), ("L", L),
                        ("level", int(g.level.min(initial=0))),
                        ("level", int(g.level.max(initial=0)))):
        if abs(value) >= 10 ** 18:
            raise GraphError(f"{name} {value} does not fit an 18-digit field")
    return chain([f"ev {g.vertex_count} {g.edge_count} {h} {L} {variant}\n"],
                 _edge_lines(g), ["levels\n"], _vertex_lines(g))


def to_text(g: LeveledGraph) -> str:
    """Serialize: header `ev <n> <m> <h> <L> <variant>`, one `u v` line per
    edge (u < v), then a `levels` section of `vertex level role` triples."""
    return "".join(text_blocks(g))


def _malformed(text, pos, line_no, expected):
    line = text[pos:text.find("\n", pos) + 1 or len(text)]
    return GraphError(f"malformed graph text: line {line_no}: expected "
                      f"{expected}, got {line[:80]!r}")


def _match_lines(pattern, text, pos):
    """End of the lines `pattern` matches from pos, and their count."""
    end = pos
    while (step := pattern.match(text, end).end()) > end:
        end = step
    count = text.count("\n", pos, end)
    if end == len(text) > pos and not text.endswith("\n"):
        count += 1
    return end, count


def from_text(text: str) -> LeveledGraph:
    """Parse the to_text format.

    Lines end in LF or CRLF, and the last one may lack it.  Fields are
    separated by runs of spaces or tabs, which may also lead or trail a
    data line; integers are ASCII digits with an optional `-`, at most 18
    of them, in the header's four counts as in the data lines.  After the
    last vertex line only blank lines may follow.

    Each section's shape is checked with one regular expression and its
    fields converted in bulk.  A missing line, wrong field count,
    non-integer or overlong field, unknown role, duplicate edge,
    self-loop, unknown endpoint, levels section that does not list
    vertices 0..n-1 in order, or text after it raises GraphError.
    """
    pos = text.find("\n") + 1 or len(text)
    header = text[:pos].removesuffix("\n").removesuffix("\r")
    if not header.startswith("ev "):
        raise GraphError("bad header")
    fields = header.split(maxsplit=5)
    if len(fields) < 6 or not all(re.fullmatch(_INT, f) for f in fields[1:5]):
        raise GraphError(f"malformed graph text: line 1: expected 'ev n m h "
                         f"L variant', got {header[:80]!r}")
    n, m, h, L = map(int, fields[1:5])
    meta = {"h": h, "L": L, "variant": fields[5]}
    if n < 0 or m < 0:
        raise GraphError(f"malformed graph text: negative count in {header!r}")

    end, count = _match_lines(_EDGE_LINES, text, pos)
    if count < m:
        raise _malformed(text, end, 2 + count, "an edge line 'u v'")
    levels = _LEVELS_LINE.match(text, end) if count == m else None
    if levels is None:
        raise GraphError("missing levels section")
    edges = np.fromstring(text[pos:end], dtype=np.int64, sep=" ")

    pos = levels.end()
    end, count = _match_lines(_VERTEX_LINES, text, pos)
    if count < n:
        raise _malformed(text, end, 3 + m + count,
                         "a vertex line 'vertex level role'")
    if count > n:
        raise GraphError(f"malformed graph text: line {3 + m + n}: more "
                         f"than the header's {n} vertex lines")
    if not _BLANK_TAIL.match(text, end):
        raise _malformed(text, end, 3 + m + n, "the end of the text")
    section = text[pos:end]
    for code, name in enumerate(ROLE_NAMES):
        section = section.replace(name, str(code))
    vertex, level, role = np.fromstring(section, dtype=np.int64,
                                        sep=" ").reshape(n, 3).T
    # to_text lists every vertex once, in order
    bad = np.flatnonzero(vertex != np.arange(n))
    if len(bad):
        v = int(bad[0])
        raise GraphError(f"line {v + 3 + m}: expected vertex {v}, "
                         f"got {vertex[v]}")
    b = GraphBuilder(meta=meta)
    b.add_vertex_array(level, role)
    b.add_edge_array(edges[0::2], edges[1::2])
    # the builder copied the tags: only the edges stay alive into finish()
    del section, vertex, level, role
    return b.finish()
