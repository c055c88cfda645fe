"""Assembly of the four leveled graph families.

Every build is a deterministic function of its parameters, made by
build().  The tree families (five_regular, its uneven-stretch variant
no_cutoff, and cubic) share one build: a tree top, bands of stretched
trees grafted level by level, cross wiring between isomorphic path
interiors (cliques, matchings, or expander adjacency), and an expander
identified with the leaf level.  cubic embeds its expanders through line
graphs with auxiliary vertices so the degree stays at 3.  class_chain
lumps the walk from the root of a tree-family build onto classes, reading
the same shapes and taking the same branches as the build.  The cylinder
family replaces each edge of a cubic host by a degree-3 ladder gadget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .expanders import ExpanderSpec, make_expander
from .graphs import (
    AUXILIARY,
    LEAF,
    PATH_INTERIOR,
    TREE_NODE,
    UNLEVELED,
    GraphBuilder,
    GraphError,
    LeveledGraph,
    _embed_line_graph_bulk,
    _graft_trees_onto,
    _join_counterparts,
    _tree_template,
    assert_regular,
    is_bipartite,
    is_connected,
)

VARIANTS = ("five_regular", "cubic", "no_cutoff", "cylinder")


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters that fully determine a build.

    L may lie below the gap-derived floor (choose_L): desk-scale
    experiments need small L, and a tree-family build records in its
    metadata whether the floor was met.
    """
    h: int
    L: int
    variant: str = "five_regular"
    L_prime: int = 0
    m: int = 0
    expander_seeds: tuple = (1, 2)
    min_gap: float = 0.05

    def validate(self):
        if self.variant not in VARIANTS:
            raise GraphError(f"unknown variant {self.variant!r}")
        if self.L < 1:
            raise GraphError("L must be >= 1")
        if self.variant == "cylinder":
            if self.m < 4:
                raise GraphError("cylinder host size m must be >= 4")
            if self.L % 4 != 1:
                raise GraphError("cylinder length must satisfy L = 1 (mod 4)")
            return
        if self.h < 1:
            raise GraphError("h must be >= 1")
        if self.variant == "no_cutoff":
            if self.L_prime <= self.L:
                raise GraphError("no_cutoff requires L_prime > L")
            if self.h % 2 != 0:
                raise GraphError("no_cutoff requires even h")


def choose_L(gap1: float, gap2: float) -> int:
    """Stretch-length floor derived from the two certified expander gaps:
    ceil of max(2/sqrt(gap1), 16/gap2, 32)."""
    if gap1 <= 0 or gap2 <= 0:
        raise GraphError("spectral gaps must be positive")
    if gap1 > 1 or gap2 > 1:
        raise GraphError("spectral gaps must lie in (0, 1]")
    return math.ceil(max(2.0 / math.sqrt(gap1), 16.0 / gap2, 32.0))


def theoretical_tstar(h: int, L: int) -> float:
    """Leading-order worst-case mixing time of the 5-regular family:
    (5/3) * (5L^2 - 3L + 1) * h."""
    return (5.0 / 3.0) * (5 * L * L - 3 * L + 1) * h


# ---------------------------------------------------------------------------
# shared scaffolding


def _finalize(b, degree, meta):
    g = b.finish(**meta)
    if not assert_regular(g, degree):
        degs = g.degrees()
        bad = int(np.flatnonzero(degs != degree)[0])
        raise GraphError(
            f"build bug: vertex {bad} has degree {int(degs[bad])}, expected {degree}")
    if not is_connected(g):
        raise GraphError("build bug: graph is disconnected")
    return g.with_meta(bipartite=is_bipartite(g))


# ---------------------------------------------------------------------------
# the tree families: five_regular, no_cutoff and cubic

# (fanout, branching, degree): the root's children, every lower tree node's
# children, and the degree of every vertex
_TREE_SHAPES = {"five_regular": (5, 4, 5), "no_cutoff": (5, 4, 5),
                "cubic": (3, 2, 3)}


def _stretch(params, band, depth, pos):
    """Stretch length of the band-`band` edge ending at the depth-`depth`
    node with left-to-right index `pos` in its tree, for the build and
    class_chain alike: 1 in band 3, L in bands 1 and 2, except L_prime
    below the odd-indexed depth-h/2 vertices of a no_cutoff build's band 1.
    The trees stay pairwise isomorphic, so the cross cliques still match,
    and the hitting time to the leaves takes one of two routes."""
    if band == 3:
        return 1
    half = params.h // 2
    if (band == 1 and params.variant == "no_cutoff" and depth > half
            and (pos // 4 ** (depth - half)) % 2 == 1):
        return params.L_prime
    return params.L


def _build_tree_family(params: ConstructionParams) -> LeveledGraph:
    """A five_regular, no_cutoff or cubic build, branch for branch as
    class_chain lumps it: a tree top, band 1 cross-wired by cliques on
    groups of `branching` trees, band 2 wired along H1, and band 3 whose
    leaves carry H2.  five_regular matches band-2 interiors along the
    3-regular H1 and joins the leaves along the 4-regular H2; cubic
    identifies band-2 trees and leaves with the edges of 3-regular H1 and
    H2 and wires them through line graphs with auxiliary vertices."""
    h, L = params.h, params.L
    cubic = params.variant == "cubic"
    fanout, branching, degree = _TREE_SHAPES[params.variant]
    leaves1 = fanout * branching ** (h + 1)
    sizes = [leaves1, leaves1 * branching ** (2 * h)]
    if cubic:
        sizes = [2 * n // 3 for n in sizes]   # one H edge per leaf
    seed1, seed2 = params.expander_seeds
    exp1 = make_expander(ExpanderSpec(3, sizes[0], params.min_gap, seed1))
    exp2 = make_expander(ExpanderSpec(3 if cubic else 4, sizes[1],
                                      params.min_gap, seed2))
    floor = choose_L(exp1.gap, exp2.gap)

    b = GraphBuilder()
    # the tree top: the root, then each child followed by its children
    levels = np.r_[0, np.tile([1] + [2] * branching, fanout)]
    b.add_vertex_array(levels, np.full(len(levels), TREE_NODE))
    kids = 1 + (branching + 1) * np.arange(fanout)
    top = (kids[:, None] + 1 + np.arange(branching)).ravel()
    b.add_edge_array(np.r_[np.zeros(fanout, np.int64),
                           np.repeat(kids, branching)], np.r_[kids, top])
    t1, t2, t3 = (_tree_template(branching, h, partial(_stretch, params, band),
                                 LEAF if band == 3 else TREE_NODE)
                  for band in (1, 2, 3))
    bases1 = _graft_trees_onto(b, top, t1, 2)
    # cliques on the counterparts of each group of `branching` trees
    pairs = np.column_stack(np.triu_indices(branching, 1))
    groups = np.arange(0, len(top), branching)
    _join_counterparts(b, bases1, t1["interiors"],
                       groups[:, None, None] + pairs)
    set_a = (bases1[:, None] + t1["leaves"]).ravel()
    bases2 = _graft_trees_onto(b, set_a, t2, h + 2)
    h1_edges = exp1.graph.edge_array()
    if cubic:
        # every band-2 interior x gets a pendant x'; per interior class the
        # x' are identified with the edges of H1 (tree i <-> edge i) and
        # joined through one auxiliary per H1 vertex
        for offset in t2["interiors"].tolist():
            lvl = h + 2 + int(t2["level_off"][offset])
            pendants = b.add_vertices(len(bases2), lvl, AUXILIARY) \
                + np.arange(len(bases2))
            b.add_edge_array(bases2 + offset, pendants)
            _embed_line_graph_bulk(b, exp1.size, h1_edges, pendants, lvl)
    else:
        _join_counterparts(b, bases2, t2["interiors"], h1_edges)
    set_b = (bases2[:, None] + t2["leaves"]).ravel()
    bases3 = _graft_trees_onto(b, set_b, t3, 2 * h + 2)
    leaves = (bases3[:, None] + t3["leaves"]).ravel()
    h2_edges = exp2.graph.edge_array()
    if cubic:
        _embed_line_graph_bulk(b, exp2.size, h2_edges, leaves, 3 * h + 2)
    else:
        b.add_edge_array(leaves[h2_edges[:, 0]], leaves[h2_edges[:, 1]])

    meta = {
        "variant": params.variant,
        "h": h,
        "L": L,
        "degree": degree,
        "seeds": tuple(params.expander_seeds),
        "gap1": exp1.gap,
        "gap2": exp2.gap,
        "L_floor": floor,
        "meets_L_floor": L >= floor,
    }
    if not cubic:
        meta["L_prime"] = params.L_prime if params.variant == "no_cutoff" else 0
        meta["tstar"] = theoretical_tstar(h, L)
    return _finalize(b, degree, meta)


# ---------------------------------------------------------------------------
# cylinder family


# one period of the ladder: offsets 0..5 are a single, two doubled rail
# pairs with a rung each, and a single; -1 is the single before the period
_LADDER_PERIOD = np.array([(-1, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 4),
                           (3, 4), (3, 5), (4, 5)])


def _add_ladders(b, ends, k):
    """A degree-3 ladder of length 4k + 1 between the two ends of every row
    of the (e, 2) array ends: singles at positions 0, 1 (mod 4) where the
    rails merge, doubled rail pairs with a rung at positions 2, 3 (mod 4);
    6k interiors and 9k + 1 edges each, laid out period by period."""
    ends = np.asarray(ends, dtype=np.int64)
    first = b.add_vertices(6 * k * len(ends), UNLEVELED, PATH_INTERIOR)
    # row i: ladder i's interiors, then its right and left end, so that -1
    # is the left end in the first period and -2 the right end, which the
    # last single (the left end when k = 0) joins
    ids = np.column_stack([
        (first + np.arange(6 * k * len(ends))).reshape(len(ends), 6 * k),
        ends[:, ::-1]])
    local = np.vstack([(6 * np.arange(k)[:, None, None]
                        + _LADDER_PERIOD).reshape(-1, 2),
                       [(6 * k - 1, -2)]])
    b.add_edge_array(ids[:, local[:, 0]], ids[:, local[:, 1]])


def build_cylinder(host, L: int) -> LeveledGraph:
    """Replace every edge of a 3-regular host by the ladder gadget of
    length L (L = 1 mod 4); the result is 3-regular on
    m * (1 + (9/4)(L - 1)) vertices."""
    host_g = getattr(host, "graph", host)
    if not assert_regular(host_g, 3):
        raise GraphError("cylinder host must be 3-regular")
    if not is_connected(host_g):
        raise GraphError("cylinder host must be connected")
    if L < 1 or L % 4 != 1:
        raise GraphError("cylinder length must satisfy L = 1 (mod 4)")
    m = host_g.vertex_count
    meta = {"variant": "cylinder", "h": 0, "L": L, "m": m, "degree": 3,
            "host_gap": getattr(host, "gap", host_g.meta.get("gap"))}
    if L == 1:
        return host_g.with_meta(**meta, bipartite=is_bipartite(host_g))
    k = (L - 1) // 4
    b = GraphBuilder()
    b.add_vertices(m, UNLEVELED, TREE_NODE)
    _add_ladders(b, host_g.edge_array(), k)
    return _finalize(b, 3, meta)


def cylinder_vertex_count(m: int, num_host_edges: int, L: int) -> int:
    """Closed-form size of a cylinder build: m + |E| * (3/2)(L - 1)."""
    return m + num_host_edges * 3 * (L - 1) // 2


def standalone_cylinder(L: int) -> LeveledGraph:
    """A single gadget with two degree-1 port vertices (ids 0 and 1), as
    consumed by the passage-time oracles."""
    if L < 1 or L % 4 != 1:
        raise GraphError("cylinder length must satisfy L = 1 (mod 4)")
    b = GraphBuilder()
    b.add_vertices(2, UNLEVELED, TREE_NODE)
    _add_ladders(b, [(0, 1)], (L - 1) // 4)
    return b.finish(variant="cylinder_gadget", L=L, h=0)


# ---------------------------------------------------------------------------
# dispatch and reporting


def build(params: ConstructionParams) -> LeveledGraph:
    """The graph of any variant: a tree family, or a cylinder on a
    certified 3-regular host of m vertices."""
    params.validate()
    if params.variant != "cylinder":
        return _build_tree_family(params)
    host = make_expander(ExpanderSpec(3, params.m, params.min_gap,
                                      params.expander_seeds[0]))
    return build_cylinder(host, params.L)


def family_vertex_count(variant: str, h: int, L: int) -> int:
    """Closed-form size of a cubic or five_regular build: the tree top,
    three bands of stretched trees, and (cubic) the pendants and
    auxiliaries of the line-graph embeddings."""
    if variant == "cubic":
        t = 2 ** (h + 1) - 2                  # edges of one binary tree
        return (10 + 6 * L * t                                 # top, band 1
                + 6 * 2 ** h * (2 * L - 1) * t                 # band 2, pendants
                + (L - 1) * t * 2 ** (h + 2)                   # H1 auxiliaries
                + 6 * 4 ** h * t + 2 ** (3 * h + 2))           # band 3, H2
    if variant == "five_regular":
        t = (4 ** (h + 1) - 4) // 3           # edges of one 4-ary tree
        return 26 + 20 * L * t * (1 + 4 ** h) + 20 * 16 ** h * t
    raise GraphError(f"no closed-form size for variant {variant!r}")


# ---------------------------------------------------------------------------
# root-class chain: the walk from the root, lumped without building


class RootChain:
    """The walk from the root (vertex 0) of a cubic or five_regular build,
    lumped onto the classes of an equitable partition containing {root}.

    State c stands for the sizes[c] vertices of one class.  Stored like a
    LeveledGraph, the chain is a read-only CSR multigraph: row c of
    (indptr, indices) lists in ascending order the class of each of the d
    neighbours of a vertex of class c, so c' appears counts[c, c'] times,
    and memory is O(k d), with no k x k array.  Started at the root the
    walk stays constant on each class, and as sizes[c] counts[c, c'] =
    sizes[c'] counts[c', c], its class masses evolve exactly as
    m' = (1 - l) counts^T m / d + l m (Levin-Peres-Wilmer, section 2.3).
    The TV distance to uniform is 1/2 sum_c |m_c - pi_c|, pi = `stationary`,
    the shares sizes[c] / n each rounded once from the exact integers, so
    no float holds n or a class size.  No expander enters: the cross wiring
    only ever joins vertices of one class, or a class to its own pendant
    and auxiliary classes.  levels[c] is the tree level of a class of tree
    nodes or leaves (UNLEVELED for the others), and `leaves` lists the leaf
    classes.  class_chain builds one for no_cutoff too, on classes that are
    not equitable; only the descent chain reads it.

    mixing.step walks the chain like a graph: vertex_count is n,
    float_degrees() the degree of every state, and matvec_kernel() gives
    counts^T x from at most 3 nonzeros a row (every variant up to h=40),
    summed in numpy bit-identically to scipy's csr_matvec on
    adjacency_csr(), so neither the walk nor the descent chain, which
    evolves its survival through the same kernel, loads scipy.
    """

    __slots__ = ("sizes", "indptr", "indices", "degree", "meta", "levels",
                 "leaves", "stationary", "_n", "_csr", "_kernel",
                 "_float_degrees")

    def __init__(self, sizes, indices, degree, meta, levels, leaves):
        self.sizes = tuple(int(s) for s in sizes)
        self._n = sum(self.sizes)
        self.degree = int(degree)
        self.indptr = self.degree * np.arange(len(self.sizes) + 1)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.meta = dict(meta)
        self.levels = tuple(int(v) for v in levels)
        self.leaves = tuple(int(c) for c in leaves)
        self._csr = self._kernel = None
        self.stationary = np.asarray([s / self._n for s in self.sizes])
        self._float_degrees = np.full(len(self.sizes), float(degree))
        for arr in (self.indptr, self.indices, self.stationary,
                    self._float_degrees):
            arr.setflags(write=False)

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def state_count(self) -> int:
        return len(self.sizes)

    def float_degrees(self) -> np.ndarray:
        return self._float_degrees

    def adjacency_csr(self):
        """counts^T as a cached scipy CSR matrix with float64 entries, one
        unit per arc at (destination, source), summed."""
        if self._csr is None:
            import scipy.sparse as sp

            k = self.state_count
            src = np.repeat(np.arange(k), self.degree)
            self._csr = sp.csr_matrix((np.ones(len(src)), (self.indices, src)),
                                      shape=(k, k))
        return self._csr

    def matvec_kernel(self):
        """Cached kernel(x, out) writing counts^T x into `out`,
        bit-identical to csr_matvec on adjacency_csr(): each row's nonzeros
        are summed in column order starting from 0.0.  columns[j, c] is the
        j-th source class of the arcs into c and values[j, c] their count;
        shorter rows are padded with column 0 and count 0.0, which leaves a
        finite sum unchanged."""
        if self._kernel is None:
            k = self.state_count
            # (destination, source) pairs, sorted by row, then column
            pairs, counts = np.unique(
                self.indices * k + np.repeat(np.arange(k), self.degree),
                return_counts=True)
            rows, cols = np.divmod(pairs, k)
            rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
            shape = (int(rank.max()) + 1, k)
            columns = np.zeros(shape, dtype=np.int64)
            values = np.zeros(shape)
            columns[rank, rows] = cols
            values[rank, rows] = counts

            def kernel(x, out):
                terms = x[columns]
                terms *= values
                out.fill(0)
                for term in terms:
                    out += term

            self._kernel = kernel
        return self._kernel


class _ChainBuilder:
    """Class sizes, tree levels and rows[c], the class of each neighbour of
    a vertex of class c, added the way a build adds vertices and edges."""

    def __init__(self):
        self.sizes = []
        self.levels = []
        self.rows = []

    def add(self, size, level=UNLEVELED) -> int:
        self.sizes.append(size)
        self.levels.append(level)
        self.rows.append([])
        return len(self.sizes) - 1

    def join(self, a, b, per_a, per_b) -> None:
        """Every vertex of a gets per_a neighbours in b, every vertex of b
        per_b in a; a == b adds per_a neighbours inside the class."""
        if self.sizes[a] * per_a != self.sizes[b] * per_b:
            raise GraphError(f"classes {a} and {b} cannot be joined "
                             f"{per_a}:{per_b}")
        self.rows[a] += [b] * per_a
        if a != b:
            self.rows[b] += [a] * per_b

    def below(self, parent, branching, level=UNLEVELED) -> int:
        """A class of `branching` children per vertex of `parent`."""
        child = self.add(self.sizes[parent] * branching, level)
        self.join(parent, child, branching, 1)
        return child

    def graft(self, roots, branching, height, length_at, base_level,
              split=0):
        """The classes of one band, a stretched tree below every vertex of
        each class in `roots`, with the edge lengths length_at(depth, pos)
        the builds graft.  Each root class starts a column of classes, one
        per distance from its root, and every depth repeats one edge of the
        template: its interiors, then its lower node.  At depth `split`
        every column splits by node index parity, branching/2 children per
        parent each, the even column first.  Returns the columns' leaf
        classes and all interior classes."""
        columns = [(r, 0) for r in roots]    # class, index of one of its nodes
        interiors = []
        for depth in range(1, height + 1):
            grown = []
            for parent, pos in columns:
                first = pos * branching
                kids = ([(first, branching // 2), (first + 1, branching // 2)]
                        if depth == split else [(first, branching)])
                for child, per_parent in kids:
                    length = length_at(depth, child)
                    edge = _tree_template(1, 1, lambda d, p: length, TREE_NODE)
                    prev = parent
                    for k, role in enumerate(edge["roles"].tolist()):
                        interior = role == PATH_INTERIOR
                        level = UNLEVELED if interior else base_level + depth
                        prev = self.below(prev, per_parent if k == 0 else 1,
                                          level)
                        if interior:
                            interiors.append(prev)
                    grown.append((prev, child))
            columns = grown
        return [c for c, _ in columns], interiors

    def chain(self, degree, meta, leaves) -> RootChain:
        for c, row in enumerate(self.rows):
            if len(row) != degree:
                raise GraphError(f"chain bug: class {c} has degree "
                                 f"{len(row)}, expected {degree}")
        indices = [t for row in self.rows for t in sorted(row)]
        return RootChain(self.sizes, indices, degree, meta, self.levels, leaves)


ROOT_CHAIN_VARIANTS = ("cubic", "five_regular")


def class_chain(params: ConstructionParams) -> RootChain:
    """The walk from the root of a cubic, five_regular or no_cutoff build,
    lumped onto classes derived from the tree template without building;
    the expander seeds and min_gap do not enter it.  no_cutoff's classes
    carry the stretch regime below band 1's depth h/2 down through bands 2
    and 3, but H1's matching of band-2 interiors joins the two regimes, so
    that partition is not equitable and its chain is not exact."""
    params.validate()
    if params.variant == "cylinder":
        raise GraphError("no chain for variant 'cylinder'")
    h, L = params.h, params.L
    cubic = params.variant == "cubic"
    fanout, branching, degree = _TREE_SHAPES[params.variant]
    split = h // 2 if params.variant == "no_cutoff" else 0
    c = _ChainBuilder()
    top = c.below(c.below(c.add(1, 0), fanout, 1), branching, 2)
    band1, interiors1 = c.graft([top], branching, h,
                                partial(_stretch, params, 1), 2, split)
    for s in interiors1:
        c.join(s, s, branching - 1, branching - 1)   # cross clique
    band2, interiors2 = c.graft(band1, branching, h,
                                partial(_stretch, params, 2), h + 2)
    for s in interiors2:
        if cubic:
            # each interior's pendant, joined through the auxiliaries of
            # its own copy of H1's line graph
            pendant = c.below(s, 1)
            aux = c.add(c.sizes[pendant] * 2 // 3)
            c.join(pendant, aux, 2, 3)
        else:
            c.join(s, s, 3, 3)         # matching along the 3-regular H1
    leaves, _ = c.graft(band2, branching, h, partial(_stretch, params, 3),
                        2 * h + 2)
    for leaf in leaves:
        if cubic:
            aux = c.add(c.sizes[leaf] * 2 // 3)
            c.join(leaf, aux, 2, 3)    # H2's line graph
        else:
            c.join(leaf, leaf, 4, 4)   # the 4-regular H2
    meta = {"variant": params.variant, "h": h, "L": L}
    if not cubic:
        meta["tstar"] = theoretical_tstar(h, L)
    chain = c.chain(degree, meta, leaves)
    chain.meta["bipartite"] = is_bipartite(chain)
    return chain


def root_chain(params: ConstructionParams) -> RootChain:
    """The exact root-class chain of the cubic or five_regular build with
    these parameters: its class_chain, refused for no_cutoff."""
    if params.variant not in ROOT_CHAIN_VARIANTS:
        raise GraphError(f"no root chain for variant {params.variant!r}")
    return class_chain(params)


def level_census(g: LeveledGraph) -> dict:
    """Vertices per level, counting tree nodes and leaves only (the level
    sets exclude path interiors and auxiliaries)."""
    mask = (g.role == TREE_NODE) | (g.role == LEAF)
    counted = g.level[mask & (g.level != UNLEVELED)]
    levels, counts = np.unique(counted, return_counts=True)
    return {int(l): int(c) for l, c in zip(levels, counts)}


def leaf_level(g: LeveledGraph) -> int:
    """The deepest level of a LEAF vertex (3h + 2 on a tree-family
    build), or the deepest level when there is no leaf."""
    leaf_mask = g.role == LEAF
    if leaf_mask.any():
        return int(g.level[leaf_mask].max())
    return int(g.level.max())
