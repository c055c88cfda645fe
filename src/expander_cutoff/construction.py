"""Assembly of the four leveled graph families.

Every per-variant fact lives in the variant's FAMILIES record, which the
build, class_chain, the walk defaults and the CLI read.  Every build is a
deterministic function of its parameters, made by build().  The tree
families (five_regular, its uneven-stretch variant no_cutoff, and cubic)
are written down once, as the script _tree_family: a tree top, bands of
stretched trees grafted level by level (_graft), cross wiring between
isomorphic path interiors (cliques or expander adjacency), and an expander
identified with the leaf level.  cubic embeds its expanders through line
graphs with pendant and auxiliary vertices so the degree stays at 3.  The
script runs on two back ends: _GraphBackEnd builds the graph for build(),
and _ChainBuilder lumps the walk from the root onto classes for
class_chain, without building.  The cylinder family replaces each edge of
a cubic host by a degree-3 ladder gadget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

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
    assert_regular,
    is_bipartite,
)


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters that fully determine a build.

    L may lie below the gap-derived floor (choose_L): desk-scale
    experiments need small L, and a tree-family build records in its
    metadata whether the floor was met.  `seed` keys H1 (or a cylinder's
    host) and seed + 1 keys H2.
    """
    h: int
    L: int
    variant: str = "five_regular"
    L_prime: int = 0
    m: int = 0
    seed: int = 1
    min_gap: float = 0.05

    def validate(self):
        fam = FAMILIES.get(self.variant)
        if fam is None:
            raise GraphError(f"unknown variant {self.variant!r}")
        if self.L < 1:
            raise GraphError("L must be >= 1")
        if not fam.branching:
            if self.m < 4:
                raise GraphError("cylinder host size m must be >= 4")
            if self.L % 4 != 1:
                raise GraphError("cylinder length must satisfy L = 1 (mod 4)")
        elif self.h < 1:
            raise GraphError("h must be >= 1")
        elif fam.uneven:
            if self.L_prime <= self.L:
                raise GraphError(f"{self.variant} requires L_prime > L")
            if self.h % 2 != 0:
                raise GraphError(f"{self.variant} requires even h")
        for spec in _expander_specs(self):
            spec.validate()


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


def log_cap(h: int, L: int, n: int) -> int:
    """Step cap 100 (bit length of n)^2, for no closed-form mixing time."""
    return 100 * n.bit_length() ** 2


def _tstar_cap(h: int, L: int, n: int) -> int:
    return int(20 * theoretical_tstar(h, L)) + 200


@dataclass(frozen=True)
class Family:
    """One variant: degree, default walk step cap t_cap(h, L, n), tree shape
    (`fanout` root children, `branching` below; 0 off the trees), H1 and H2
    met through `line_graphs`, band 1's `uneven` L_prime stretch (inexact
    class chain), and predicted(h, L), the root's hitting time or None."""
    degree: int
    t_cap: Callable
    fanout: int = 0
    branching: int = 0
    line_graphs: bool = False
    uneven: bool = False
    predicted: Callable = lambda h, L: None

    def expander_degree(self, tree_edges: int) -> int:
        """The degree of H where its targets have `tree_edges` tree edges."""
        return self.degree if self.line_graphs else self.degree - tree_edges


FAMILIES = {
    "five_regular": Family(5, _tstar_cap, 5, 4, predicted=theoretical_tstar),
    "cubic": Family(3, log_cap, 3, 2, line_graphs=True),
    "no_cutoff": Family(5, _tstar_cap, 5, 4, uneven=True),
    "cylinder": Family(3, lambda h, L, n: 400 * n),
}
VARIANTS = tuple(FAMILIES)
ROOT_CHAIN_VARIANTS = tuple(sorted(v for v, fam in FAMILIES.items()
                                   if fam.branching and not fam.uneven))


# ---------------------------------------------------------------------------
# shared scaffolding


def _finalize(b, degree):
    """b.finish(), checked to be connected and `degree`-regular and tagged
    with its bipartiteness.  Callers pass their only reference to the
    builder, so its edge chunks are freed before the checks run."""
    g = b.finish()
    del b
    if not assert_regular(g, degree):
        degs = g.degrees()
        bad = int(np.flatnonzero(degs != degree)[0])
        raise GraphError(
            f"build bug: vertex {bad} has degree {int(degs[bad])}, expected {degree}")
    if (bipartite := is_bipartite(g, if_connected=True)) is None:
        raise GraphError("build bug: graph is disconnected")
    return g.with_meta(bipartite=bipartite)


# ---------------------------------------------------------------------------
# the tree families: five_regular, no_cutoff and cubic


def _stretch(params, band, depth, pos):
    """Stretch length of the band-`band` edge ending at the depth-`depth`
    node with left-to-right index `pos` in its tree, for the build and
    class_chain alike: 1 in band 3, L in bands 1 and 2, except L_prime
    below the odd-indexed depth-h/2 vertices of an uneven family's band 1.
    The trees stay pairwise isomorphic, so the cross cliques still match,
    and the hitting time to the leaves takes one of two routes."""
    if band == 3:
        return 1
    fam, half = FAMILIES[params.variant], params.h // 2
    if (band == 1 and fam.uneven and depth > half
            and (pos // fam.branching ** (depth - half)) % 2 == 1):
        return params.L_prime
    return params.L


def _graft(back, roots, height, length_at, base_level, leaf_role=TREE_NODE,
           split=0):
    """A stretched tree of height `height` below every vertex of the
    classes `roots`, with the edge lengths length_at(depth, pos), on either
    back end.  A column stands for the nodes at one distance from the
    roots, with the left-to-right index pos of one of them in its tree.
    Every depth asks the back end for each column's children (back.kids)
    and adds the classes of one edge per child: its interiors, at the
    level above its lower node, then its lower node.  At depth `split` the
    chain splits its columns by node index parity.  Returns the leaf
    classes, the interior classes and their levels."""
    columns = back.plant(roots)
    interiors, levels = [], []
    for depth in range(1, height + 1):
        role = leaf_role if depth == height else TREE_NODE
        grown = []
        for parent, pos in columns:
            for child, per in back.kids(pos, depth == split):
                length = length_at(depth, child)
                if length < 1:
                    raise GraphError("stretch length must be >= 1")
                prev, level = parent, base_level + depth - 1
                for _ in range(length - 1):
                    prev = back.below(prev, per, level, PATH_INTERIOR)
                    interiors.append(prev)
                    levels.append(level)
                    per = 1
                grown.append((back.below(prev, per, level + 1, role), child))
        columns = grown
    return (*back.copy([c for c, _ in columns], interiors), levels)


def _tree_family(params: ConstructionParams, back):
    """The one description of a tree family, run on a back end: a tree top,
    band 1 cross-wired by cliques on groups of `branching` trees, band 2
    whose interiors (or, with line graphs, their pendants) are wired along
    H1, and band 3 whose leaves are wired along H2.  Returns the leaf
    classes."""
    fam, h = FAMILIES[params.variant], params.h
    band1, interiors1, _ = _graft(back, [back.top()], h,
                                  partial(_stretch, params, 1), 2,
                                  split=h // 2 if fam.uneven else 0)
    back.clique(interiors1)
    band2, interiors2, levels = _graft(back, band1, h,
                                       partial(_stretch, params, 2), h + 2)
    for s, level in zip(interiors2, levels):
        # tree i's interior gets a pendant, which is H1's edge i
        back.wire([back.pendant(s, level) if fam.line_graphs else s], 0, level)
    leaves, _, _ = _graft(back, band2, h, partial(_stretch, params, 3),
                          2 * h + 2, LEAF)
    back.wire(leaves, 1, 3 * h + 2)
    return leaves


class _GraphBackEnd:
    """_tree_family's back end that builds, on the GraphBuilder b.  A class
    is the int64 array of its vertices, one per tree of its band in tree
    order, so equal positions of two classes lie in one tree; a list of
    classes may be a 2-D array of one class per row.  Within a _graft a
    class is a position in one template tree (-1 its root), which copy()
    lays out below every root, tree by tree, as classes of the copies: so
    a tree's vertices are numbered in BFS edge order, each edge's interiors
    before its lower node."""

    def __init__(self, b, fam, expanders):
        self.b, self.fam, self.expanders = b, fam, expanders

    def top(self):
        """The root, then each child followed by its children; returns the
        class of the grandchildren."""
        fanout, branching = self.fam.fanout, self.fam.branching
        levels = np.r_[0, np.tile([1] + [2] * branching, fanout)]
        self.b.add_vertex_array(levels, np.full(len(levels), TREE_NODE))
        kids = 1 + (branching + 1) * np.arange(fanout)
        top = (kids[:, None] + 1 + np.arange(branching)).ravel()
        self.b.add_edge_array(np.r_[np.zeros(fanout, np.int64),
                                    np.repeat(kids, branching)],
                              np.r_[kids, top])
        return top

    def plant(self, roots):
        self._roots = np.transpose(roots).ravel()
        self._tree = []               # (parent position, level, role)
        return [(-1, 0)]

    def kids(self, pos, split):
        first = pos * self.fam.branching
        return [(first + i, 1) for i in range(self.fam.branching)]

    def below(self, parent, per, level, role):
        self._tree.append((parent, level, role))
        return len(self._tree) - 1

    def copy(self, *positions):
        """The template below every root, tree by tree; returns the classes
        of the copies at each list of positions, as the rows of a view of
        one tree-major array, which plant() and wire() read without a
        copy."""
        tree = np.array(self._tree, np.int64).reshape(-1, 3)
        parents, levels, roles = tree.T
        roots, size = self._roots, len(levels)
        first = self.b.add_vertex_array(np.tile(levels, len(roots)),
                                        np.tile(roles, len(roots)))
        bases = first + size * np.arange(len(roots), dtype=np.int64)
        self.b.add_edge_array(
            np.where(parents < 0, roots[:, None], bases[:, None] + parents),
            bases[:, None] + np.arange(size))
        return [(bases[:, None] + np.asarray(at, np.int64)).T
                for at in positions]

    def clique(self, classes):
        """Join every vertex of each class to its counterparts in the other
        trees of its group of `branching` consecutive trees."""
        i, j = np.triu_indices(self.fam.branching, 1)
        groups = np.reshape(classes, (-1, self.fam.branching))
        self.b.add_edge_array(groups[:, i], groups[:, j])

    def pendant(self, cls, level):
        """A class of one AUXILIARY vertex at `level` per vertex of cls."""
        ids = self.b.add_vertices(len(cls), level, AUXILIARY) \
            + np.arange(len(cls))
        self.b.add_edge_array(cls, ids)
        return ids

    def wire(self, classes, which, level):
        """Join the vertices of `classes`, taken tree by tree, along each
        edge (i, j) of H1 (which=0) or H2 (which=1), or join vertex i as
        edge i of H to an auxiliary (at `level`) per end."""
        targets = np.transpose(classes).ravel()
        exp = self.expanders[which]
        edges = exp.graph.edge_array()
        if self.fam.line_graphs:
            _embed_line_graph_bulk(self.b, exp.size, edges, targets, level)
        else:
            self.b.add_edge_array(targets[edges[:, 0]], targets[edges[:, 1]])


def _expander_specs(params: ConstructionParams) -> tuple:
    """The expanders a build requests: a cylinder's 3-regular host on m
    vertices, keyed by params.seed, or a tree family's H1 and H2, keyed by
    seed and seed + 1, at the sizes the bands need."""
    fam = FAMILIES[params.variant]
    if not fam.branching:
        return (ExpanderSpec(3, params.m, params.min_gap, params.seed),)
    leaves1 = fam.fanout * fam.branching ** (params.h + 1)
    # H1 meets one vertex per band-2 tree, H2 one per leaf: each a vertex
    # of H, or with line graphs an edge of H
    degrees = fam.expander_degree(2), fam.expander_degree(1)
    counts = leaves1, leaves1 * fam.branching ** (2 * params.h)
    return tuple(ExpanderSpec(d, 2 * n // d if fam.line_graphs else n,
                              params.min_gap, params.seed + i)
                 for i, (d, n) in enumerate(zip(degrees, counts)))


def _tree_family_builder(params: ConstructionParams) -> GraphBuilder:
    """The builder of a tree-family build: _tree_family on a _GraphBackEnd,
    with H1 and H2 certified from _expander_specs."""
    fam = FAMILIES[params.variant]
    h, L = params.h, params.L
    # finish() would refuse it after the pairings; no_cutoff is even larger
    sized = "five_regular" if fam.uneven else params.variant
    if (arcs := family_vertex_count(sized, h, L) * fam.degree) >= 2**31:
        raise GraphError(f"{params.variant} h={h} L={L} needs at least "
                         f"{arcs} arcs, past int32 CSR indices")
    specs = _expander_specs(params)
    exp1, exp2 = map(make_expander, specs)
    floor = choose_L(exp1.gap, exp2.gap)
    meta = {"variant": params.variant, "h": h, "L": L, "degree": fam.degree,
            "seeds": tuple(s.seed for s in specs), "gap1": exp1.gap,
            "gap2": exp2.gap, "L_floor": floor, "meets_L_floor": L >= floor}
    if not fam.line_graphs:
        meta["L_prime"] = params.L_prime if fam.uneven else 0
    back = _GraphBackEnd(GraphBuilder(meta), fam, (exp1, exp2))
    _tree_family(params, back)
    return back.b


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
    if (bipartite := is_bipartite(host_g, if_connected=True)) is None:
        raise GraphError("cylinder host must be connected")
    if L < 1 or L % 4 != 1:
        raise GraphError("cylinder length must satisfy L = 1 (mod 4)")
    m = host_g.vertex_count
    meta = {"variant": "cylinder", "h": 0, "L": L, "m": m, "degree": 3,
            "host_gap": getattr(host, "gap", host_g.meta.get("gap"))}
    if L == 1:
        return host_g.with_meta(**meta, bipartite=bipartite)
    return _finalize(_cylinder_builder(host_g, (L - 1) // 4, meta), 3)


def _cylinder_builder(host_g, k, meta) -> GraphBuilder:
    """The builder of a cylinder build: the host's vertices, then a ladder
    of length 4k + 1 along each host edge."""
    b = GraphBuilder(meta)
    b.add_vertices(host_g.vertex_count, UNLEVELED, TREE_NODE)
    _add_ladders(b, host_g.edge_array(), k)
    return b


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
    fam = FAMILIES[params.variant]
    if fam.branching:
        return _finalize(_tree_family_builder(params), fam.degree)
    host = make_expander(_expander_specs(params)[0])
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

    mixing.step walks the chain like a graph: vertex_count is n, and
    matvec_kernel() gives the transition product counts^T x / d from at
    most 3 nonzeros a row (every variant up to h=40), summed in numpy
    bit-identically to scipy's csr_matvec on adjacency_csr() / d, so
    neither the walk nor the descent chain, which evolves its survival
    through the same kernel, loads scipy.
    """

    __slots__ = ("sizes", "indptr", "indices", "degree", "meta", "levels",
                 "leaves", "stationary", "_n", "_csr", "_kernel")

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
        for arr in (self.indptr, self.indices, self.stationary):
            arr.setflags(write=False)

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def state_count(self) -> int:
        return len(self.sizes)

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
        """Cached kernel(x, out) writing counts^T x / d into `out`, the
        walk's transition product, bit-identical to csr_matvec on
        adjacency_csr() with its data divided by d: each row's nonzeros are
        summed in column order, from the first rather than from 0.0, which
        differs only in the sign of a zero sum.  columns[j, c] is the
        j-th source class of the arcs into c and values[j, c] their count
        over d; shorter rows are padded with column 0 and 0.0, which
        leaves a finite sum unchanged."""
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
            values[rank, rows] = counts / self.degree

            def kernel(x, out):
                terms = x[columns]
                terms *= values
                # along the outer axis the rows are added in order
                np.add.reduce(terms, axis=0, out=out)

            self._kernel = kernel
        return self._kernel


class _ChainBuilder:
    """_tree_family's back end that lumps: class sizes, tree levels and
    rows[c], the class of each neighbour of a vertex of class c, added the
    way _GraphBackEnd adds vertices and edges.  A column of _graft is one
    class, or two from the uneven split on."""

    def __init__(self, fam):
        self.fam = fam
        self.degrees = fam.expander_degree(2), fam.expander_degree(1)
        self.sizes, self.levels, self.rows = [], [], []

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

    def below(self, parent, per, level=UNLEVELED, role=TREE_NODE) -> int:
        """A class of `per` children per vertex of `parent`, at `level`
        unless it holds path interiors."""
        child = self.add(self.sizes[parent] * per,
                         UNLEVELED if role == PATH_INTERIOR else level)
        self.join(parent, child, per, 1)
        return child

    def top(self) -> int:
        return self.below(self.below(self.add(1, 0), self.fam.fanout, 1),
                          self.fam.branching, 2)

    def plant(self, roots):
        return [(r, 0) for r in roots]

    def kids(self, pos, split):
        """One child class, or at the split the even and the odd children,
        branching/2 per parent each."""
        first, per = pos * self.fam.branching, self.fam.branching
        if split:
            return [(first, per // 2), (first + 1, per // 2)]
        return [(first, per)]

    def copy(self, *positions):
        return positions

    def clique(self, classes) -> None:
        for cls in classes:
            self.join(cls, cls, self.fam.branching - 1,
                      self.fam.branching - 1)

    def pendant(self, cls, level) -> int:
        return self.below(cls, 1)

    def wire(self, classes, which, level) -> None:
        """_GraphBackEnd.wire's expander on each class of `classes`."""
        degree = self.degrees[which]
        for cls in classes:
            if self.fam.line_graphs:
                self.join(cls, self.add(self.sizes[cls] * 2 // degree), 2,
                          degree)
            else:
                self.join(cls, cls, degree, degree)


def class_chain(params: ConstructionParams) -> RootChain:
    """The walk from the root of a tree-family build, lumped onto classes:
    _tree_family on a _ChainBuilder, so the classes come from the script
    the build runs, without building; the seed and min_gap do not enter
    it.  An uneven family's classes carry the stretch regime below band
    1's depth h/2 down through bands 2 and 3, but H1's matching of band-2
    interiors joins the two regimes, so that partition is not equitable
    and its chain is not exact."""
    params.validate()
    fam = FAMILIES[params.variant]
    if not fam.branching:
        raise GraphError(f"no chain for variant {params.variant!r}")
    c = _ChainBuilder(fam)
    leaves = _tree_family(params, c)
    for k, row in enumerate(c.rows):
        if len(row) != fam.degree:
            raise GraphError(f"chain bug: class {k} has degree {len(row)}, "
                             f"expected {fam.degree}")
    return RootChain(c.sizes, [t for row in c.rows for t in sorted(row)],
                     fam.degree, {"variant": params.variant, "h": params.h,
                                  "L": params.L}, c.levels, leaves)


def root_chain(params: ConstructionParams) -> RootChain:
    """The exact root-class chain of a tree-family build with these
    parameters: its class_chain, refused for an uneven family."""
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
