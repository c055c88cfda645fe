"""Eigenvalue, Cheeger, and Dirichlet-form machinery.

Provides the brute-force edge-expansion oracle for small graphs, the
spectral Cheeger sandwich, Rayleigh-quotient upper bounds on the walk's
spectral gap from explicit test functions, and the slow-mixing certificate
that combines a distance test function with a diameter audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expanders import regular_extremes
from .graphs import (
    GraphError,
    LeveledGraph,
    bfs_distances,
    is_connected,
)

BRUTE_FORCE_MAX = 24
_MIN_CERT_DIAMETER = 8
_MIN_TAIL_MASS = 1.0 / 16.0


def cheeger_bruteforce(g: LeveledGraph) -> float:
    """Exact min over nonempty proper S of |boundary(S)| / min(|S|, |S^c|),
    enumerating subsets up to complementation (vertex n-1 pinned outside)."""
    n = g.vertex_count
    if n > BRUTE_FORCE_MAX:
        raise GraphError("brute force bound exceeded")
    if n < 2:
        raise GraphError("need at least 2 vertices")
    if not is_connected(g):
        raise GraphError("graph must be connected")
    edges = g.edge_array().astype(np.uint32)
    total = np.uint64(1) << np.uint64(n - 1)
    best = np.inf
    chunk = 1 << 20
    start = 1
    while start < total:
        stop = min(start + chunk, int(total))
        masks = np.arange(start, stop, dtype=np.uint32)
        boundary = np.zeros(len(masks), dtype=np.int32)
        for u, v in edges:
            boundary += (((masks >> u) ^ (masks >> v)) & 1).astype(np.int32)
        sizes = np.bitwise_count(masks).astype(np.int32)
        ratios = boundary / np.minimum(sizes, n - sizes)
        best = min(best, float(ratios.min()))
        start = stop
    return best


def _sandwich(d, lam2, lam_abs):
    # the one copy of the box's formulas, for cheeger_sandwich and
    # spectral_report (which has the eigenvalues already)
    return (max(0.0, (d - lam_abs) / 2.0),
            float(np.sqrt(2 * d * max(0.0, d - lam2))))


def cheeger_sandwich(g: LeveledGraph, d: int):
    """Two-sided box that is valid for every connected regular graph:
    (d - lam_abs)/2 <= ch(g) <= sqrt(2d(d - lam_2)) with lam_2 the second
    largest signed eigenvalue (the upper bound stays meaningful on
    bipartite graphs, where lam_abs = d)."""
    lam2, _, lam_abs = regular_extremes(g, d)
    return _sandwich(d, lam2, lam_abs)


def distance_test_function(g: LeveledGraph, x: int) -> np.ndarray:
    """BFS distances from x, as a float vector."""
    d = bfs_distances(g, x)
    if np.any(d < 0):
        raise GraphError("graph must be connected")
    return d.astype(np.float64)


def dirichlet_gap_upper(g: LeveledGraph, f) -> float:
    """Rayleigh quotient E(f)/Var(f) of the walk's Dirichlet form under the
    uniform stationary measure; an upper bound on the spectral gap for any
    non-constant f."""
    f = np.asarray(f, dtype=np.float64)
    if len(f) != g.vertex_count:
        raise GraphError("test function has the wrong length")
    degs = g.degrees()
    if degs.min() != degs.max():
        raise GraphError("uniform stationarity needs a regular graph")
    var = float(f.var())
    if var == 0.0:
        raise GraphError("zero variance: test function is constant")
    edges = g.edge_array()
    diffs = f[edges[:, 0]] - f[edges[:, 1]]
    energy = float((diffs * diffs).sum()) / (g.vertex_count * int(degs[0]))
    return energy / var


def exact_walk_gap(g: LeveledGraph) -> float:
    """1 - lam_2/d: the walk's spectral gap on a connected d-regular graph,
    with lam_2 the second largest signed adjacency eigenvalue."""
    d = int(g.degrees().max(initial=0))
    return 1.0 - regular_extremes(g, d)[0] / d


def farthest_vertex_pair(g: LeveledGraph):
    """(x, y, dist): a pair at maximal distance, found exactly up to 500
    vertices and by a repeated double BFS sweep above."""
    n = g.vertex_count
    if n <= 500:
        best = (0, 0, -1)
        for s in range(n):
            d = bfs_distances(g, s)
            far = int(np.argmax(d))
            if d[far] > best[2]:
                best = (s, far, int(d[far]))
        return best
    x = 0
    best = (0, 0, -1)
    for _ in range(2):
        d = bfs_distances(g, x)
        far = int(np.argmax(d))
        if d[far] > best[2]:
            best = (x, far, int(d[far]))
        x = far
    return best


@dataclass
class NoCutoffCertificate:
    """Distance-function certificate that the walk's gap is order n^-2."""
    source: int
    diameter: int
    gap_upper: float
    n2_product: float
    frac_near: float
    frac_far: float
    applicable: bool
    reason: str = ""


def no_cutoff_certificate(g: LeveledGraph) -> NoCutoffCertificate:
    """Pick a vertex of maximal eccentricity, bound the gap by the
    distance-function Rayleigh quotient, and audit that both distance tails
    carry constant mass (the variance driver)."""
    x, _, diam = farthest_vertex_pair(g)
    f = distance_test_function(g, x)
    gap_upper = dirichlet_gap_upper(g, f)
    n = g.vertex_count
    frac_near = float((f <= diam / 4.0).mean())
    frac_far = float((f >= 3.0 * diam / 4.0).mean())
    reason = ""
    if diam < _MIN_CERT_DIAMETER:
        reason = "diameter not linear"
    elif frac_near < _MIN_TAIL_MASS or frac_far < _MIN_TAIL_MASS:
        reason = "distance tails carry too little mass"
    return NoCutoffCertificate(source=int(x), diameter=int(diam),
                               gap_upper=gap_upper,
                               n2_product=gap_upper * n * n,
                               frac_near=frac_near, frac_far=frac_far,
                               applicable=reason == "", reason=reason)


@dataclass
class SpectralReport:
    degree: int
    lambda_abs: float
    lambda2: float
    lambda_min: float
    gap: float
    cheeger_lower: float
    cheeger_upper: float
    cheeger_exact: float | None = None
    dirichlet_upper: float | None = None
    degenerate: bool = False
    lazy_gap: float | None = None


def spectral_report(g: LeveledGraph, cheeger_exact=False,
                    dirichlet=False) -> SpectralReport:
    """Full report for a connected regular graph: extreme eigenvalues, the
    certified gap, Cheeger bounds (exact value on request for oracle-sized
    graphs), and the distance-function Dirichlet bound on request.  The
    degree is the largest vertex degree; a graph that is not regular
    raises."""
    degree = int(g.degrees().max(initial=0))
    lam2, lam_min, lam_abs = regular_extremes(g, degree)
    gap = 1.0 - lam_abs / degree
    lo, hi = _sandwich(degree, lam2, lam_abs)
    degenerate = lam_abs >= degree - 1e-9
    lazy = (1.0 - lam2 / degree) / 2.0 if degenerate else None
    exact = None
    if cheeger_exact and g.vertex_count <= BRUTE_FORCE_MAX:
        exact = cheeger_bruteforce(g)
    diri = None
    if dirichlet:
        diri = no_cutoff_certificate(g).gap_upper
    return SpectralReport(degree=degree, lambda_abs=float(lam_abs),
                          lambda2=float(lam2), lambda_min=float(lam_min),
                          gap=float(gap), cheeger_lower=lo, cheeger_upper=hi,
                          cheeger_exact=exact, dirichlet_upper=diri,
                          degenerate=bool(degenerate), lazy_gap=lazy)
