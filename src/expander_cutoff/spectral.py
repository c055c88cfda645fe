"""Eigenvalue, Cheeger, and Dirichlet-form machinery.

Provides the brute-force edge-expansion oracle for small graphs, the
spectral Cheeger sandwich, Rayleigh-quotient upper bounds on the walk's
spectral gap from explicit test functions, and the slow-mixing certificate
that combines a distance test function with a diameter audit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .expanders import DENSE_LIMIT, regular_extremes
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


def cheeger_bounds(g: LeveledGraph, d: int):
    """((d - lam)/2, sqrt(2d(d - lam))) with lam the largest absolute
    nontrivial adjacency eigenvalue.  On bipartite input lam = d and the
    pair degenerates to (0, 0); a warning flags it."""
    lam = regular_extremes(g, d)[2]
    if lam >= d - 1e-9:
        warnings.warn("largest absolute nontrivial eigenvalue equals the "
                      "degree (bipartite input): bounds degenerate to (0, 0)")
        return 0.0, 0.0
    return (d - lam) / 2.0, float(np.sqrt(2 * d * (d - lam)))


def cheeger_sandwich(g: LeveledGraph, d: int):
    """Two-sided box that is valid for every connected regular graph:
    (d - lam_abs)/2 <= ch(g) <= sqrt(2d(d - lam_2)) with lam_2 the second
    largest signed eigenvalue (the upper bound stays meaningful on
    bipartite graphs, where lam_abs = d)."""
    lam2, _, lam_abs = regular_extremes(g, d)
    lo = max(0.0, (d - lam_abs) / 2.0)
    hi = float(np.sqrt(2 * d * max(0.0, d - lam2)))
    return lo, hi


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
    """1 - lam_2(P) with lam_2 the second largest signed eigenvalue of the
    transition kernel; dense solve, for graphs up to DENSE_LIMIT."""
    n = g.vertex_count
    if n > DENSE_LIMIT:
        raise GraphError(f"exact walk gap computed densely only up to {DENSE_LIMIT}")
    a = g.adjacency_dense()
    dinv_sqrt = 1.0 / np.sqrt(g.degrees().astype(np.float64))
    sym = a * dinv_sqrt[:, None] * dinv_sqrt[None, :]
    w = np.linalg.eigvalsh(sym)
    return float(1.0 - w[-2])


def farthest_vertex_pair(g: LeveledGraph, exact_below: int = 500):
    """(x, y, dist): a pair at maximal distance, found exactly below
    `exact_below` vertices and by a repeated double BFS sweep above."""
    n = g.vertex_count
    if n <= exact_below:
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

    def as_dict(self):
        return {"source": self.source, "diameter": self.diameter,
                "gap_upper": self.gap_upper, "n2_product": self.n2_product,
                "frac_near": self.frac_near, "frac_far": self.frac_far,
                "applicable": self.applicable, "reason": self.reason}


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

    def as_dict(self):
        return {
            "degree": self.degree,
            "lambda_abs": self.lambda_abs,
            "lambda2": self.lambda2,
            "lambda_min": self.lambda_min,
            "gap": self.gap,
            "cheeger_lower": self.cheeger_lower,
            "cheeger_upper": self.cheeger_upper,
            "cheeger_exact": self.cheeger_exact,
            "dirichlet_upper": self.dirichlet_upper,
            "degenerate": self.degenerate,
            "lazy_gap": self.lazy_gap,
        }


def spectral_report(g: LeveledGraph, degree=None, cheeger_exact=False,
                    dirichlet=False) -> SpectralReport:
    """Full report for a connected regular graph: extreme eigenvalues, the
    certified gap, Cheeger bounds (exact value on request for oracle-sized
    graphs), and the distance-function Dirichlet bound on request.  The
    degree defaults to the largest vertex degree; a graph that is not
    degree-regular raises."""
    if degree is None:
        degree = int(g.degrees().max(initial=0))
    lam2, lam_min, lam_abs = regular_extremes(g, degree)
    gap = 1.0 - lam_abs / degree
    degenerate = lam_abs >= degree - 1e-9
    if degenerate:
        lo, hi = 0.0, 0.0
        lazy = (1.0 - lam2 / degree) / 2.0
    else:
        lo = (degree - lam_abs) / 2.0
        hi = float(np.sqrt(2 * degree * (degree - lam_abs)))
        lazy = None
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
