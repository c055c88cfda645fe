"""Base expanders at exact sizes with certified spectral gaps.

The provider draws seeded random regular graphs (configuration model with
whole-pairing rejection of self-loops and parallel edges), then certifies
the adjacency gap by an exact eigensolve: dense below DENSE_LIMIT vertices,
Lanczos (ARPACK) above.  Random regular graphs are near-optimal expanders
with overwhelming probability, so the bounded seed-increment retry loop
nearly always stops at the first attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse.linalg as spla

from . import rng
from .graphs import GraphError, LeveledGraph, assert_regular, is_connected

DENSE_LIMIT = 2000
_EIG_TOL = 1e-8


@dataclass(frozen=True)
class ExpanderSpec:
    """Request for a `degree`-regular expander on `size` vertices with
    certified spectral gap at least `min_gap`."""
    degree: int
    size: int
    min_gap: float = 0.05
    seed: int = 0

    def validate(self):
        if self.degree < 3:
            raise GraphError("expander degree must be >= 3")
        if self.size < self.degree + 1:
            raise GraphError("expander size must be >= degree + 1")
        if (self.degree * self.size) % 2 != 0:
            raise GraphError("degree * size must be even")
        if not (0.0 < self.min_gap < 1.0):
            raise GraphError("min_gap must lie in (0, 1)")


@dataclass(frozen=True)
class CertifiedExpander:
    """A regular graph together with its certified nontrivial eigenvalue.

    lam is the largest absolute value of a nontrivial adjacency eigenvalue;
    gap = 1 - lam/degree.
    """
    graph: LeveledGraph
    degree: int
    lam: float
    gap: float
    attempts: int

    @property
    def size(self) -> int:
        return self.graph.vertex_count

    def edge_list(self) -> list:
        return [tuple(e) for e in self.graph.edge_array()]


def _pair_regular(degree: int, size: int, gen: np.random.Generator):
    """One configuration-model pairing; None when it is not a simple graph."""
    stubs = np.repeat(np.arange(size, dtype=np.int64), degree)
    gen.shuffle(stubs)
    u = stubs[0::2].copy()
    v = stubs[1::2].copy()
    if np.any(u == v):
        return None
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = lo * np.int64(size) + hi
    keys.sort()
    if np.any(np.diff(keys) == 0):
        return None
    return np.column_stack([keys // size, keys % size])


def _graph_from_pairing(edges: np.ndarray, size: int, meta) -> LeveledGraph:
    # edges are already simple; build the CSR arrays directly
    from .graphs import TREE_NODE, UNLEVELED

    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indices = dst[order]
    counts = np.bincount(src, minlength=size)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    level = np.full(size, UNLEVELED, dtype=np.int64)
    role = np.full(size, TREE_NODE, dtype=np.uint8)
    return LeveledGraph(indptr, indices, level, role, meta)


def adjacency_extremes(g: LeveledGraph):
    """(second largest, smallest) adjacency eigenvalues, signed.

    Dense symmetric solve for small graphs; above DENSE_LIMIT, implicitly
    restarted Lanczos on the sparse adjacency (both spectrum ends in one
    factorization) with a fixed start vector so repeated runs agree
    bit-for-bit.
    """
    n = g.vertex_count
    if n <= DENSE_LIMIT:
        w = np.linalg.eigvalsh(g.adjacency_dense())
        return float(w[-2]), float(w[0])
    a = g.adjacency_csr()
    v0 = np.full(n, 1.0)
    v0[::2] += 0.5
    v0[::3] -= 0.25
    w = np.sort(spla.eigsh(a, k=3, which="BE", tol=_EIG_TOL, v0=v0,
                           maxiter=100000, return_eigenvectors=False))
    return float(w[1]), float(w[0])


def regular_extremes(g: LeveledGraph, degree: int):
    """(lam2, lam_min, lam_abs) of a connected `degree`-regular graph: the
    second largest and the smallest adjacency eigenvalue, signed, and the
    largest absolute nontrivial one.  Errors on disconnected input (lam_abs
    would equal the degree) and on input that is not `degree`-regular."""
    if not is_connected(g):
        raise GraphError("graph is disconnected")
    if not assert_regular(g, degree):
        raise GraphError(f"graph is not {degree}-regular")
    lam2, lam_min = adjacency_extremes(g)
    return lam2, lam_min, max(abs(lam2), abs(lam_min))


def certify_gap(g: LeveledGraph, degree: int) -> float:
    """1 - lam/degree with lam the largest absolute nontrivial adjacency
    eigenvalue of a connected `degree`-regular graph."""
    return 1.0 - regular_extremes(g, degree)[2] / degree


@lru_cache(maxsize=32)
def make_expander(spec: ExpanderSpec, max_attempts: int = 200) -> CertifiedExpander:
    """Deterministic function of spec: seeded pairing, connectivity check,
    certification, retrying on a fixed seed-increment schedule.  Results
    are memoized per process (the graphs are immutable).

    Raises after the bounded retry schedule with `no expander found`; the
    caller lowers min_gap or changes the seed.
    """
    spec.validate()
    for attempt in range(max_attempts):
        gen = rng.stream(spec.seed, attempt)
        edges = _pair_regular(spec.degree, spec.size, gen)
        if edges is None:
            continue
        meta = {"variant": "expander", "degree": spec.degree,
                "seed": spec.seed, "attempt": attempt,
                "provider": "seeded-pairing"}
        g = _graph_from_pairing(edges, spec.size, meta)
        if not is_connected(g):
            continue
        lam2, lam_min = adjacency_extremes(g)
        lam = max(abs(lam2), abs(lam_min))
        gap = 1.0 - lam / spec.degree
        if gap >= spec.min_gap:
            g = g.with_meta(lam=lam, gap=gap)
            return CertifiedExpander(graph=g, degree=spec.degree, lam=lam,
                                     gap=gap, attempts=attempt + 1)
    raise GraphError(
        f"no expander found for spec {spec} after {max_attempts} attempts")
