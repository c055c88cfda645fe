"""Base expanders at exact sizes with certified spectral gaps.

The provider draws seeded random regular graphs (configuration model with
whole-pairing rejection of self-loops and parallel edges), then certifies
the adjacency gap by one eigensolve at every size: Lanczos on the walk's
own transition kernel from a seeded random start.  Random regular graphs
are near-optimal expanders with overwhelming probability, so the bounded
seed-increment retry loop nearly always stops at the first attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .graphs import (
    GraphBuilder,
    GraphError,
    LeveledGraph,
    assert_regular,
    is_connected,
)

MAX_ATTEMPTS = 200
# Lanczos steps before certification gives up with GraphError; the cubic
# H2 takes 550 steps at 2^14 vertices and 850 at 2^17
LANCZOS_STEPS = 10000
_CHECK_EVERY = 50
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
            raise GraphError(f"degree * size must be even, got "
                             f"{self.degree} * {self.size}")
        if not (0.0 < self.min_gap < 1.0):
            raise GraphError(f"min_gap must lie in (0, 1), got {self.min_gap}")


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


def _pair_regular(degree: int, size: int, gen: np.random.Generator):
    """One configuration-model pairing as endpoint arrays (lo, hi); None
    when it is not a simple graph."""
    stubs = np.repeat(np.arange(size, dtype=np.int64), degree)
    gen.shuffle(stubs)
    lo = np.minimum(stubs[0::2], stubs[1::2])
    hi = np.maximum(stubs[0::2], stubs[1::2])
    if np.any(lo == hi):
        return None
    keys = np.sort(lo * np.int64(size) + hi)
    if np.any(np.diff(keys) == 0):
        return None
    return lo, hi


def _negative_definite(a, b2, x):
    """Whether T - xI is negative definite, T the tridiagonal matrix with
    diagonal a and squared off-diagonal b2: whether every pivot of its
    LDL^T is negative."""
    q = a[0] - x
    for ak, bk2 in zip(a[1:], b2):
        if q >= 0:
            return False
        q = ak - x - bk2 / q
    return q < 0


def _top_ritz(a, b, beta):
    """(theta, beta |s_m|) for the largest eigenvalue theta of T (diagonal
    a, off-diagonal b), bisected between max(a) and Gershgorin's bound:
    s_m, the last entry of its unit eigenvector, comes from the three-term
    recurrence run back from s_m = 1, rescaled before it overflows."""
    b2 = [x * x for x in b]
    edge = [0.0, *b, 0.0]
    lo = max(a)
    hi = max(ak + edge[k] + edge[k + 1] for k, ak in enumerate(a))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _negative_definite(a, b2, mid):
            hi = mid
        else:
            lo = mid
    x, x_next, norm2, last = 1.0, 0.0, 1.0, 1.0
    for k in range(len(a) - 1, 0, -1):
        x, x_next = ((hi - a[k]) * x - edge[k + 1] * x_next) / b[k - 1], x
        norm2 += x * x
        if norm2 > 1e200:
            x, x_next, last = x * 1e-100, x_next * 1e-100, last * 1e-100
            norm2 *= 1e-200
    return hi, beta * last / math.sqrt(norm2)


def adjacency_extremes(g: LeveledGraph):
    """(second largest, smallest) adjacency eigenvalues of a regular graph,
    signed; GraphError on one that is not regular or has under 2 vertices.

    d times the extremes of P = A/d, by Lanczos on g.matvec_kernel() from
    a seeded Gaussian start, which has weight on every eigenspace with
    probability 1.  Every step subtracts the mean, as P maps the
    complement of the constants to itself.  There is no
    reorthogonalization: extreme Ritz values converge regardless, and lost
    orthogonality only repeats them.  Every _CHECK_EVERY steps both
    extreme Ritz pairs are held to Parlett's bound d beta_m |s_m| <
    _EIG_TOL and returned clamped into [-d, d], which rounding can leave by
    an ulp; past LANCZOS_STEPS steps GraphError names the residuals.
    """
    degrees = g.degrees()
    if np.any(degrees != degrees[:1]):
        raise GraphError("graph is not regular")
    n = g.vertex_count
    if n < 2:
        raise GraphError(f"no nontrivial eigenvalue on {n} vertices")
    d = float(degrees[0])
    kernel, tol = g.matvec_kernel(), _EIG_TOL / d
    # a Philox key that no pairing (seed, attempt < MAX_ATTEMPTS) uses
    v = rng.stream(0, 2**64 - 1).standard_normal(n)
    v -= v.mean()
    v /= math.sqrt(v @ v)
    v_prev, w = np.zeros(n), np.empty(n)
    a, b, beta = [], [], 0.0
    for m in range(1, LANCZOS_STEPS + 1):
        kernel(v, w)
        w -= w.mean()
        v_prev *= beta
        w -= v_prev
        a.append(float(w @ v))
        np.multiply(v, a[-1], out=v_prev)
        w -= v_prev
        beta = math.sqrt(w @ w)
        if m % _CHECK_EVERY == 0 or m == LANCZOS_STEPS or beta < tol:
            lam2, res2 = _top_ritz(a, b, beta)
            neg_min, res_min = _top_ritz([-x for x in a], b, beta)
            if max(res2, res_min) < tol:
                return min(max(d * lam2, -d), d), min(max(-d * neg_min, -d), d)
        b.append(beta)
        v_prev, v, w = v, w, v_prev
        v /= beta
    raise GraphError(
        f"Lanczos did not converge in LANCZOS_STEPS={LANCZOS_STEPS} steps: "
        f"residuals {d * res2:.1e} (lam2) and {d * res_min:.1e} (lam_min), "
        f"tolerance {_EIG_TOL:.0e}")


def regular_extremes(g: LeveledGraph, degree: int):
    """(lam2, lam_min, lam_abs) of a connected `degree`-regular graph: the
    second largest and the smallest adjacency eigenvalue, signed, and the
    largest absolute nontrivial one.  Errors on input with under 2
    vertices, on disconnected input (lam_abs would equal the degree) and on
    input that is not `degree`-regular."""
    if g.vertex_count < 2:
        raise GraphError(f"no nontrivial eigenvalue on {g.vertex_count} "
                         f"vertices")
    if not is_connected(g):
        raise GraphError("graph is disconnected")
    if not assert_regular(g, degree):
        raise GraphError(f"graph is not {degree}-regular")
    lam2, lam_min = adjacency_extremes(g)
    return lam2, lam_min, max(abs(lam2), abs(lam_min))


@lru_cache(maxsize=32)
def make_expander(spec: ExpanderSpec) -> CertifiedExpander:
    """Deterministic function of spec: seeded pairing, connectivity check,
    certification, retrying on a fixed seed-increment schedule.  Results
    are memoized per process (the graphs are immutable).

    Raises after MAX_ATTEMPTS attempts with `no expander found`; the
    caller lowers min_gap or changes the seed.
    """
    spec.validate()
    for attempt in range(MAX_ATTEMPTS):
        gen = rng.stream(spec.seed, attempt)
        pairing = _pair_regular(spec.degree, spec.size, gen)
        if pairing is None:
            continue
        b = GraphBuilder()
        b.add_vertices(spec.size)
        b.add_edge_array(*pairing)
        g = b.finish(variant="expander", degree=spec.degree, seed=spec.seed,
                     attempt=attempt, provider="seeded-pairing")
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
        f"no expander found for spec {spec} after {MAX_ATTEMPTS} attempts")
