"""Exact evolution of walk distributions and total-variation diagnostics.

Distributions are plain float64 vectors indexed by vertex.  One step of
the (optionally lazy) simple random walk is a sparse matvec, so full
profiles on builds with a few hundred thousand vertices take seconds.
The same loop evolves a construction.RootChain, whose vector holds the
mass of each class and is compared with the chain's `stationary` shares,
so root profiles of the cubic and five_regular families cost microseconds
per step at any height.

step takes the product from the object it walks (`matvec_kernel()`): a
graph runs scipy's compiled csr_matvec on its own CSR arrays, loaded
without importing scipy.sparse, and a chain a numpy row sum over the arcs
of its CSR multigraph, bit-identical to csr_matvec.  Nothing here imports
scipy, so a chain is evolved without loading it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .construction import FAMILIES, RootChain, leaf_level, log_cap
from .graphs import (GraphError, LeveledGraph, PATH_INTERIOR, UNLEVELED,
                     bfs_distances, is_bipartite)

RENORM_TOL = 1e-9


def point_mass(n: int, v: int) -> np.ndarray:
    p = np.zeros(n)
    p[v] = 1.0
    return p


def _walk_buffer(buf, n: int) -> np.ndarray:
    # a graph's kernel (csr_matvec) checks no lengths: a short buffer
    # corrupts the heap
    if buf is None:
        return np.empty(n)
    if buf.shape != (n,) or buf.dtype != np.float64 or not buf.flags.c_contiguous:
        raise GraphError(f"walk buffers must be contiguous float64 of length {n}")
    return buf


def step(g: LeveledGraph, p: np.ndarray, laziness: float = 0.0,
         out: np.ndarray | None = None,
         work: np.ndarray | None = None) -> np.ndarray:
    """One step of the walk: p'(v) = laziness p(v)
    + (1 - laziness) sum_{u ~ v} p(u)/deg(u).

    The result goes into `out` and `work` is scratch; both are allocated
    when not given (contiguous float64 of length n, distinct from p and
    from each other).  Returns `out`.  g is a LeveledGraph or a RootChain,
    whose vectors have one entry per state."""
    if not (0.0 <= laziness <= 0.5):
        raise GraphError("laziness must lie in [0, 1/2]")
    degrees = g.float_degrees()
    n = len(degrees)
    out = _walk_buffer(out, n)
    work = _walk_buffer(work, n)
    # p is read after out and work are written
    if (np.may_share_memory(out, p) or np.may_share_memory(work, p)
            or np.may_share_memory(out, work)):
        raise GraphError("walk buffers out and work must not overlap p or "
                         "each other")
    np.divide(p, degrees, out=work)
    g.matvec_kernel()(work, out)
    if laziness:
        out *= 1.0 - laziness
        np.multiply(p, laziness, out=work)
        out += work
    return out


def tv_to_uniform(p: np.ndarray, work: np.ndarray | None = None,
                  pi: np.ndarray | None = None) -> float:
    """Half the L1 distance between p and the stationary law `pi`, uniform
    when not given; `work` (float64, p's length) is scratch, allocated when
    not given.  A RootChain's class masses take its `stationary` as pi.
    Clamped at 1, which rounding in the sum could exceed."""
    work = np.empty(len(p)) if work is None else work
    np.subtract(p, 1.0 / len(p) if pi is None else pi, out=work)
    np.abs(work, out=work)
    return min(1.0, 0.5 * float(work.sum()))


def default_laziness(g: LeveledGraph) -> float:
    """0 when the graph or chain has an odd cycle, else 1/2."""
    return 0.5 if is_bipartite(g) else 0.0


@dataclass
class TVProfile:
    """Sampled curve t -> ||P_start(X_t in .) - uniform||_TV."""
    start: int
    times: np.ndarray
    tv: np.ndarray
    laziness: float
    stride: int
    renormalizations: int = 0

    def as_rows(self):
        return list(zip(self.times.tolist(), self.tv.tolist()))


def tv_profile_until(g, start, target, t_cap, stride=1,
                     laziness=0.0) -> TVProfile:
    """The evolution loop behind every profile: records the TV distance to
    uniform every `stride` steps and at t_cap, and stops at the first
    record below `target` (errors if t_cap comes first).  target=None
    runs to t_cap.  g is a LeveledGraph, or a RootChain evolved from the
    root (start 0) as class masses against its `stationary` law."""
    if t_cap < 0:
        raise GraphError("t_max must be >= 0")
    n = g.vertex_count
    if not 0 <= start < n:
        raise GraphError(f"start {start} is not a vertex (n={n})")
    stride = int(stride)
    if stride < 1:
        raise GraphError(f"stride must be >= 1, got {stride}")
    if isinstance(g, RootChain):
        # the mass of each class; vertex 0 is the root class
        if start != 0:
            raise GraphError("a root chain evolves the walk from vertex 0 only")
        p, pi = point_mass(g.state_count, 0), g.stationary
    else:
        p, pi = point_mass(n, start), None
    q = np.empty_like(p)
    work = np.empty_like(p)
    times = [0]
    tv = [tv_to_uniform(p, work, pi)]
    renorms = 0
    t = 0
    while t < t_cap and (target is None or tv[-1] >= target):
        for _ in range(min(stride, t_cap - t)):
            t += 1
            step(g, p, laziness, out=q, work=work)
            p, q = q, p
        mass = p.sum()
        if abs(mass - 1.0) > RENORM_TOL:
            p /= mass
            renorms += 1
        times.append(t)
        tv.append(tv_to_uniform(p, work, pi))
    if target is not None and tv[-1] >= target:
        raise GraphError(f"not mixed below {target} by t_max={t_cap}")
    return TVProfile(start=int(start), times=np.asarray(times, dtype=np.int64),
                     tv=np.asarray(tv), laziness=laziness, stride=stride,
                     renormalizations=renorms)


def mixing_time_bracket(profile: TVProfile, eps: float):
    """(previous recorded time, crossing time): the true threshold lies in
    this half-open interval."""
    below = np.flatnonzero(profile.tv < eps)
    if len(below) == 0:
        raise GraphError(f"not mixed below {eps} by t_max")
    i = int(below[0])
    lo = int(profile.times[i - 1]) if i > 0 else 0
    return lo, int(profile.times[i])


@dataclass
class MixingSummary:
    start: int
    tmix: dict
    brackets: dict
    cutoff_ratio: float
    window_estimate: int
    profile: TVProfile | None = field(default=None, repr=False, compare=False)

    def as_dict(self):
        return {
            "start": self.start,
            "tmix": {str(k): v for k, v in self.tmix.items()},
            "brackets": {str(k): list(v) for k, v in self.brackets.items()},
            "cutoff_ratio": self.cutoff_ratio,
            "window_estimate": self.window_estimate,
        }


def _eps_grid(eps_grid) -> list:
    """The thresholds a summary reports: eps_grid with 1/4 and 3/4, sorted.
    Each must lie in (0, 1): TV distances lie in [0, 1), so eps <= 0 is
    never reached and eps >= 1 is crossed at t=0."""
    grid = sorted(set(float(e) for e in eps_grid) | {0.25, 0.75})
    for eps in grid:
        if not 0.0 < eps < 1.0:
            raise GraphError(f"eps must lie in (0, 1), got {eps}")
    return grid


def summarize_profile(profile: TVProfile,
                      eps_grid=(0.25, 0.75)) -> MixingSummary:
    grid = _eps_grid(eps_grid)
    tmix = {}
    brackets = {}
    for eps in grid:
        brackets[eps] = mixing_time_bracket(profile, eps)
        tmix[eps] = brackets[eps][1]
    ratio = tmix[0.25] / tmix[0.75] if tmix[0.75] > 0 else float("inf")
    return MixingSummary(start=profile.start, tmix=tmix, brackets=brackets,
                         cutoff_ratio=ratio,
                         window_estimate=tmix[0.25] - tmix[0.75],
                         profile=profile)


def default_starts(g: LeveledGraph) -> list:
    """Representative start set: root, a mid-depth vertex, one vertex on
    each expander-identified level, and a leaf (for leveled builds); vertex
    0 plus a farthest vertex from it otherwise.  A graph with no vertex
    has no start: GraphError."""
    if g.vertex_count == 0:
        raise GraphError("graph has no vertices: no start to walk from")
    h = g.meta.get("h", 0)
    if h and (g.level != UNLEVELED).any():
        wanted = [0, (h + 1) // 2, h + 2, 2 * h + 2, leaf_level(g)]
        out = []
        non_interior = g.role != PATH_INTERIOR
        for lvl in wanted:
            hits = np.flatnonzero((g.level == lvl) & non_interior)
            if len(hits):
                out.append(int(hits[0]))
        return sorted(set(out))
    far = int(np.argmax(bfs_distances(g, 0)))
    return sorted({0, far})


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cutoff_report(g, starts, eps_grid=(0.25, 0.75), t_max=None,
                  laziness=None, stride=1):
    """Per-start mixing summaries (each carrying its profile) plus the
    worst start among them.

    t_max defaults to the t_cap(h, L, n) of the variant's FAMILIES record
    (log_cap for a graph of no family), and laziness to default_laziness:
    both read only the variant, h, L and arcs that a build, its parsed
    graph.ev and a chain all carry.  Every `stride`-th step is recorded.
    g may be a RootChain, with starts [0].

    The starts evolve concurrently, one thread each up to the CPUs this
    process may use (the kernel's numpy and sparse calls release the GIL).
    Results and the first error raised are those of a serial loop over
    `starts` in order; once that first error is raised the starts not yet
    begun are cancelled, and an interrupt waits for the running ones to
    finish.
    """
    if not starts:
        raise GraphError("starts must be nonempty")
    if len(set(starts)) != len(starts):
        raise GraphError(f"starts must be distinct: {list(starts)}")
    if laziness is None:
        laziness = default_laziness(g)
    if t_max is None:
        t_cap = getattr(FAMILIES.get(g.meta.get("variant")), "t_cap", log_cap)
        t_max = t_cap(g.meta.get("h", 0), g.meta.get("L", 0), g.vertex_count)
    min_eps = _eps_grid(eps_grid)[0]
    # built once here, then only read by the workers; a graph's kernel
    # loads scipy's csr_matvec, a chain's needs no scipy
    g.matvec_kernel()
    g.float_degrees()

    def summary(s):
        prof = tv_profile_until(g, s, target=min_eps * 0.98, t_cap=t_max,
                                stride=stride, laziness=laziness)
        return summarize_profile(prof, eps_grid)

    workers = min(len(starts), _usable_cpus())
    if workers == 1:
        summaries = [summary(s) for s in starts]
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(summary, s) for s in starts]
            summaries = [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    worst = max(summaries, key=lambda sm: sm.tmix[0.25])
    return summaries, worst
