"""Exact evolution of walk distributions and total-variation diagnostics.

Distributions are plain float64 vectors indexed by vertex.  One step of
the (optionally lazy) simple random walk is a sparse matvec, so full
profiles on builds with a few hundred thousand vertices take seconds.
The same loop evolves a construction.RootChain, whose vector holds the
mass of each class and is compared with the chain's `stationary` shares,
so root profiles of the cubic and five_regular families cost microseconds
per step at any height.

step is one call of the walked object's transition kernel P^T = A D^-1
(`matvec_kernel()`): a graph runs scipy's compiled csr_matvec, loaded
without importing scipy.sparse, on its CSR arrays with weights 1/deg, and
a chain a numpy row sum over the arcs of its CSR multigraph, bit-identical
to csr_matvec.  Nothing here imports scipy, so a chain walks without it.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from queue import SimpleQueue

import numpy as np

from .construction import FAMILIES, RootChain, leaf_level, log_cap
from .graphs import (GraphError, LeveledGraph, PATH_INTERIOR, UNLEVELED,
                     bfs_distances, is_bipartite)

# A profile renormalizes the walk at a record where its mass strays from 1
# by more than RENORM_TOL.  A step scales the mass by a factor within
# 1 +- eta, eta = (d_max + 4) 2^-53 for d_max the longest row of the
# kernel: each entry is a nonnegative sum of at most d_max rounded products
# with weights fl(1/deg), and a lazy step adds three roundings (Higham,
# Accuracy and Stability of Numerical Algorithms, section 4.2).  So no
# renormalization fires in the first RENORM_TOL / eta steps, 1.3 10^6 at
# degree 3.
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
    """One step of the walk, one call of g's transition kernel:
    p'(v) = laziness p(v) + (1 - laziness) sum_{u ~ v} p(u)/deg(u).

    p is a vector of length n, g's vertex count (a RootChain's vectors
    have one entry per state); any other shape is a GraphError, as a
    graph's kernel checks no lengths.  The result goes into `out`; `work`
    is scratch for laziness > 0 only.  Each is allocated when needed and
    not given (contiguous float64 of length n, distinct from p and from
    each other).  Returns `out`.  For nonnegative p the step scales the
    mass sum(p) by a factor within 1 +- (d_max + 4) 2^-53 (RENORM_TOL)."""
    if not (0.0 <= laziness <= 0.5):
        raise GraphError("laziness must lie in [0, 1/2]")
    kernel = g.matvec_kernel()
    n = len(g.indptr) - 1
    if np.shape(p) != (n,):
        raise GraphError(f"walk vector p must have shape ({n},), got "
                         f"{np.shape(p)}")
    out = _walk_buffer(out, n)
    work = _walk_buffer(work, n) if work is not None or laziness else None
    # p is read after out and work are written
    if (np.may_share_memory(out, p) or np.may_share_memory(work, p)
            or np.may_share_memory(out, work)):
        raise GraphError("walk buffers out and work must not overlap p or "
                         "each other")
    kernel(p, out)
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
    return min(1.0, 0.5 * float(np.add.reduce(work)))


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
                     laziness=0.0, buffers=None) -> TVProfile:
    """The evolution loop behind every profile: records the TV distance to
    uniform every `stride` steps and at t_cap, and stops at the first
    record below `target` (errors if t_cap comes first).  target=None
    runs to t_cap.  g is a LeveledGraph, or a RootChain evolved from the
    root (start 0) as class masses against its `stationary` law.
    `buffers`, two distinct contiguous float64 vectors with one entry per
    vertex (or class), three when laziness > 0, are the walk's; allocated
    when not given, and a GraphError when of another length or type.  The
    TV reduction's scratch is the next step's output.

    A record renormalizes p when its mass sum(p) strays from 1 by more than
    RENORM_TOL.  The mass is measured only at records where the drift
    bound stated at RENORM_TOL (a factor 1 +- eta a step) cannot keep it
    within RENORM_TOL / 2 of 1: after a measured drift d the next measure
    comes (RENORM_TOL / 2 - d) / eta steps later, or at the next record
    when d >= RENORM_TOL / 2; the other half of RENORM_TOL covers the
    rounding of the sum itself.  Every skipped record would pass the test,
    so the profile is the one a measure at every record gives, bit for
    bit."""
    if t_cap < 0:
        raise GraphError("t_max must be >= 0")
    n = g.vertex_count
    if not 0 <= start < n:
        raise GraphError(f"start {start} is not a vertex (n={n})")
    stride = int(stride)
    if stride < 1:
        raise GraphError(f"stride must be >= 1, got {stride}")
    pi = None
    if isinstance(g, RootChain):
        # the mass of each class; vertex 0 is the root class
        if start != 0:
            raise GraphError("a root chain evolves the walk from vertex 0 only")
        n, pi = g.state_count, g.stationary
    if buffers is None:
        buffers = [None] * (3 if laziness else 2)
    p, q, *work = (_walk_buffer(buf, n) for buf in buffers)
    p.fill(0.0)
    p[start] = 1.0
    # one float per record: record i is at time min(i * stride, t_cap)
    tv = array("d", [tv_to_uniform(p, q, pi)])
    renorms = 0
    t = 0
    tol = RENORM_TOL
    eta = (int(np.diff(g.indptr).max()) + 4) * 2.0 ** -53
    # the point mass has mass 1 exactly
    next_check = tol / 2 / eta
    while t < t_cap and (target is None or tv[-1] >= target):
        for _ in range(min(stride, t_cap - t)):
            t += 1
            step(g, p, laziness, q, *work)
            p, q = q, p
        if t >= next_check:
            mass = p.sum()
            drift = abs(mass - 1.0)
            if drift > tol:
                p /= mass
                renorms += 1
            next_check = t + (tol / 2 - drift) / eta
        tv.append(tv_to_uniform(p, q, pi))
    if target is not None and tv[-1] >= target:
        raise GraphError(f"not mixed below {target} by t_max={t_cap}")
    times = np.arange(len(tv), dtype=np.int64) * stride
    np.minimum(times, t_cap, out=times)
    return TVProfile(start=int(start), times=times, tv=np.array(tv),
                     laziness=laziness, stride=stride,
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
    size = len(g.indptr) - 1

    workers = min(len(starts), _usable_cpus())
    # one set of walk buffers per worker, allocated in this thread: buffers
    # a worker thread allocated would come from its own malloc arena, which
    # keeps what they freed from the rest of the process
    free = SimpleQueue()
    for _ in range(workers):
        free.put([np.empty(size) for _ in range(3 if laziness else 2)])

    def summary(s):
        buffers = free.get()
        try:
            prof = tv_profile_until(g, s, target=min_eps * 0.98, t_cap=t_max,
                                    stride=stride, laziness=laziness,
                                    buffers=buffers)
        finally:
            free.put(buffers)
        return summarize_profile(prof, eps_grid)

    if workers == 1:
        summaries = [summary(s) for s in starts]
    else:
        # imported here: it also loads logging, which one start never needs
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(summary, s) for s in starts]
            summaries = [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    worst = max(summaries, key=lambda sm: sm.tmix[0.25])
    return summaries, worst
