"""Trajectory sampling: hitting times to the leaf level, one-dimensional
passage oracles, bimodality detection, and the descent chain.

The descent chain is the walk from the root lumped onto the classes of
construction.class_chain, with the leaf classes absorbing.  On an
equitable partition the class of the walk is a Markov chain, so hitting
times to the leaves drawn from it follow the same law as on the full
graph, at any h, without materializing the graph.  The chain draws them
by inverting that law rather than by walking: one uniform U in (0, 1] per
sample, and T = min{t : S(t) < U} for the exact survival S, evolved only
until it falls below the smallest U, through the class chain's row-sum
kernel (at most 3 nonzeros per state); this costs O(T_tail * nnz +
samples * log T_tail) against O(samples * mean T) for walking.
walk_frontier stays the one trajectory sampler, for graphs and the
one-dimensional oracles.

For the uneven-stretch variant the classes also tag the stretch regime
the walk descended into and carry the tag through the lower bands,
although H1's matching joins band-2 interiors of both regimes.  The law
is exact for cubic and five_regular; measured max |ΔS| 2.6e-3 on
no_cutoff h=2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

import numpy as np

from . import rng
from .construction import ConstructionParams, class_chain
from .graphs import LEAF, UNLEVELED, GraphError, LeveledGraph, bfs_distances

STEP_CAP = 10 ** 9


# ---------------------------------------------------------------------------
# summary statistics

QUANTS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass
class HittingStats:
    samples: np.ndarray
    mean: float
    stddev: float
    quantiles: dict
    predicted: float | None = None

    def stderr(self) -> float:
        return self.stddev / np.sqrt(len(self.samples))

    def as_dict(self):
        return {
            "count": int(len(self.samples)),
            "mean": self.mean,
            "stddev": self.stddev,
            "quantiles": {str(q): v for q, v in self.quantiles.items()},
            "predicted": self.predicted,
        }


def hitting_stats(samples, predicted=None) -> HittingStats:
    s = np.asarray(samples, dtype=np.int64)
    if len(s) == 0:
        raise GraphError("no samples")
    qs = {q: float(np.quantile(s, q)) for q in QUANTS}
    return HittingStats(samples=s, mean=float(s.mean()),
                        stddev=float(s.std(ddof=1)) if len(s) > 1 else 0.0,
                        quantiles=qs, predicted=predicted)


# ---------------------------------------------------------------------------
# the absorbing-walk sampler


def _csr(rows):
    """(indptr, indices) of a multigraph given as one successor list per
    state; a state listed k times among d successors has probability k/d."""
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.array([t for r in rows for t in r], dtype=np.int64)
    return indptr, indices


def walk_frontier(indptr, indices, absorbing, start, num_samples, seed):
    """Simple random walks on the CSR multigraph (indptr, indices), one per
    trajectory id 0..num_samples-1, all from `start`, each stopped on its
    first arrival in an `absorbing` state.

    Yields (t, ids that took step t, their new states).  Step t draws
    rng.stream(seed, t).random(max alive id + 1) and gives uniform u[i] to
    trajectory i, which moves to indices[indptr[s] + floor(u[i] deg(s))];
    so the first k trajectories do not depend on num_samples.  A
    trajectory that has to leave a state of degree 0, or that is still
    walking after STEP_CAP steps, is a GraphError.
    """
    n = len(indptr) - 1
    if not 0 <= start < n:
        raise GraphError(f"start {start} is not a state (n={n})")
    deg = np.diff(indptr)
    stuck = (deg == 0) & ~np.asarray(absorbing, dtype=bool)
    check_stuck = bool(stuck.any())
    state = np.full(num_samples, start, dtype=np.int64)
    alive = np.arange(0 if absorbing[start] else num_samples)
    t = 0
    while alive.size:
        if t == STEP_CAP:
            raise GraphError(f"step cap {STEP_CAP} exceeded")
        t += 1
        u = rng.stream(seed, t).random(int(alive[-1]) + 1)[alive]
        s = state[alive]
        if check_stuck and stuck[s].any():
            raise GraphError(f"state {s[stuck[s].argmax()]} has no edge to "
                             f"leave by and is not absorbing")
        nxt = indices[indptr[s] + (u * deg[s]).astype(np.int64)]
        state[alive] = nxt
        yield t, alive, nxt
        alive = alive[~absorbing[nxt]]


def _transient_matrix(indptr, indices, absorbing) -> np.ndarray:
    """The dense transition matrix of the walk walk_frontier samples on
    (indptr, indices), restricted to the non-absorbing states in order:
    the entries of each row are counted, then divided once by its degree."""
    keep = np.flatnonzero(~absorbing)
    pos = np.full(len(absorbing), -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(len(deg)), deg)
    inside = (pos[rows] >= 0) & (pos[indices] >= 0)
    q = np.zeros((len(keep), len(keep)))
    np.add.at(q, (pos[rows[inside]], pos[indices[inside]]), 1.0)
    q /= deg[keep][:, None]
    return q


def _solve_no_pivoting(a, b) -> np.ndarray:
    """x with a x = b by Gaussian elimination in the given order, in numpy
    alone: a small LAPACK solve is slow under a multi-threaded BLAS.  With
    a = I - Q for a substochastic Q, a is row diagonally dominant, so
    elimination without pivoting is stable.  Each pivot updates only the
    rows below it that have an entry in its column, few when Q's rows have
    few nonzeros."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for k in range(n):
        rows = k + 1 + np.flatnonzero(a[k + 1:, k])
        if rows.size:
            f = a[rows, k] / a[k, k]
            a[rows, k:] -= f[:, None] * a[k, k:]
            b[rows] -= f * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - (a[k, k + 1:] * x[k + 1:]).sum()) / a[k, k]
    return x


def _absorption_times(walk, num_samples) -> np.ndarray:
    times = np.zeros(num_samples, dtype=np.int64)
    for t, ids, _ in walk:
        times[ids] = t
    return times


def sample_hitting_times(g, start, num_samples, seed) -> HittingStats:
    """Steps of num_samples independent simple random walks from `start`
    until their first arrival at the leaf level; deterministic in (graph,
    start, seed) and independent of batching.  A start from which no leaf
    is reachable is a GraphError, raised before any step is taken."""
    leaf = g.role == LEAF
    if (0 <= start < g.vertex_count
            and not leaf[bfs_distances(g, start) >= 0].any()):
        raise GraphError(f"no leaf vertex is reachable from start {start}")
    walk = walk_frontier(g.indptr, g.indices, leaf, start, num_samples, seed)
    return hitting_stats(_absorption_times(walk, num_samples))


# ---------------------------------------------------------------------------
# hitting-time prediction for the 5-regular family


def predicted_tau(alpha: float, h: int, L: int) -> float:
    """Leading-order hitting time to the leaves from relative level
    alpha = s/h: (5/3)[L(5L-3)(1 - alpha/2) + 1] h below alpha = 2 and
    (5/3)(3 - alpha) h above; the branches agree at alpha = 2."""
    if not (0.0 <= alpha <= 3.0):
        raise GraphError("alpha must lie in [0, 3]")
    if alpha <= 2.0:
        return (5.0 / 3.0) * (L * (5 * L - 3) * (1.0 - alpha / 2.0) + 1.0) * h
    return (5.0 / 3.0) * (3.0 - alpha) * h


def stretched_edge_delay(L: int) -> float:
    """Expected level-process delay across one stretched edge:
    (5/2)(L^2 - L) + L = L(5L - 3)/2."""
    if L < 1:
        raise GraphError("L must be >= 1")
    return L * (5 * L - 3) / 2.0


# ---------------------------------------------------------------------------
# one-dimensional oracles


def _path_chain(L):
    """The walk on positions -L..L (state i is position i - L), absorbed
    at +-L: (indptr, indices, absorbing)."""
    if L < 1:
        raise GraphError("L must be >= 1")
    rows = [[i - 1, i + 1] for i in range(2 * L + 1)]
    rows[0] = rows[2 * L] = []
    indptr, indices = _csr(rows)
    return indptr, indices, np.diff(indptr) == 0


def path_passage_oracle(L, num_samples, seed):
    """Simple random walk from 0 absorbed at +-L: sample means of the
    absorption time and of the visits to 0 (counting the start)."""
    indptr, indices, absorbing = _path_chain(L)
    time = np.zeros(num_samples, dtype=np.int64)
    visits = np.ones(num_samples, dtype=np.int64)
    for t, ids, states in walk_frontier(indptr, indices, absorbing,
                                        L, num_samples, seed):
        time[ids] = t
        visits[ids[states == L]] += 1
    return float(time.mean()), float(visits.mean())


def path_passage_exact(L):
    """Absorbing-chain solve for the same quantities, on the chain
    path_passage_oracle walks: expected absorption time from 0 and
    expected visits to 0."""
    q = _transient_matrix(*_path_chain(L))
    m = np.eye(len(q)) - q
    center = L - 1                        # position 0 among the transients
    times = _solve_no_pivoting(m, np.ones(len(q)))
    visits = _solve_no_pivoting(m, (np.arange(len(q)) == center).astype(float))
    return float(times[center]), float(visits[center])


def stretched_edge_delay_mc(L, num_samples, seed):
    """Monte Carlo mean of the stretched-edge delay: the +-L walk with a
    3/5 laziness at interior positions and none at the origin."""
    # state i is position i - L
    rows = [[i, i, i, i - 1, i + 1] for i in range(2 * L + 1)]
    rows[0] = rows[2 * L] = []
    rows[L] = [L - 1, L + 1]
    indptr, indices = _csr(rows)
    walk = walk_frontier(indptr, indices, np.diff(indptr) == 0, L,
                         num_samples, seed)
    return float(_absorption_times(walk, num_samples).mean())


# ---------------------------------------------------------------------------
# general absorbing-chain oracle (small graphs)


def absorbing_mean_hitting(g: LeveledGraph, start: int, targets) -> float:
    """Exact expected hitting time of `targets` from `start` by a dense
    linear solve on the transient states of the start's component;
    intended for oracle-sized graphs.  A start or target that is not a
    vertex, and a start from which no target is reachable, is a
    GraphError."""
    n = g.vertex_count
    targets = np.asarray(list(targets), dtype=np.int64)
    if not 0 <= start < n:
        raise GraphError(f"start {start} is not a vertex (n={n})")
    bad = targets[(targets < 0) | (targets >= n)]
    if bad.size:
        raise GraphError(f"target {bad[0]} is not a vertex (n={n})")
    target_mask = np.zeros(n, dtype=bool)
    target_mask[targets] = True
    if target_mask[start]:
        return 0.0
    reached = bfs_distances(g, start) >= 0
    if not target_mask[reached].any():
        raise GraphError(f"no target is reachable from start {start}")
    # states outside the component are left out of Q like the targets
    absorbing = target_mask | ~reached
    q = _transient_matrix(g.indptr, g.indices, absorbing)
    h = _solve_no_pivoting(np.eye(len(q)) - q, np.ones(len(q)))
    return float(h[np.count_nonzero(~absorbing[:start])])


def cylinder_passage_oracle(gadget: LeveledGraph, num_samples, seed) -> float:
    """Mean first-passage time between the two ports (vertices 0 and 1) of
    a standalone cylinder gadget."""
    walk = walk_frontier(gadget.indptr, gadget.indices,
                         np.arange(gadget.vertex_count) == 1, 0,
                         num_samples, seed)
    return float(_absorption_times(walk, num_samples).mean())


def cylinder_passage_exact(gadget: LeveledGraph) -> float:
    return absorbing_mean_hitting(gadget, 0, [1])


# ---------------------------------------------------------------------------
# bimodality detection


@dataclass
class BimodalityReport:
    flag: bool
    cluster_means: tuple
    cluster_weights: tuple
    separation: float
    split_value: float


_SPLIT_GRID = 200
_SPLIT_WINDOW = (0.2, 0.8)


def bimodality_check(stats: HittingStats) -> BimodalityReport:
    """Two-cluster split at the widest empirical gap, measured on a
    quantile grid restricted to the central 60% of the mass (quantile
    spacing stays informative on integer-valued samples, where raw order
    statistics tie).  Flags bimodal when both cluster weights lie in
    [0.35, 0.65] and the cluster means differ by more than twice the
    pooled within-cluster standard deviation.  On unimodal data the widest
    central spacing sits at the window edge, so the weights criterion
    rejects it."""
    s = np.sort(np.asarray(stats.samples, dtype=np.float64))
    n = len(s)
    if n < 1000:
        raise GraphError("bimodality check needs at least 1000 samples")
    lo, hi = _SPLIT_WINDOW
    js = np.arange(int(np.ceil(lo * _SPLIT_GRID)),
                   int(np.floor(hi * _SPLIT_GRID)) + 1)
    qs = np.quantile(s, js / _SPLIT_GRID)
    k = int(np.argmax(np.diff(qs)))
    split = float((qs[k] + qs[k + 1]) / 2.0)
    left, right = s[s <= split], s[s > split]
    w = (len(left) / n, len(right) / n)
    # an empty cluster (every sample equal) has no mean
    means = tuple(float(c.mean()) if len(c) else float("nan")
                  for c in (left, right))
    v_left = float(left.var(ddof=1)) if len(left) > 1 else 0.0
    v_right = float(right.var(ddof=1)) if len(right) > 1 else 0.0
    pooled = np.sqrt(((len(left) - 1) * v_left + (len(right) - 1) * v_right)
                     / max(1, n - 2))
    separation = (means[1] - means[0]) / pooled if pooled > 0 else float("inf")
    flag = (0.35 <= w[0] <= 0.65) and separation > 2.0
    return BimodalityReport(flag=bool(flag), cluster_means=means,
                            cluster_weights=w, separation=float(separation),
                            split_value=split)


def hitting_mixing_ratio(stats: HittingStats) -> float:
    """Quantile ratio Q75/Q25 of the hitting time: a coarse stand-in for
    the mixing-time ratio on no_cutoff builds too large for exact
    evolution (the walk mixes shortly after first reaching the leaf
    level).  Cubic and five_regular root profiles are exact at any h from
    construction.root_chain."""
    q25 = stats.quantiles[0.25]
    if q25 <= 0:
        return float("inf")
    return stats.quantiles[0.75] / q25


# ---------------------------------------------------------------------------
# the leaf-hitting chain


class DescentChain:
    """The walk from the root of a cubic, five_regular or no_cutoff build
    lumped onto classes (construction.class_chain), with the leaf classes
    absorbing: its hitting time of the leaf level.

    State c moves to c' with probability counts[c, c'] / degree, the share
    of c' in row c of the class chain's CSR multigraph (classes.indptr,
    classes.indices), which walk_frontier walks as it is.  survival steps
    its class masses through the class chain's matvec_kernel (counts^T),
    sample inverts it, and only exact_mean builds the dense transient Q,
    the one k x k array of either chain.  The law is exact for cubic and
    five_regular; no_cutoff's regime tags are an approximation.
    """

    def __init__(self, classes):
        self.classes = classes
        self._absorbing = np.zeros(classes.state_count, dtype=bool)
        self._absorbing[list(classes.leaves)] = True

    @cached_property
    def _q(self) -> np.ndarray:
        return _transient_matrix(self.classes.indptr, self.classes.indices,
                                 self._absorbing)

    @property
    def size(self):
        return self.classes.state_count

    def _point_mass(self, start) -> np.ndarray:
        if not 0 <= start < self.size:
            raise GraphError(f"start {start} is not a state (n={self.size})")
        return (np.arange(self.size) == start).astype(float)

    def _survivals(self, start):
        """S(0), S(1), ...: the class mass of the walk from `start` not yet
        absorbed, evolved by the class chain's row-sum kernel with the leaf
        classes zeroed before each reading; the one loop behind survival
        and sample.  Once S falls below the smallest normal double it is 0
        from then on: subnormal masses lose their relative precision, so S
        stalled and even rose there, and each subnormal step was slow."""
        mass = self._point_mass(start)
        kernel = self.classes.matvec_kernel()
        work = np.empty(self.size)
        tiny = np.finfo(float).tiny
        while True:
            mass[self._absorbing] = 0.0
            s = mass.sum()
            if s < tiny:
                yield from repeat(0.0)
            yield s
            np.divide(mass, self.classes.degree, out=work)
            kernel(work, mass)

    def sample(self, num_samples, seed, start=0) -> np.ndarray:
        """Hitting times of the leaf level for num_samples trajectories,
        drawn by inverting the exact law.  Sample i takes U_i = 1 - u_i
        from u = rng.stream(seed, 0).random(num_samples), so U_i lies in
        (0, 1] and no draw needs an unbounded walk, and is
        T_i = min{t : S(t) < U_i}, with S the survival from `start` as a
        running minimum; then P(T_i > t) = S(t).  S is evolved only until
        it falls below min U, at T_tail, so the cost is
        O(T_tail * nnz + num_samples * log T_tail), and the first k
        samples do not depend on num_samples.  Raises GraphError when a
        sample needs more than STEP_CAP steps."""
        u = 1.0 - rng.stream(seed, 0).random(num_samples)
        floor = u.min(initial=np.inf)
        surv, s_min = [], np.inf
        for t, s in enumerate(self._survivals(start)):
            s_min = min(s_min, s)
            surv.append(s_min)
            if s_min < floor:
                break
            if t == STEP_CAP:
                raise GraphError(f"step cap {STEP_CAP} exceeded")
        return np.searchsorted(-np.asarray(surv), -u,
                               side="right").astype(np.int64, copy=False)

    def exact_mean(self, start=0) -> float:
        """Expected hitting time of the leaf level: (I - Q) h = 1, solved
        by numpy elimination (no LAPACK)."""
        e = self._point_mass(start)[~self._absorbing]
        if not e.any():
            return 0.0
        h = _solve_no_pivoting(np.eye(len(e)) - self._q, np.ones(len(e)))
        return float(e @ h)

    def survival(self, t_max, start=0) -> np.ndarray:
        """Exact P(hitting time > t) for t = 0..t_max."""
        return np.fromiter(islice(self._survivals(start), t_max + 1),
                           dtype=float, count=t_max + 1)


def descent_chain(params: ConstructionParams) -> DescentChain:
    """The leaf-hitting chain of a cubic, five_regular or no_cutoff build."""
    return DescentChain(class_chain(params))


def chain_start(chain: DescentChain, start_level=0) -> int:
    """The first class of tree nodes at `start_level`."""
    levels = np.asarray(chain.classes.levels)
    nodes = np.flatnonzero((levels == int(start_level))
                           & (levels != UNLEVELED))
    if len(nodes) == 0:
        raise GraphError(f"no node state at level {start_level}")
    return int(nodes[0])
