"""Fixed reference work that times the host rather than the package.

    python3 perfbench/reference.py     # prints the seconds of one pass

The host this benchmark runs on is shared, and its speed drifts: the same
study took from 19 to 35 s within five minutes (NOTES.md).  run.py runs
this work in a child process before and after every study and scales the
study's times by REF_S over the reference seconds around it, so a slow
period of the host cancels out while a change to the package does not:
nothing here imports it.

The work must stay the same once results are compared.  It runs the ways
the package runs: an interpreted integer loop on one thread, the same loop
split into small tasks on a two-thread pool contending for the GIL (as the
graph-mode hitting sampler does), sparse matrix-vector products over a
random 3-out graph on 80,000 vertices, and dense matrix products through
the BLAS on its threads (as the eigensolves do).  The parts alternate in
ROUNDS short rounds so that host load lands on all of them alike.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
import scipy.sparse as sp

N = 80_000
ROUNDS = 12
LOOP = 1_000_000
TASKS = 200
MATVECS = 300
GEMM_N = 400
GEMMS = 40


def _inputs():
    rng = np.random.default_rng(0)
    rows = np.repeat(np.arange(N), 3)
    cols = rng.integers(0, N, 3 * N)
    a = sp.csr_matrix((np.full(3 * N, 1 / 3), (rows, cols)), shape=(N, N))
    b = rng.random((GEMM_N, GEMM_N)) / GEMM_N
    return a, b


def _loop(n):
    s = 0
    for i in range(n):
        s += i & 7
    return s


def one_round(a, b, pool, loop=LOOP, matvecs=MATVECS, gemms=GEMMS):
    s = _loop(loop)
    s += sum(pool.map(_loop, [loop // TASKS] * TASKS))
    x = np.ones(N)
    for _ in range(matvecs):
        x = a @ x
    y = b
    for _ in range(gemms):
        y = b @ y
    return s, float(x.sum()), float(y.sum())


def seconds() -> float:
    """ROUNDS times the median round: a burst of host load that stalls one
    round does not move it."""
    a, b = _inputs()
    rounds = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        # an untimed tenth of a round starts the pool and the BLAS threads
        one_round(a, b, pool, LOOP // 10, MATVECS // 10, GEMMS // 10)
        for _ in range(ROUNDS):
            t0 = perf_counter()
            one_round(a, b, pool)
            rounds.append(perf_counter() - t0)
    return ROUNDS * statistics.median(rounds)


if __name__ == "__main__":
    print(repr(seconds()))
