"""The root-class chain against the builds it lumps: equal TV profiles,
equal summaries, an equitable partition, its invariants at any h, and its
absorbing form's leaf-hitting law."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse._sparsetools import csr_matvec

from expander_cutoff.construction import (
    ConstructionParams,
    build,
    class_chain,
    family_vertex_count,
    root_chain,
)
from expander_cutoff.graphs import LEAF, GraphError, is_bipartite
from expander_cutoff.mixing import (
    cutoff_report,
    default_laziness,
    point_mass,
    summarize_profile,
    tv_profile_until,
    tv_to_uniform,
)
from expander_cutoff.montecarlo import _solve_no_pivoting, descent_chain

# cubic L=1 has no cross edge on an interior and is bipartite
SMALL = [("cubic", 3, 2), ("cubic", 3, 3), ("five_regular", 2, 1),
         ("five_regular", 2, 2), ("cubic", 1, 2)]
# builds conftest already holds, with the same expander seeds
SHARED = {("five_regular", 2, 1): "five_reg_h1",
          ("five_regular", 2, 2): "five_reg_h2"}


@functools.lru_cache(maxsize=None)
def _built(variant, L, h):
    return build(ConstructionParams(h=h, L=L, variant=variant))


@pytest.fixture
def g(request, variant, L, h):
    name = SHARED.get((variant, L, h))
    return request.getfixturevalue(name) if name else _built(variant, L, h)


def chain(variant, L, h):
    return root_chain(ConstructionParams(h=h, L=L, variant=variant))


def _counts(c):
    """counts[a, b]: the neighbours in class b of every vertex of class a,
    filled from the chain's arcs into a dense k x k array that only the
    tests build."""
    k = c.state_count
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(k), np.diff(c.indptr)),
                       c.indices), 1)
    return counts


@pytest.mark.parametrize("laziness", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("variant, L, h", SMALL)
def test_chain_tv_equals_materialized(g, variant, L, h, laziness):
    c = chain(variant, L, h)
    exact = tv_profile_until(g, 0, None, 1000, stride=1, laziness=laziness)
    lumped = tv_profile_until(c, 0, None, 1000, stride=1, laziness=laziness)
    assert np.array_equal(lumped.times, exact.times)
    assert np.abs(lumped.tv - exact.tv).max() < 1e-12


@pytest.mark.parametrize("variant, L, h", SMALL)
def test_chain_summary_equals_materialized(g, variant, L, h):
    c = chain(variant, L, h)
    assert sum(c.sizes) == c.vertex_count == g.vertex_count
    assert c.vertex_count == family_vertex_count(variant, h, L)
    assert is_bipartite(c) == g.meta["bipartite"]
    assert default_laziness(c) == default_laziness(g)
    assert c.meta == {k: g.meta[k] for k in ("variant", "h", "L")}
    (s_chain,), _ = cutoff_report(c, [0], stride=1)
    (s_build,), _ = cutoff_report(g, [0], stride=1)
    assert s_chain.tmix == s_build.tmix
    assert s_chain.brackets == s_build.brackets
    assert s_chain.as_dict() == s_build.as_dict()


def _refine(keys):
    """Canonical colours: key rows ranked in lexicographic order."""
    rows, colours = np.unique(keys, axis=0, return_inverse=True)
    return rows, colours.ravel()


@pytest.mark.parametrize("variant, L, h", SMALL)
def test_chain_classes_are_an_equitable_partition(g, variant, L, h):
    """Colour refinement from {root}, run on the build and on the chain in
    lockstep with canonical colours, ends in the chain's classes; then
    every vertex of class c has exactly counts[c, c'] neighbours in c'."""
    c = chain(variant, L, h)
    d = c.degree
    nbrs = g.indices.reshape(-1, d)
    # a state's neighbour classes, one entry per neighbour, as in the graph
    state_nbrs = c.indices.reshape(-1, d)
    vertex_colour = (np.arange(g.vertex_count) == 0).astype(np.int64)
    state_colour = (np.arange(c.state_count) == 0).astype(np.int64)
    while True:
        rows_g, new_vertex = _refine(np.column_stack(
            [vertex_colour, np.sort(vertex_colour[nbrs], axis=1)]))
        rows_c, new_state = _refine(np.column_stack(
            [state_colour, np.sort(state_colour[state_nbrs], axis=1)]))
        assert np.array_equal(rows_g, rows_c)
        stable = new_vertex.max() == vertex_colour.max()
        vertex_colour, state_colour = new_vertex, new_state
        if stable:
            break
    # every state is its own colour, so colours name states one to one
    assert len(set(state_colour.tolist())) == c.state_count
    state_of = np.argsort(state_colour)[vertex_colour]
    assert np.bincount(state_of).tolist() == list(c.sizes)
    per_class = np.zeros((g.vertex_count, c.state_count), dtype=np.int64)
    np.add.at(per_class, (np.repeat(np.arange(g.vertex_count), d),
                          state_of[nbrs].ravel()), 1)
    assert np.array_equal(per_class, _counts(c)[state_of])


@settings(max_examples=60, deadline=None, database=None)
@given(variant=st.sampled_from(["cubic", "five_regular"]),
       h=st.integers(1, 40), L=st.integers(1, 6))
def test_chain_invariants_at_any_height(variant, h, L):
    c = chain(variant, L, h)
    counts = _counts(c)
    assert (counts.sum(axis=1) == c.degree).all()
    sizes = list(c.sizes)
    for a, b in zip(*np.nonzero(counts)):
        assert sizes[a] * int(counts[a, b]) == sizes[b] * int(counts[b, a])
    assert sum(sizes) == family_vertex_count(variant, h, L)
    assert is_bipartite(c) == (variant == "cubic" and L == 1)


def test_chain_rejects_other_variants_and_starts():
    with pytest.raises(GraphError, match="no root chain"):
        root_chain(ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
    with pytest.raises(GraphError, match="vertex 0 only"):
        tv_profile_until(chain("cubic", 3, 2), 1, None, 10)


@settings(max_examples=60, deadline=None, database=None)
@given(variant=st.sampled_from(["cubic", "five_regular", "no_cutoff"]),
       h=st.integers(1, 40), L=st.integers(1, 6), seed=st.integers(0, 2**32),
       scale=st.sampled_from([1.0, 1e-200, 1e100]))
def test_chain_kernel_equals_csr_matvec(variant, h, L, seed, scale):
    """The chain's numpy row sum is bit-identical to scipy's csr_matvec on
    adjacency_csr() (counts^T) with its data divided by the degree, the
    transition product, and its TV to the formula with the chain's
    stationary class masses."""
    if variant == "no_cutoff":
        h += h % 2
    c = class_chain(ConstructionParams(h=h, L=L, variant=variant,
                                       L_prime=L + 1))
    k = c.state_count
    x = np.random.default_rng(seed).random(k) * scale
    out, ref = np.full(k, np.nan), np.zeros(k)
    c.matvec_kernel()(x, out)
    a = c.adjacency_csr()
    counts = _counts(c)
    assert np.array_equal(a.toarray(), counts.T)
    csr_matvec(k, k, a.indptr, a.indices, a.data / c.degree, x, ref)
    assert np.array_equal(out, ref)
    assert (np.count_nonzero(counts, axis=0) <= 3).all()
    work = np.empty(k)
    exact = 0.5 * float(np.abs(x - c.stationary).sum())
    # x is no distribution, so the formula may exceed the clamp at 1
    assert tv_to_uniform(x, work, c.stationary) == min(1.0, exact)


def test_stationary_is_the_exact_class_share():
    # the float64 sum of these chains' class sizes rounds n differently
    # from float(n), and with it the root's point mass read TV above 1
    # (1.0000000000000002) at cubic h=31; each stationary[c] is
    # sizes[c] / n rounded once from the exact integers
    for variant, L, h in (("cubic", 1, 31), ("five_regular", 4, 13)):
        c = chain(variant, L, h)
        for size, share in zip(c.sizes, c.stationary.tolist()):
            error = abs(Fraction(share) - Fraction(size, c.vertex_count))
            assert error <= Fraction(math.ulp(share)) / 2
        assert tv_to_uniform(point_mass(c.state_count, 0), None,
                             c.stationary) <= 1.0


def test_chain_holds_past_the_float_range():
    # n > 2^1024 from cubic L=3 h=341: no float holds n or a class size.
    # The root's point mass is at TV 1 - 1/n from stationarity, which
    # rounds to 1.0; after 200 steps the walk's classes hold a share
    # below 2^-950 of n, and the TV still reads 1 up to the mass's rounding
    c = chain("cubic", 3, 341)
    assert c.vertex_count == family_vertex_count("cubic", 341, 3)
    assert c.vertex_count.bit_length() > 1024
    assert abs(c.stationary.sum() - 1.0) < 1e-12
    assert tv_to_uniform(point_mass(c.state_count, 0), None,
                         c.stationary) <= 1.0
    prof = tv_profile_until(c, 0, None, 200)
    assert prof.renormalizations == 0
    assert np.abs(prof.tv - 1.0).max() < 1e-12
    # the masses' rounding read 1 + 4.4e-16 before tv_to_uniform clamped it
    assert prof.tv.max() <= 1.0


def test_chain_memory_is_linear_in_the_states():
    # k = 3,755 classes at cubic L=3 h=341: a dense k x k int64 count
    # matrix alone would be 113 MB, the CSR multigraph is 3k indices
    params = ConstructionParams(h=341, L=3, variant="cubic")
    tracemalloc.start()
    try:
        class_chain(params)
        descent_chain(params).survival(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_profile_rejects_bad_stride_and_eps():
    c = chain("cubic", 3, 2)
    for stride in (0, -5):
        with pytest.raises(GraphError, match=f"stride must be >= 1, got {stride}"):
            tv_profile_until(c, 0, None, 10, stride=stride)
    prof = tv_profile_until(c, 0, None, 2000, stride=1)
    for eps in (0.0, 1.0, 2.0, -0.25, float("nan")):
        with pytest.raises(GraphError, match="eps must lie in"):
            summarize_profile(prof, (0.5, eps))
        # refused before any step is taken
        with pytest.raises(GraphError, match="eps must lie in"):
            cutoff_report(c, [0], eps_grid=(eps,), t_max=10**9)


def _absorbing_survival(g, t_max):
    """P(no leaf by step t) for the walk from vertex 0, evolved on g."""
    adj, inv_deg = g.adjacency_csr(), 1.0 / g.degrees()
    leaf = g.role == LEAF
    x = (np.arange(g.vertex_count) == 0).astype(float)
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        x[leaf] = 0.0
        out[t] = x.sum()
        x = adj @ (x * inv_deg)
    return out


@pytest.mark.parametrize("variant, L, h", SMALL)
def test_survival_equals_absorbing_evolution(g, variant, L, h):
    chain = descent_chain(ConstructionParams(h=h, L=L, variant=variant))
    exact = _absorbing_survival(g, 1500)
    assert np.abs(chain.survival(1500) - exact).max() < 1e-12


def test_survival_no_cutoff_tags_are_close(no_cutoff_h2):
    # the regime tags are not an equitable partition: H1 matches band-2
    # interiors across regimes.  Measured max |dS| is 2.6e-3, at t = 74.
    chain = descent_chain(
        ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
    exact = _absorbing_survival(no_cutoff_h2, 1500)
    assert np.abs(chain.survival(1500) - exact).max() < 0.01


def _counts_solves(chain, t_max):
    """Mean from Q = counts / degree on the transient classes, the entries
    the CSR the sampler walks must reproduce, by the elimination
    exact_mean runs (test_chain_exact_mean_matches_lapack checks it
    against LAPACK); survival from class masses stepped by
    (counts / degree)^T m, each entry summed over its nonzero terms in
    class order from 0.0, the order the row-sum kernel sums in."""
    classes = chain.classes
    counts, k = _counts(classes), classes.state_count
    leaf = np.isin(np.arange(k), classes.leaves)
    q = (counts / classes.degree)[np.ix_(~leaf, ~leaf)]
    mean = _solve_no_pivoting(np.eye(len(q)) - q, np.ones(len(q)))[0]
    terms = [np.flatnonzero(counts[:, d]) for d in range(k)]
    mass = point_mass(k, 0)
    surv = np.empty(t_max + 1)
    for t in range(t_max + 1):
        mass[leaf] = 0.0
        surv[t] = mass.sum()
        mass = np.array([sum((counts[c, d] / classes.degree * mass[c]
                              for c in terms[d]), 0.0) for d in range(k)])
    return float(mean), surv


def test_exact_means_at_reference_sizes():
    # the hand-wired five_regular chain this one replaced gave 1822.27777...
    five = descent_chain(ConstructionParams(h=16, L=4))
    assert five.size == 147
    assert five.exact_mean() == pytest.approx(1822.2777777762506, rel=1e-9)
    # sparse solve of (I - Q) h = 1 on the materialized cubic h=4 L=3 build
    cubic = descent_chain(ConstructionParams(h=4, L=3, variant="cubic"))
    assert cubic.exact_mean() == pytest.approx(416.6828613281203, rel=1e-9)
    for c in (five, cubic):
        mean, surv = _counts_solves(c, 300)
        assert c.exact_mean() == mean
        assert np.array_equal(c.survival(300), surv)


def _dense_survival(chain, t_max):
    """The survival as a row vector over the transient classes times the
    dense Q = counts / degree, one step at a time: how the descent chain
    evolved it before it shared the row-sum kernel."""
    keep = ~chain._absorbing
    q = (_counts(chain.classes) / chain.classes.degree)[np.ix_(keep, keep)]
    dist = chain._point_mass(0)[keep]
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = dist.sum()
        dist = dist @ q
    return out


@pytest.mark.parametrize("params", [
    ConstructionParams(h=40, L=3, variant="cubic"),
    ConstructionParams(h=24, L=2, L_prime=4, variant="no_cutoff"),
], ids=["cubic-40-3", "no_cutoff-24-2-4"])
def test_survival_equals_dense_evolution_at_large_h(params):
    chain = descent_chain(params)
    t_max = 10 ** 4
    assert np.abs(chain.survival(t_max)
                  - _dense_survival(chain, t_max)).max() < 1e-12
