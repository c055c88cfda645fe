import numpy as np
import pytest

from expander_cutoff import montecarlo
from expander_cutoff.construction import (
    FAMILIES,
    ConstructionParams,
    RootChain,
    standalone_cylinder,
)
from expander_cutoff.graphs import (
    LEAF,
    TREE_NODE,
    GraphBuilder,
    GraphError,
    stretch_edges,
)
from expander_cutoff.montecarlo import (
    DescentChain,
    absorbing_mean_hitting,
    bimodality_check,
    chain_start,
    cylinder_passage_exact,
    cylinder_passage_oracle,
    descent_chain,
    hitting_mixing_ratio,
    hitting_stats,
    path_passage_exact,
    path_passage_oracle,
    predicted_tau,
    sample_hitting_times,
    stretched_edge_delay,
    stretched_edge_delay_mc,
    walk_frontier,
)

from conftest import graph_from_edges


# ---------------------------------------------------------------------------
# closed forms


def test_predicted_tau_branches_agree_at_two():
    for h in (1, 3, 10):
        for L in (1, 2, 5):
            assert predicted_tau(2.0, h, L) == predicted_tau(2.0 + 0.0, h, L)
            lo = predicted_tau(2.0, h, L)
            assert lo == pytest.approx((5.0 / 3.0) * h)


def test_predicted_tau_values():
    assert predicted_tau(3.0, 7, 2) == 0.0
    assert predicted_tau(0.0, 3, 1) == pytest.approx(15.0)
    assert predicted_tau(0.0, 4, 2) == pytest.approx(100.0)


def test_family_prediction_is_the_root_hitting_time():
    # hitting --chain reports the record's prediction, bit for bit the
    # five_regular root's predicted_tau
    for h in (1, 4, 16, 40):
        for L in (1, 2, 5, 119):
            assert FAMILIES["five_regular"].predicted(h, L) == \
                predicted_tau(0, h, L)
            assert FAMILIES["cubic"].predicted(h, L) is None


def test_predicted_tau_domain():
    with pytest.raises(GraphError):
        predicted_tau(-0.1, 2, 2)
    with pytest.raises(GraphError):
        predicted_tau(3.2, 2, 2)


def test_stretched_edge_delay_values():
    assert stretched_edge_delay(1) == 1.0
    assert stretched_edge_delay(2) == 7.0
    assert stretched_edge_delay(4) == 34.0


# ---------------------------------------------------------------------------
# one-dimensional oracles


def test_path_passage_length_one():
    mean_t, mean_v = path_passage_oracle(1, 2000, seed=5)
    assert mean_t == 1.0
    assert mean_v == 1.0


def _tridiagonal_passage(L):
    """The same solves on a hand-set Q with 0.5 off the diagonal."""
    k = 2 * L - 1
    q = 0.5 * (np.eye(k, k=1) + np.eye(k, k=-1))
    m = np.eye(k) - q
    e0 = (np.arange(k) == L - 1).astype(float)
    return (float(np.linalg.solve(m, np.ones(k))[L - 1]),
            float(np.linalg.solve(m, e0)[L - 1]))


def test_path_passage_exact_solver():
    for L in (1, 2, 5, 8):
        t, v = path_passage_exact(L)
        assert t == pytest.approx(L * L, rel=1e-10)
        assert v == pytest.approx(L, rel=1e-10)
        assert (t, v) == _tridiagonal_passage(L)


def test_path_passage_oracle_matches_exact():
    n = 100000
    mean_t, mean_v = path_passage_oracle(5, n, seed=42)
    assert abs(mean_t - 25.0) / 25.0 < 0.02
    assert abs(mean_v - 5.0) / 5.0 < 0.02
    # 4 standard errors against the absorbing-chain solve
    samples_std = np.sqrt((2 * 5 ** 4 - 2 * 5 ** 2) / 3)
    assert abs(mean_t - 25.0) < 4 * samples_std / np.sqrt(n)


def test_stretched_edge_delay_mc_matches_formula():
    mc = stretched_edge_delay_mc(2, 100000, seed=3)
    assert abs(mc - 7.0) / 7.0 < 0.03
    mc4 = stretched_edge_delay_mc(4, 50000, seed=4)
    assert abs(mc4 - 34.0) / 34.0 < 0.03


def test_oracle_determinism():
    a = path_passage_oracle(5, 5000, seed=9)
    b = path_passage_oracle(5, 5000, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# hitting times on graphs


def test_leaf_start_hits_immediately(five_reg_h1):
    leaf = int(np.flatnonzero(five_reg_h1.role == 3)[0])
    stats = sample_hitting_times(five_reg_h1, leaf, 5, seed=1)
    assert stats.samples.tolist() == [0] * 5


def _neighbor_loop_hitting(g, start, targets,
                           solve=montecarlo._solve_no_pivoting):
    """absorbing_mean_hitting on a connected g with Q filled by a loop over
    neighbors, solved by the same elimination unless `solve` is given."""
    target = np.isin(np.arange(g.vertex_count), targets)
    trans = np.flatnonzero(~target)
    pos = np.cumsum(~target) - 1
    q = np.zeros((len(trans), len(trans)))
    for i, v in enumerate(trans):
        nbrs = g.neighbors(v)
        for u in nbrs:
            if not target[u]:
                q[i, pos[u]] += 1.0 / len(nbrs)
    h = solve(np.eye(len(trans)) - q, np.ones(len(trans)))
    return float(h[pos[start]])


def test_stretched_edge_graph_mean():
    b = GraphBuilder()
    b.add_vertex_array([0, 1], [TREE_NODE, LEAF])
    b.add_edge_array([0], [1])
    p = stretch_edges(b.finish(), [(0, 1)], 2)
    exact = absorbing_mean_hitting(p, 0, np.flatnonzero(p.role == 3))
    assert exact == pytest.approx(4.0)
    assert exact == _neighbor_loop_hitting(p, 0, np.flatnonzero(p.role == 3))
    stats = sample_hitting_times(p, 0, 4000, seed=2)
    assert abs(stats.mean - exact) < 4 * stats.stderr()
    gadget = standalone_cylinder(9)
    exact = cylinder_passage_exact(gadget)
    assert exact == _neighbor_loop_hitting(gadget, 0, [1])
    lapack = _neighbor_loop_hitting(gadget, 0, [1], solve=np.linalg.solve)
    assert exact == pytest.approx(lapack, rel=1e-12)


def test_absorbing_mean_hitting_solves_on_the_start_component():
    # the path 0 - 1 - 2 and a separate edge 3 - 4, target 2
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert absorbing_mean_hitting(g, 0, [2]) == 4.0


def test_absorbing_mean_hitting_refuses_an_unreachable_target():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(GraphError, match="reachable from start 3"):
        absorbing_mean_hitting(g, 3, [2])


@pytest.mark.parametrize("start, targets, message", [
    (-3, [2], "start -3 is not a vertex"),
    (-1, [2], "start -1 is not a vertex"),
    (7, [2], "start 7 is not a vertex"),
    (0, [9], "target 9 is not a vertex"),
    (0, [2, -1], "target -1 is not a vertex"),
])
def test_absorbing_mean_hitting_refuses_vertices_out_of_range(start, targets,
                                                              message):
    # as numpy indices these would wrap around or raise IndexError
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(GraphError, match=f"^{message} \\(n=5\\)$"):
        absorbing_mean_hitting(g, start, targets)


def test_trajectory_seed_determinism(five_reg_h1):
    a = sample_hitting_times(five_reg_h1, 0, 6, seed=3).samples
    b = sample_hitting_times(five_reg_h1, 0, 6, seed=3).samples
    c = sample_hitting_times(five_reg_h1, 0, 6, seed=4).samples
    assert a.tolist() == b.tolist()
    assert c.dtype == np.int64


def test_batch_independent_of_size(five_reg_h1):
    big = sample_hitting_times(five_reg_h1, 0, 50, seed=6)
    small = sample_hitting_times(five_reg_h1, 0, 10, seed=6)
    assert big.samples[:10].tolist() == small.samples.tolist()


# ---------------------------------------------------------------------------
# the descent chain against the materialized graph


def test_chain_mean_matches_graph_five_regular(five_reg_h2):
    chain = descent_chain(ConstructionParams(h=2, L=2))
    exact = chain.exact_mean()
    stats = sample_hitting_times(five_reg_h2, 0, 2500, seed=11)
    assert abs(stats.mean - exact) < 4 * stats.stderr()


def test_chain_quantiles_match_graph(five_reg_h2):
    chain = descent_chain(ConstructionParams(h=2, L=2))
    graph_samples = sample_hitting_times(five_reg_h2, 0, 2500, seed=12).samples
    chain_samples = chain.sample(25000, seed=13)
    for q in (0.25, 0.5, 0.75):
        gq = np.quantile(graph_samples, q)
        cq = np.quantile(chain_samples, q)
        assert abs(gq - cq) <= 3.0, q


def test_chain_mean_matches_graph_no_cutoff(no_cutoff_h2):
    chain = descent_chain(
        ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
    exact = chain.exact_mean()
    stats = sample_hitting_times(no_cutoff_h2, 0, 2500, seed=14)
    assert abs(stats.mean - exact) < 4 * stats.stderr()


def test_chain_tracks_prediction_at_large_h():
    for h, L in ((8, 2), (40, 2), (12, 3)):
        chain = descent_chain(ConstructionParams(h=h, L=L))
        ratio = chain.exact_mean() / predicted_tau(0, h, L)
        assert abs(ratio - 1.0) < 0.05, (h, L)


@pytest.mark.parametrize("params", [ConstructionParams(h=16, L=4)] + [
    ConstructionParams(h=h, L=L, variant="cubic")
    for h in range(1, 7) for L in (2, 3)],
    ids=["five_regular-16-4"] + [f"cubic-{h}-{L}" for h in range(1, 7)
                                 for L in (2, 3)])
def test_chain_exact_mean_matches_lapack(params):
    chain = descent_chain(params)
    # Q = counts / degree on the transient classes, from the chain's arcs
    classes, keep = chain.classes, ~chain._absorbing
    k = classes.state_count
    counts = np.zeros((k, k))
    np.add.at(counts, (np.repeat(np.arange(k), np.diff(classes.indptr)),
                       classes.indices), 1.0)
    q = (counts / classes.degree)[np.ix_(keep, keep)]
    for start in (0, 3):
        e = chain._point_mass(start)[keep]
        lapack = e @ np.linalg.solve(np.eye(len(e)) - q, np.ones(len(e)))
        assert chain.exact_mean(start) == pytest.approx(lapack, rel=1e-12)
    if params.h == 16:
        assert chain.exact_mean() == pytest.approx(1822.2777777, rel=1e-9)


def test_chain_sampler_agrees_with_linear_solve():
    chain = descent_chain(ConstructionParams(h=4, L=2))
    samples = chain.sample(40000, seed=21)
    exact = chain.exact_mean()
    se = samples.std() / np.sqrt(len(samples))
    assert abs(samples.mean() - exact) < 4 * se


def _walk_chain(chain, num_samples, seed):
    """Hitting times from walking the chain's own CSR trajectory by
    trajectory with walk_frontier, the sampler of graphs and oracles."""
    times = np.zeros(num_samples, dtype=np.int64)
    classes = chain.classes
    for t, ids, _ in walk_frontier(classes.indptr, classes.indices,
                                   chain._absorbing, 0, num_samples, seed):
        times[ids] = t
    return times


def _ks_to_exact(chain, samples):
    """sup_t |F_n(t) - (1 - S(t))|: both CDFs jump only at integers, so
    the integers up to the largest sample (where F_n reaches 1) suffice."""
    t_max = int(samples.max())
    ecdf = np.cumsum(np.bincount(samples, minlength=t_max + 1)) / len(samples)
    return float(np.abs(ecdf - (1.0 - chain.survival(t_max))).max())


@pytest.mark.parametrize("params", [
    ConstructionParams(h=4, L=2),
    ConstructionParams(h=4, L=2, L_prime=4, variant="no_cutoff"),
], ids=["five_regular", "no_cutoff"])
def test_inverse_cdf_sampler_agrees_with_walking(params):
    chain = descent_chain(params)
    exact = chain.exact_mean()
    n = 20000
    # 1.95 / sqrt(n) is the 0.1% point of the Kolmogorov distribution,
    # conservative for a law on the integers
    for samples in (chain.sample(n, seed=31), _walk_chain(chain, n, seed=32)):
        assert abs(samples.mean() - exact) < 4 * samples.std() / np.sqrt(n)
        assert _ks_to_exact(chain, samples) < 1.95 / np.sqrt(n)


def test_chain_sample_prefixes_and_edges():
    chain = descent_chain(ConstructionParams(h=3, L=2))
    for start in (0, 4):
        full = chain.sample(1000, seed=5, start=start)
        assert chain.sample(100, seed=5, start=start).tolist() == \
            full[:100].tolist()
    empty = chain.sample(0, seed=5)
    assert empty.dtype == np.int64 and empty.shape == (0,)
    leaf = chain.classes.leaves[0]
    assert chain.sample(7, seed=5, start=leaf).tolist() == [0] * 7
    with pytest.raises(GraphError, match="not a state"):
        chain.sample(0, seed=5, start=chain.size)


def test_chain_step_cap_raises(monkeypatch):
    # one transient state that stays with probability 3/4: S(t) = 0.75^t
    chain = DescentChain(RootChain(sizes=(1, 1),
                                   indices=[0, 0, 0, 1, 0, 1, 1, 1],
                                   degree=4, meta={}, levels=(0, 1),
                                   leaves=(1,)))
    assert chain.survival(3).tolist() == [1.0, 0.75, 0.5625, 0.421875]
    monkeypatch.setattr(montecarlo, "STEP_CAP", 200)
    assert chain.sample(1000, seed=1).max() <= 200
    monkeypatch.setattr(montecarlo, "STEP_CAP", 5)
    with pytest.raises(GraphError, match="step cap 5 exceeded"):
        list(walk_frontier(chain.classes.indptr, chain.classes.indices,
                           chain._absorbing, 0, 1000, seed=1))
    with pytest.raises(GraphError, match="step cap 5 exceeded"):
        chain.sample(1000, seed=1)


def test_walk_frontier_rejects_degree_zero_state():
    # 0 -> 1, and 1 has no edge: it used to take 2's neighbour as its move
    indptr = np.array([0, 1, 1, 2])
    indices = np.array([1, 0])
    absorbing = np.zeros(3, dtype=bool)
    walk = walk_frontier(indptr, indices, absorbing, 0, 5, seed=1)
    t, ids, states = next(walk)
    assert (t, ids.tolist(), states.tolist()) == (1, list(range(5)), [1] * 5)
    with pytest.raises(GraphError, match="state 1 has no edge to leave by"):
        next(walk)
    # an absorbing state of degree 0 stops the walk as before
    absorbing[1] = True
    assert [t for t, _, _ in walk_frontier(indptr, indices, absorbing, 0, 5,
                                           seed=1)] == [1]


def test_passage_oracle_rejects_isolated_port():
    gadget = graph_from_edges(3, [(1, 2)])
    with pytest.raises(GraphError, match="state 0 has no edge to leave by"):
        cylinder_passage_oracle(gadget, 10, seed=1)


def test_chain_survival_is_monotone():
    chain = descent_chain(ConstructionParams(h=2, L=2))
    surv = chain.survival(400)
    assert surv[0] == 1.0
    assert (np.diff(surv) <= 1e-12).all()
    assert surv[-1] < 0.01


def test_chain_survival_is_zero_below_the_normal_range():
    """Cubic h=1 L=1: S(t) leaves the normal doubles at t = 4,489.  It
    used to hover at 5-6e-323 through t = 20,000, rising by up to 20%
    between steps; below 1e-300 it now rises by rounding only (a few ulps,
    as it does everywhere) and is exactly 0 from there on."""
    surv = descent_chain(ConstructionParams(h=1, L=1,
                                            variant="cubic")).survival(6000)
    tiny = np.finfo(float).tiny
    assert surv[4488] >= tiny
    assert (surv[4489:] == 0.0).all()
    low = surv[:-1] < 1e-300
    assert (surv[1:][low] <= surv[:-1][low] * (1 + 1e-15)).all()


def test_chain_start_levels():
    chain = descent_chain(ConstructionParams(h=4, L=2))
    def mean_from(level, n):
        return chain.sample(n, seed=8, start=chain_start(chain, level)).mean()

    assert chain_start(chain, 0) == 0
    assert mean_from(10, 2000) < mean_from(0, 2000)
    assert mean_from(14, 10) == 0.0


def test_chain_rejects_other_variants():
    with pytest.raises(GraphError, match="no chain for variant 'cylinder'"):
        descent_chain(ConstructionParams(h=2, L=5, m=4, variant="cylinder"))


def test_hitting_stats_write_their_standard_error():
    stats = hitting_stats([3, 5, 8, 13, 21])
    body = stats.as_dict()
    assert body["stderr"] == stats.stderr() == \
        body["stddev"] / np.sqrt(body["count"])
    assert type(body["stderr"]) is float


# ---------------------------------------------------------------------------
# bimodality


def test_bimodality_synthetic_mixture():
    gen = np.random.default_rng(0)
    samples = gen.permutation(np.concatenate(
        [np.full(600, 100), np.full(600, 200)]))
    rep = bimodality_check(hitting_stats(samples))
    assert rep.flag
    assert rep.cluster_means == (100.0, 200.0)
    assert rep.cluster_weights == (0.5, 0.5)
    assert rep.separation == np.inf


def test_bimodality_needs_mass():
    with pytest.raises(GraphError, match="1000"):
        bimodality_check(hitting_stats(np.arange(100)))


def test_five_regular_concentrates():
    chain = descent_chain(ConstructionParams(h=3, L=2))
    rep = bimodality_check(hitting_stats(chain.sample(10000, seed=7)))
    assert not rep.flag


def test_uneven_stretch_departs_from_concentration():
    # the two descent routes separate as h grows; at h = 24 the detector
    # fires stably, and the quantile ratio is already far from 1 at h = 4
    def uneven_chain(h):
        return descent_chain(
            ConstructionParams(h=h, L=2, L_prime=4, variant="no_cutoff"))

    even = descent_chain(ConstructionParams(h=24, L=2))
    uneven = uneven_chain(24)
    assert not bimodality_check(hitting_stats(even.sample(50000, seed=7))).flag
    rep = bimodality_check(hitting_stats(uneven.sample(50000, seed=7)))
    assert rep.flag
    assert rep.cluster_means[1] / rep.cluster_means[0] > 1.5

    small = hitting_stats(uneven_chain(4).sample(10000, seed=7))
    assert hitting_mixing_ratio(small) > 1.5


def test_concentration_tightens_with_h():
    cvs = []
    for h in (2, 3, 4):
        chain = descent_chain(ConstructionParams(h=h, L=2))
        s = chain.sample(20000, seed=17)
        cvs.append(s.std() / s.mean())
    assert cvs[0] > cvs[1] > cvs[2]


# ---------------------------------------------------------------------------
# cylinder passage


def test_cylinder_length_one_is_single_step():
    gad = standalone_cylinder(1)
    assert cylinder_passage_oracle(gad, 500, seed=1) == 1.0
    assert cylinder_passage_exact(gad) == pytest.approx(1.0)


def test_cylinder_oracle_matches_linear_solve():
    for L, n in ((5, 40000), (9, 20000)):
        gad = standalone_cylinder(L)
        exact = cylinder_passage_exact(gad)
        mc = cylinder_passage_oracle(gad, n, seed=6)
        assert abs(mc - exact) / exact < 0.05


def test_cylinder_exact_values():
    # frozen from the absorbing-chain solve of the ladder gadget
    assert cylinder_passage_exact(standalone_cylinder(5)) == pytest.approx(35.0)
    assert cylinder_passage_exact(standalone_cylinder(9)) == pytest.approx(114.0)
    assert cylinder_passage_exact(standalone_cylinder(13)) == pytest.approx(238.0)
