import math
import sys
import time

import numpy as np
import pytest

from expander_cutoff import mixing
from expander_cutoff.construction import (ConstructionParams, RootChain,
                                          build_cylinder, root_chain,
                                          theoretical_tstar)
from expander_cutoff.expanders import ExpanderSpec, make_expander
from expander_cutoff.graphs import GraphError, from_text, to_text
from expander_cutoff.mixing import (
    TVProfile,
    cutoff_report,
    default_laziness,
    default_starts,
    mixing_time_bracket,
    point_mass,
    step,
    summarize_profile,
    tv_profile_until,
    tv_to_uniform,
)

from conftest import complete_graph, cycle_graph, graph_from_edges


# ---------------------------------------------------------------------------
# step


def test_uniform_is_stationary():
    g = complete_graph(6)
    p = np.full(6, 1.0 / 6)
    q = step(g, p)
    assert np.abs(q - p).max() < 1e-12


def test_point_mass_flips_on_k2():
    g = graph_from_edges(2, [(0, 1)])
    q = step(g, point_mass(2, 0))
    assert q.tolist() == [0.0, 1.0]


def test_two_steps_on_c4():
    g = cycle_graph(4)
    p = point_mass(4, 0)
    p = step(g, step(g, p))
    assert np.allclose(p, [0.5, 0.0, 0.5, 0.0])


def test_lazy_step_mixes_mass():
    g = graph_from_edges(2, [(0, 1)])
    q = step(g, point_mass(2, 0), laziness=0.5)
    assert np.allclose(q, [0.5, 0.5])


def test_mass_conserved_along_profile(five_reg_h1):
    p = point_mass(five_reg_h1.vertex_count, 0)
    for t in range(1, 201):
        p = step(five_reg_h1, p)
        if t % 100 == 0:
            assert abs(p.sum() - 1.0) < 1e-12
            assert p.min() >= 0.0


def test_laziness_must_be_bounded():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        step(g, point_mass(4, 0), laziness=0.7)


def _transition_csr(g):
    # P^T = A D^-1 as a scipy matrix: weight 1/deg(u) on each arc into u
    import scipy.sparse as sp

    n = g.vertex_count
    return sp.csr_matrix((1.0 / g.degrees()[g.indices], g.indices, g.indptr),
                         shape=(n, n))


def _reference_step(pt, p, laziness):
    # the kernel's formula through scipy.sparse; step must reproduce it bit
    # for bit
    q = pt.dot(p)
    if laziness:
        q *= (1.0 - laziness)
        q += laziness * p
    return q


@pytest.mark.parametrize("laziness", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("fixture", ["cubic_h2", "five_reg_h2"])
def test_step_matches_reference_formula_exactly(request, fixture, laziness):
    g = request.getfixturevalue(fixture)
    n = g.vertex_count
    ref = point_mass(n, 0)
    fresh = ref.copy()
    p, out, work = ref.copy(), np.empty(n), np.empty(n)
    pt = _transition_csr(g)
    for _ in range(150):
        ref = _reference_step(pt, ref, laziness)
        fresh = step(g, fresh, laziness)
        assert step(g, p, laziness, out=out, work=work) is out
        p, out = out, p
        assert np.array_equal(fresh, ref)
        assert np.array_equal(p, ref)
        assert tv_to_uniform(p, work) == 0.5 * float(np.abs(ref - 1.0 / n).sum())


def test_step_rejects_mismatched_buffers():
    g = cycle_graph(4)
    p = point_mass(4, 0)
    for bad in (np.empty(5), np.empty(4, dtype=np.float32), np.empty(8)[::2]):
        with pytest.raises(GraphError, match="buffers"):
            step(g, p, out=bad)
        with pytest.raises(GraphError, match="buffers"):
            step(g, p, work=bad)
    # an `out` or `work` that is p itself gave mass 0.9375 or 0.875 at
    # laziness 0.25, and work=p overwrote p
    g = cycle_graph(6)
    p = point_mass(6, 0)
    buf = np.empty(12)
    for kwargs in ({"out": p}, {"work": p}, {"out": buf[:6], "work": buf[:6]},
                   {"out": buf[:6], "work": buf[3:9]}):
        with pytest.raises(GraphError, match="buffers .* must not overlap"):
            step(g, p, 0.25, **kwargs)
    assert np.array_equal(p, point_mass(6, 0))
    assert step(g, p, 0.25, out=buf[:6],
                work=buf[6:]).sum() == pytest.approx(1.0)


def _cubic_chain():
    return root_chain(ConstructionParams(h=3, L=3, variant="cubic"))


@pytest.mark.parametrize("backend", ["graph", "chain"])
def test_step_refuses_a_p_of_the_wrong_shape(cubic_h2, backend):
    """Unchecked, a 3-entry p makes a graph's csr_matvec read past its
    buffer (a sum of nan, no error) and a chain's kernel raise IndexError."""
    g = cubic_h2 if backend == "graph" else _cubic_chain()
    n = len(g.indptr) - 1
    for bad in (np.zeros(3), np.zeros(n + 1), np.zeros((n, 1))):
        with pytest.raises(GraphError, match=f"p must have shape \\({n},\\)"):
            step(g, bad)
        with pytest.raises(GraphError, match="buffers"):
            tv_profile_until(g, 0, None, 5, buffers=[bad, np.empty(n)])
        with pytest.raises(GraphError, match="buffers"):
            tv_profile_until(g, 0, None, 5, buffers=[np.empty(n), bad])


# ---------------------------------------------------------------------------
# tv distance


def test_tv_point_mass():
    assert tv_to_uniform(point_mass(10, 3)) == pytest.approx(1 - 1 / 10)


def test_tv_uniform_zero():
    assert tv_to_uniform(np.full(7, 1.0 / 7)) == 0.0


def test_tv_two_states():
    assert tv_to_uniform(np.array([0.75, 0.25])) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# profiles


def test_profile_tmax_zero():
    g = cycle_graph(5)
    prof = tv_profile_until(g, 0, None, 0)
    assert prof.times.tolist() == [0]
    assert prof.tv[0] == pytest.approx(1 - 1 / 5)


def test_lazy_cycle_converges():
    g = cycle_graph(4)
    prof = tv_profile_until(g, 0, None, 200, laziness=0.5)
    assert prof.tv[-1] < 1e-3


def test_profile_shape_five_regular(five_reg_h1):
    # fall past the theoretical time scale: high at the start, below 0.1
    # by twice the predicted worst-case time (values frozen from the exact
    # evolution: tv(12) = 0.5382, tv(50) = 0.0191)
    tstar = theoretical_tstar(five_reg_h1.meta["h"], five_reg_h1.meta["L"])
    prof = tv_profile_until(five_reg_h1, 0, None, int(2 * tstar))
    tv = dict(zip(prof.times.tolist(), prof.tv.tolist()))
    assert tv[2] > 0.9
    assert tv[int(0.5 * tstar)] == pytest.approx(0.5382, abs=2e-3)
    assert tv[int(2 * tstar)] == pytest.approx(0.0191, abs=2e-3)
    assert tv[int(2 * tstar)] < 0.1


def test_profile_until_stops_at_target():
    g = cycle_graph(4)
    prof = tv_profile_until(g, 0, target=0.01, t_cap=1000, stride=1,
                            laziness=0.5)
    assert prof.tv[-1] < 0.01
    assert prof.tv[-2] >= 0.01


def test_profile_until_respects_cap():
    g = cycle_graph(4)
    with pytest.raises(GraphError, match="not mixed"):
        tv_profile_until(g, 0, target=1e-9, t_cap=5, stride=1, laziness=0.5)
    # a stride that does not divide the cap still records and stops there
    c5 = cycle_graph(5)
    with pytest.raises(GraphError, match="not mixed"):
        tv_profile_until(c5, 0, target=0.1, t_cap=8, stride=5)
    assert tv_profile_until(c5, 0, None, 8, stride=5).times.tolist() == \
        [0, 5, 8]


# ---------------------------------------------------------------------------
# mass checks


def _every_record_profile(g, start, t_cap, stride, laziness):
    """The profile loop as it measured the mass at every record, the
    reference the checked-only-when-needed schedule must equal."""
    n, pi = ((g.state_count, g.stationary) if isinstance(g, RootChain)
             else (g.vertex_count, None))
    p, q = point_mass(n, start), np.empty(n)
    work = [np.empty(n)] if laziness else []
    tv = [tv_to_uniform(p, q, pi)]
    renorms = t = 0
    while t < t_cap:
        for _ in range(min(stride, t_cap - t)):
            t += 1
            step(g, p, laziness, q, *work)
            p, q = q, p
        mass = p.sum()
        if abs(mass - 1.0) > mixing.RENORM_TOL:
            p /= mass
            renorms += 1
        tv.append(tv_to_uniform(p, q, pi))
    return np.array(tv), renorms


# a tolerance that a few thousand steps of drift exceed, and the default,
# which no profile here reaches
@pytest.mark.parametrize("tol, t_cap", [(2e-14, 20000), (mixing.RENORM_TOL,
                                                          5000)],
                         ids=["patched", "default"])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("laziness", [0.0, 0.5])
@pytest.mark.parametrize("backend", ["graph", "chain"])
def test_mass_schedule_equals_a_check_at_every_record(
        cubic_h2, monkeypatch, backend, laziness, stride, tol, t_cap):
    g = cubic_h2 if backend == "graph" else _cubic_chain()
    monkeypatch.setattr(mixing, "RENORM_TOL", tol)
    ref, ref_renorms = _every_record_profile(g, 0, t_cap, stride, laziness)
    prof = tv_profile_until(g, 0, None, t_cap, stride, laziness)
    assert np.array_equal(prof.tv, ref)
    assert prof.renormalizations == ref_renorms
    assert (ref_renorms > 0) == (tol < 1e-9)


@pytest.mark.parametrize("laziness", [0.0, 0.3])
@pytest.mark.parametrize("backend", ["graph", "chain"])
def test_mass_drift_stays_within_the_step_bound(backend, laziness):
    """|mass - 1| <= t eta over 10^5 steps, eta = (d_max + 4) 2^-53, on an
    irregular graph (degrees 2 to 5, so weights 1/3, 1/5 round) and on a
    chain; the mass is summed exactly (math.fsum)."""
    if backend == "graph":
        g = graph_from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                                 (1, 2), (2, 3), (5, 6), (6, 7), (7, 8),
                                 (8, 5), (4, 6)])
        n, d_max = g.vertex_count, int(g.degrees().max())
    else:
        g = _cubic_chain()
        n, d_max = g.state_count, g.degree
    eta = (d_max + 4) * 2.0 ** -53
    p, q, work = point_mass(n, 0), np.empty(n), np.empty(n)
    worst = 0.0
    for t in range(1, 10 ** 5 + 1):
        step(g, p, laziness, q, work)
        p, q = q, p
        drift = abs(math.fsum(p) - 1.0)
        assert drift <= t * eta, t
        worst = max(worst, drift / t)
    assert worst > 0.0


# ---------------------------------------------------------------------------
# mixing times


def _toy_profile():
    return TVProfile(start=0, times=np.array([0, 1, 2]),
                     tv=np.array([1.0, 0.3, 0.05]), laziness=0.0, stride=1)


def test_mixing_time_first_crossing():
    assert mixing_time_bracket(_toy_profile(), 0.25)[1] == 2
    assert mixing_time_bracket(_toy_profile(), 0.5)[1] == 1


def test_mixing_time_never_reached():
    with pytest.raises(GraphError, match="not mixed"):
        mixing_time_bracket(_toy_profile(), 0.01)


def test_mixing_time_bracket():
    assert mixing_time_bracket(_toy_profile(), 0.25) == (1, 2)


def test_summary_monotone_in_eps():
    prof = _toy_profile()
    s = summarize_profile(prof, (0.25, 0.5, 0.75))
    eps_sorted = sorted(s.tmix)
    times = [s.tmix[e] for e in eps_sorted]
    assert times == sorted(times, reverse=True)
    assert s.cutoff_ratio >= 1.0


def test_sharp_profile_ratio_near_one():
    times = np.arange(0, 101)
    tv = np.where(times < 50, 1.0, 0.0)
    prof = TVProfile(start=0, times=times, tv=tv, laziness=0.0, stride=1)
    s = summarize_profile(prof)
    assert s.cutoff_ratio == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# structural properties of profiles


def test_submultiplicative_envelope(five_reg_h1):
    prof = tv_profile_until(five_reg_h1, 0, None, 120)
    tv = dict(zip(prof.times.tolist(), prof.tv.tolist()))
    for t in (10, 20, 40):
        for s in (10, 30, 60):
            assert tv[t + s] <= 2 * tv[t] * tv[s] + 1e-10


def test_reversibility_spot_check(five_reg_h1):
    # regular graph: mass sent x -> y equals mass sent y -> x at any time
    g = five_reg_h1
    x, y = 0, 100
    t = 40
    px = point_mass(g.vertex_count, x)
    py = point_mass(g.vertex_count, y)
    for _ in range(t):
        px = step(g, px)
        py = step(g, py)
    assert px[y] == pytest.approx(py[x], rel=1e-9, abs=1e-15)


def test_bottom_start_mixes_faster(five_reg_h2):
    starts = default_starts(five_reg_h2)
    levels = [int(five_reg_h2.level[s]) for s in starts]
    root = starts[levels.index(0)]
    bottom = starts[levels.index(2 * 2 + 2)]
    summaries, worst = cutoff_report(five_reg_h2, [root, bottom])
    by_start = {s.start: s for s in summaries}
    assert by_start[root].tmix[0.25] > by_start[bottom].tmix[0.25]
    assert worst.start == root


def test_default_starts_cover_bands(five_reg_h2):
    starts = default_starts(five_reg_h2)
    lvls = {int(five_reg_h2.level[s]) for s in starts}
    assert {0, 4, 6, 8} <= lvls


def test_default_laziness(five_reg_h1):
    assert default_laziness(five_reg_h1) == 0.0
    assert default_laziness(cycle_graph(4)) == 0.5
    # read from the arcs, not from a stored flag
    assert default_laziness(cycle_graph(5).with_meta(bipartite=True)) == 0.0


@pytest.mark.parametrize("fixture", ["five_reg_h1", "no_cutoff_h2", "cubic_h2",
                                     "cylinder"])
def test_walk_defaults_survive_the_codec(request, monkeypatch, fixture):
    # a graph read back from graph.ev walks with the laziness and step cap
    # of the graph that wrote it
    g = (build_cylinder(make_expander(ExpanderSpec(3, 8, 0.01, 1)), 5)
         if fixture == "cylinder" else request.getfixturevalue(fixture))
    seen, sizes = [], []

    def record(g, start, target, t_cap, stride, laziness, buffers):
        seen.append((laziness, t_cap))
        sizes.append([len(b) for b in buffers])
        raise GraphError("recorded")

    monkeypatch.setattr(mixing, "tv_profile_until", record)
    for graph in (g, from_text(to_text(g))):
        with pytest.raises(GraphError, match="recorded"):
            cutoff_report(graph, [0])
    assert seen[0] == seen[1]
    # two vectors per worker, and a third for the laziness term
    assert sizes == [[g.vertex_count] * (3 if seen[0][0] else 2)] * 2
    if g.meta["variant"] in ("five_regular", "no_cutoff"):
        tstar = theoretical_tstar(g.meta["h"], g.meta["L"])
        assert seen[0][1] == int(20 * tstar) + 200


def test_cutoff_report_requires_starts(five_reg_h1):
    with pytest.raises(GraphError, match="nonempty"):
        cutoff_report(five_reg_h1, [])
    with pytest.raises(GraphError, match="distinct"):
        cutoff_report(five_reg_h1, [0, 0])


# ---------------------------------------------------------------------------
# concurrent starts


def _serial_summaries(g, starts, t_max):
    """cutoff_report's per-start evolution, one start after another."""
    out = []
    for s in starts:
        prof = tv_profile_until(g, s, target=0.25 * 0.98, t_cap=t_max,
                                laziness=default_laziness(g))
        out.append(summarize_profile(prof))
    return out


def _assert_same(summaries, serial):
    assert [s.start for s in summaries] == [s.start for s in serial]
    for a, b in zip(summaries, serial):
        assert a.as_dict() == b.as_dict()
        assert np.array_equal(a.profile.times, b.profile.times)
        assert np.array_equal(a.profile.tv, b.profile.tv)


@pytest.fixture
def cpus(monkeypatch):
    """At least two workers, so the pool runs on a one-CPU host too."""
    n = max(2, mixing._usable_cpus())
    monkeypatch.setattr(mixing, "_usable_cpus", lambda: n)
    return n


def test_concurrent_starts_equal_serial_in_order(five_reg_h2, cpus):
    starts = list(reversed(default_starts(five_reg_h2)))
    summaries, worst = cutoff_report(five_reg_h2, starts, t_max=2000)
    _assert_same(summaries, _serial_summaries(five_reg_h2, starts, 2000))
    assert worst.tmix[0.25] == max(s.tmix[0.25] for s in summaries)


def test_failing_start_raises_serial_error(five_reg_h2, cpus):
    starts = default_starts(five_reg_h2)
    summaries, _ = cutoff_report(five_reg_h2, starts)
    stop = {s.start: int(s.profile.times[-1]) for s in summaries}
    slow = max(starts, key=stop.get)
    fast = [s for s in starts if stop[s] < stop[slow]]
    cap = max(stop[s] for s in fast)
    # the slow start fails first in start order, also when a bad vertex
    # after it fails at once on another worker
    for order in ([slow] + fast, fast + [slow], [slow, 10**9] + fast):
        with pytest.raises(GraphError, match=f"not mixed .* t_max={cap}$"):
            cutoff_report(five_reg_h2, order, t_max=cap)
    with pytest.raises(GraphError, match="not a vertex"):
        cutoff_report(five_reg_h2, fast + [10**9, slow], t_max=cap)


def test_concurrent_stress_on_fresh_graph(five_reg_h1, cpus):
    # more starts than workers, each round on a freshly parsed graph (CSR
    # and float degrees not yet cached), with the interpreter switching
    # threads every 10 us; rounds repeat for about two seconds
    text = to_text(five_reg_h1)
    starts = list(range(0, five_reg_h1.vertex_count, 97))[:2 * cpus + 3]
    serial = _serial_summaries(from_text(text), starts, t_max=700)
    interval = sys.getswitchinterval()
    deadline = time.perf_counter() + 2.0
    try:
        sys.setswitchinterval(1e-5)
        rounds = 0
        while rounds < 2 or time.perf_counter() < deadline:
            summaries, _ = cutoff_report(from_text(text), starts, t_max=700)
            _assert_same(summaries, serial)
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
