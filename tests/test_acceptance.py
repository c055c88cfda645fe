"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria are implemented exactly as stated and are expected to
fail on desk-scale instances; the failures are real measurements, not
bugs (see the repository README's known-limitations section for the
quantitative analysis):

  5b  cutoff ratio <= 1.6 at cubic h = 5: exact evolution gives 2.168
      (3.048 -> 2.506 -> 2.168 over h = 3, 4, 5); the exact root-class
      chain gives 1.951 at h = 6 and crosses 1.6 between h = 11 and
      h = 12, with ratio - 1 falling like about h^(-1/2).
  7a  bimodality flag at uneven-stretch h = 4: the exact leaf-hitting law
      (DescentChain.survival, 5-step moving average) has a single mode
      (t ~ 92 at h = 4) for every h <= 16 and two modes only from h = 20,
      so the detector is right not to flag h = 4.

10b and 11b check the cylinder constants the ladder gadget actually has,
(45/32) L^2 passage and a distance-certificate product below 126; both
are derived in the tests' comments.
"""

import functools

import numpy as np

from expander_cutoff.cli import main as cli_main
from expander_cutoff.construction import (
    ConstructionParams,
    build,
    build_cylinder,
    cylinder_vertex_count,
    level_census,
    standalone_cylinder,
)
from expander_cutoff.expanders import ExpanderSpec, make_expander
from expander_cutoff.graphs import assert_regular, is_connected, stretch_edges
from expander_cutoff.mixing import cutoff_report, default_starts
from expander_cutoff.montecarlo import (
    bimodality_check,
    cylinder_passage_exact,
    cylinder_passage_oracle,
    descent_chain,
    hitting_mixing_ratio,
    hitting_stats,
    path_passage_exact,
    path_passage_oracle,
    predicted_tau,
)
from expander_cutoff.spectral import (
    cheeger_bruteforce,
    cheeger_sandwich,
    exact_walk_gap,
    no_cutoff_certificate,
)

from conftest import complete_graph, cycle_graph, graph_from_edges, petersen_graph


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@functools.lru_cache(maxsize=None)
def cubic(h, L):
    return build(ConstructionParams(h=h, L=L, variant="cubic"))


@functools.lru_cache(maxsize=None)
def five_regular(h, L):
    return build(ConstructionParams(h=h, L=L))


# 1 ------------------------------------------------------------------------


def test_c01_five_regular_census():
    ok = True
    for h in (1, 2):
        for L in (2, 3):
            g = five_regular(h, L)
            census = level_census(g)
            ok &= assert_regular(g, 5)
            ok &= is_connected(g)
            ok &= census[2] == 20
            ok &= census[h + 2] == 20 * 4 ** h
            ok &= census[3 * h + 2] == 20 * 2 ** (6 * h)
    assert report("01 five-regular census", ok,
                  "h in {1,2} x L in {2,3}: 5-regular, connected, "
                  "level sizes 20 / 20*4^h / 20*2^6h")


# 2 ------------------------------------------------------------------------


def test_c02_cubic_census():
    ok = True
    detail = []
    for h in (2, 3, 4, 5):
        for L in (2, 3):
            g = cubic(h, L)
            ok &= assert_regular(g, 3)
            ok &= is_connected(g)
        detail.append(f"h={h}: n={cubic(h, 3).vertex_count}")
    assert report("02 cubic census", ok, "; ".join(detail))


# 3 ------------------------------------------------------------------------


def test_c03_one_dimensional_oracles():
    n = 100000
    mean_t, mean_v = path_passage_oracle(5, n, seed=101)
    exact_t, exact_v = path_passage_exact(5)
    stderr_t = np.sqrt((2 * 5 ** 4 - 2 * 5 ** 2) / 3) / np.sqrt(n)
    ok = abs(mean_t - 25.0) / 25.0 < 0.02
    ok &= abs(mean_v - 5.0) / 5.0 < 0.02
    ok &= abs(exact_t - 25.0) < 1e-9 and abs(exact_v - 5.0) < 1e-9
    ok &= abs(mean_t - exact_t) < 4 * stderr_t
    assert report("03 1d oracles", ok,
                  f"passage {mean_t:.3f} vs 25, visits {mean_v:.3f} vs 5, "
                  f"|mc-exact|={abs(mean_t - exact_t):.3f} < 4se={4*stderr_t:.3f}")


# 4 ------------------------------------------------------------------------


def test_c04_hitting_formula_h4():
    chain = descent_chain(ConstructionParams(h=4, L=2))
    stats = hitting_stats(chain.sample(10000, seed=404),
                          predicted=predicted_tau(0, 4, 2))
    rel = abs(stats.mean - 100.0) / 100.0
    cont = predicted_tau(2.0, 4, 2) == (5.0 / 3.0) * 4
    ok = rel < 0.15 and cont and stats.predicted == 100.0
    assert report("04 hitting formula", ok,
                  f"mean={stats.mean:.2f} vs predicted 100 (rel {rel:.3%}), "
                  f"alpha=2 continuity exact={cont}")


# 5 ------------------------------------------------------------------------


def _cubic_root_ratio(h):
    g = cubic(h, 3)
    summaries, _ = cutoff_report(g, [0], stride=1, t_max=20000)
    return summaries[0].cutoff_ratio


@functools.lru_cache(maxsize=None)
def _cubic_ratios():
    return {h: _cubic_root_ratio(h) for h in (3, 4, 5)}


def test_c05a_cubic_cutoff_trend_monotone():
    r = _cubic_ratios()
    ok = r[3] >= r[4] >= r[5]
    assert report("05a cubic ratio non-increasing", ok,
                  f"ratios {r[3]:.3f} >= {r[4]:.3f} >= {r[5]:.3f}")


def test_c05b_cubic_cutoff_ratio_bound():
    r = _cubic_ratios()
    ok = r[5] <= 1.6
    assert report("05b cubic ratio bound at h=5", ok,
                  f"measured {r[5]:.3f}, required <= 1.6; the exact-evolution "
                  f"window is still wide at h=5 (ratio falls ~3.0 -> 2.5 -> "
                  f"2.2 over h=3,4,5)"), \
        "cutoff ratio at h=5 exceeds 1.6; finite-size window, see README"


# 6 ------------------------------------------------------------------------


def test_c06_worst_start_ordering():
    g = five_regular(2, 2)
    starts = default_starts(g)
    levels = {int(g.level[s]): s for s in starts}
    root, bottom = levels[0], levels[6]
    summaries, _ = cutoff_report(g, [root, bottom], stride=1)
    by_start = {s.start: s for s in summaries}
    t_root = by_start[root].tmix[0.25]
    t_bot = by_start[bottom].tmix[0.25]
    ok = t_root > t_bot
    assert report("06 worst-start ordering", ok,
                  f"tmix(1/4) root={t_root} > level-(2h+2)={t_bot}")


# 7 ------------------------------------------------------------------------


def test_c07a_no_cutoff_bimodality_flag():
    # sampled above the spec minimum so the split estimate is stable: at
    # 10^4 samples the flag is seed luck (fires ~20% of seeds), at 5x10^4
    # it is stably off at h=4 and stably on from h~24
    chain = descent_chain(
        ConstructionParams(h=4, L=2, L_prime=4, variant="no_cutoff"))
    stats = hitting_stats(chain.sample(50000, seed=707))
    rep = bimodality_check(stats)
    ok = rep.flag and 0.35 <= rep.cluster_weights[0] <= 0.65
    assert report("07a uneven-stretch bimodality flag at h=4", ok,
                  f"flag={rep.flag} weights=({rep.cluster_weights[0]:.3f},"
                  f"{rep.cluster_weights[1]:.3f}) separation={rep.separation:.2f}; "
                  f"the two descent routes still overlap at h=4 (the detector "
                  f"fires stably from h~24)"), \
        "hitting times not yet bimodal at h=4; finite-size overlap, see README"


def test_c07b_no_cutoff_mixing_ratio():
    g2 = build(ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
    summaries, _ = cutoff_report(g2, [0], stride=1)
    r2 = summaries[0].cutoff_ratio
    chain4 = descent_chain(
        ConstructionParams(h=4, L=2, L_prime=4, variant="no_cutoff"))
    r4 = hitting_mixing_ratio(hitting_stats(chain4.sample(10000, seed=708)))
    ok = r2 >= 1.1 and r4 >= 1.1
    assert report("07b uneven-stretch ratio >= 1.1", ok,
                  f"h=2 exact ratio={r2:.3f}, h=4 hitting-quantile ratio={r4:.3f}")


# 8 ------------------------------------------------------------------------


def _corpus():
    out = {
        "K2": (graph_from_edges(2, [(0, 1)]), 1),
        "C4": (cycle_graph(4), 2),
        "C6": (cycle_graph(6), 2),
        "K4": (complete_graph(4), 3),
        "Petersen": (petersen_graph(), 3),
    }
    for size, seed in ((8, 11), (10, 12), (14, 13)):
        out[f"cubic{size}"] = (
            make_expander(ExpanderSpec(3, size, 0.01, seed)).graph, 3)
    return out


def test_c08_cheeger_sandwich():
    ok = True
    details = []
    for name, (g, d) in _corpus().items():
        lo, hi = cheeger_sandwich(g, d)
        ch = cheeger_bruteforce(g)
        good = lo - 1e-9 <= ch <= hi + 1e-9
        ok &= good
        details.append(f"{name}: {lo:.3f}<={ch:.3f}<={hi:.3f}")
    assert report("08 cheeger sandwich", ok, "; ".join(details))


# 9 ------------------------------------------------------------------------


def test_c09_contraction_claim():
    ok = True
    details = []
    for name, (g, _) in _corpus().items():
        if g.vertex_count > 9:
            continue
        ch_f = cheeger_bruteforce(g)
        delta = int(g.degrees().max())
        edges = sorted(g.edge_set())
        for L in (2, 3, 4):
            # stretch as many edges as the 24-vertex brute-force cap allows
            budget = (24 - g.vertex_count) // (L - 1)
            subset = edges[:budget]
            s = stretch_edges(g, subset, L)
            ch_g = cheeger_bruteforce(s)
            bound = ch_f / (delta ** 2 * L)
            good = ch_g >= bound - 1e-12
            ok &= good
            details.append(f"{name},L={L}: {ch_g:.4f}>={bound:.4f}")
    assert report("09 contraction claim", ok, "; ".join(details[:6]) + " ...")


# 10 -----------------------------------------------------------------------


def test_c10a_cylinder_counts():
    ok = True
    hosts = [("K4", complete_graph(4))]
    for size, seed in ((8, 31), (10, 32)):
        hosts.append((f"cubic{size}",
                      make_expander(ExpanderSpec(3, size, 0.01, seed)).graph))
    for name, host in hosts:
        for L in (5, 9, 13):
            g = build_cylinder(host, L)
            expect = cylinder_vertex_count(host.vertex_count,
                                           host.edge_count, L)
            ok &= g.vertex_count == expect
            ok &= assert_regular(g, 3)
    assert report("10a cylinder counts", ok,
                  "n = m + |E| (3/2)(L-1) exact on all hosts and lengths")


def test_c10b_cylinder_passage_near_square():
    # The gadget of length L = 4k + 1 has 9k + 1 edges (10a pins its 6k
    # interiors).  It is symmetric under reversal, so port-to-port passage
    # is half the commute time, |E| * R.  By symmetry no current crosses
    # the rungs: each 4-position block is a single edge (1) followed by
    # three doubled rail steps (1/2 each), and the last port edge adds 1,
    # so R = (5k + 2) / 2 and passage = (9k + 1)(5k + 2) / 2.  With
    # k ~ L/4 this is (45/32) L^2 to leading order.  L^2 itself is out of
    # reach at this size for any two-port gadget with degree-1 ports,
    # 9k + 1 edges and port distance L: the L distance cuts are disjoint,
    # two are single port edges and the other L - 2 share at most 9k - 1
    # edges, so Nash-Williams and Cauchy-Schwarz give
    # R >= 2 + (4k - 1)^2 / (9k - 1), and half the commute time is at
    # least (9k + 1) * R: 1.25 L^2 at L = 5, 1.15 L^2 at L = 9.
    results = {}
    exact = {}
    for L, n in ((5, 100000), (9, 40000)):
        k = (L - 1) // 4
        gadget = standalone_cylinder(L)
        results[L] = cylinder_passage_oracle(gadget, n, seed=1010)
        exact[L] = cylinder_passage_exact(gadget)
        closed = (9 * k + 1) * (5 * k + 2) / 2
        assert abs(exact[L] - closed) <= 1e-9 * closed, (L, exact[L], closed)
    target = {L: 45.0 / 32.0 * L * L for L in results}
    ok = all(abs(results[L] - target[L]) / target[L] <= 0.05 for L in results)
    assert report("10b cylinder passage ~ (45/32) L^2", ok,
                  f"measured {results[5]:.1f} vs {target[5]:.1f} and "
                  f"{results[9]:.1f} vs {target[9]:.1f}; exact "
                  f"{exact[5]:.0f} and {exact[9]:.0f}"), \
        "gadget passage is not within 5% of (45/32) L^2"


def test_c10c_cylinder_mixing_slope():
    host = complete_graph(4)
    pts = []
    for L in (5, 9, 13):
        g = build_cylinder(host, L)
        summaries, worst = cutoff_report(g, default_starts(g), stride=1,
                                         t_max=200000)
        pts.append((L, worst.tmix[0.25]))
    xs, ys = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(slope - 2.0) <= 0.2
    assert report("10c cylinder mixing slope", ok,
                  f"tmix points {pts}, log-log slope {slope:.3f} in 2 +- 0.2")


# 11 -----------------------------------------------------------------------


def test_c11a_certificate_cycle():
    g = cycle_graph(100)
    cert = no_cutoff_certificate(g)
    exact = exact_walk_gap(g)
    ok = cert.applicable and cert.n2_product <= 50.0
    ok &= cert.gap_upper >= exact - 1e-12
    assert report("11a slow-mixing certificate on the 100-cycle", ok,
                  f"gap_upper*n^2={cert.n2_product:.1f} <= 50, "
                  f"upper {cert.gap_upper:.2e} >= exact {exact:.2e}")


def test_c11b_certificate_cylinders_constant():
    # Lower side: every Rayleigh quotient is at least the gap, so a sound
    # certificate has n2_product >= exact gap * n^2.  That exact product
    # rises with L towards the metric-K4 limit.  The first Kirchhoff
    # eigenvalue of unit-length metric K4 is mu = arccos(-1/3)^2; plain
    # paths of length L would give gap ~ mu / (2 L^2), the gadget slows
    # passage by 45/32 (see 10b), and n ~ 9L, so
    # gap * n^2 -> 81 * 16 * mu / 45 ~ 105.1.
    # Upper side: a 4-position block has 6 vertices and 9 edges, and the
    # distance function changes by 1 across all but its 2 rungs, so the
    # Dirichlet energy per vertex tends to 7/6 and the quotient to
    # 7 / (18 Var f).  Distance from an edge midpoint of metric K4 with
    # edge length L has variance L^2 / 4, so
    # gap_upper * n^2 -> 81 * (7/18) * 4 = 126, approached from below.
    # An O(1/n) gap would break the upper side as L grows.
    host = complete_graph(4)
    products = []
    exact_products = []
    ok = True
    for L in (9, 13):
        g = build_cylinder(host, L)
        cert = no_cutoff_certificate(g)
        exact = exact_walk_gap(g)
        n = g.vertex_count
        ok &= cert.applicable
        ok &= cert.gap_upper >= exact - 1e-12
        products.append(cert.n2_product)
        exact_products.append(exact * n * n)
    bounded = all(p <= 126.0 for p in products)
    assert report("11b cylinder exact*n^2 <= gap_upper*n^2 <= 126",
                  ok and bounded,
                  f"products {[f'{p:.1f}' for p in products]}, exact "
                  f"{[f'{p:.1f}' for p in exact_products]}"), \
        "cylinder certificate unsound, not applicable, or above 126"


# 12 -----------------------------------------------------------------------


def test_c12_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["build", "--variant", "five_regular", "--h", "1",
                         "--L", "2", "--seed", "1", "--out", str(out)]) == 0
        assert cli_main(["hitting", "--chain", "--variant", "no_cutoff",
                         "--h", "4", "--L", "2", "--Lprime", "4",
                         "--samples", "2000", "--seed", "12",
                         "--out", str(out)]) == 0
        assert cli_main(["cylinder-sweep", "--m", "4", "--Ls", "5,9",
                         "--seed", "2", "--stride", "1",
                         "--out", str(out)]) == 0
        runs.append(out)
    ok = True
    for name in ("graph.ev", "census.json", "hitting.json",
                 "cylinder_sweep.csv", "cylinder_sweep.json"):
        a = (runs[0] / name).read_text().splitlines()
        b = (runs[1] / name).read_text().splitlines()
        same = len(a) == len(b) and all(
            x == y or x.startswith("# generated:") for x, y in zip(a, b))
        ok &= same
    assert report("12 determinism", ok,
                  "build + seeded analyses byte-identical modulo the "
                  "timestamp header line")
