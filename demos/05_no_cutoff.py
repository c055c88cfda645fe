"""The uneven-stretch variant: two descent routes, a mixing ratio bounded
away from 1, and the slow onset of detectable bimodality.

Run:  python demos/05_no_cutoff.py
"""

import numpy as np

from expander_cutoff import (
    ConstructionParams,
    bimodality_check,
    build,
    cutoff_report,
    descent_chain,
    hitting_mixing_ratio,
    hitting_stats,
)


def histogram(samples, bins=24, width=46):
    hist, edges = np.histogram(samples, bins=bins)
    top = hist.max()
    for c, lo, hi in zip(hist, edges[:-1], edges[1:]):
        print(f"  {lo:6.0f}-{hi:6.0f} {'#' * int(width * c / top)}")


print("exact cutoff ratio from the root, h=2 L=2 L'=4")
print("-" * 60)
g = build(ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
summaries, _ = cutoff_report(g, [0])
print(f"tmix(1/4)={summaries[0].tmix[0.25]} tmix(3/4)={summaries[0].tmix[0.75]} "
      f"ratio={summaries[0].cutoff_ratio:.3f}  (stays away from 1)")

print()
print("leaf-hitting histograms as h grows (even route vs L'-route)")
for h in (4, 24):
    chain = descent_chain(
        ConstructionParams(h=h, L=2, L_prime=4, variant="no_cutoff"))
    samples = chain.sample(20000, seed=7)
    stats = hitting_stats(samples)
    rep = bimodality_check(stats)
    print(f"\nh={h}: quantile ratio={hitting_mixing_ratio(stats):.2f} "
          f"bimodal={rep.flag} weights=({rep.cluster_weights[0]:.2f},"
          f"{rep.cluster_weights[1]:.2f}) separation={rep.separation:.2f}")
    histogram(samples)

print()
print("at h=4 the route gap (~90 steps) hides inside the within-route")
print("spread; by h=24 the two routes are far enough apart to detect.")
