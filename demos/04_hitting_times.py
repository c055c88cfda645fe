"""Hitting times to the leaf level: sampling, the exact descent chain,
and the closed-form prediction.

Started at the root, the walk's class in the tree template is a Markov
chain of its own (cross edges join isomorphic interiors at equal height),
so leaf-hitting times can be sampled from a tiny chain at any h, with the
same law as on the full graph, for the cubic family as well.

Run:  python demos/04_hitting_times.py
"""

from expander_cutoff import (
    ConstructionParams,
    build,
    descent_chain,
    path_passage_exact,
    path_passage_oracle,
    predicted_tau,
    sample_hitting_times,
    stretched_edge_delay,
    stretched_edge_delay_mc,
)

print("one-dimensional oracles behind the delay accounting")
print("-" * 64)
mc_t, mc_v = path_passage_oracle(5, 100000, seed=1)
ex_t, ex_v = path_passage_exact(5)
print(f"passage to +-5: monte carlo {mc_t:.3f}, linear solve {ex_t:.1f}")
print(f"visits to 0:    monte carlo {mc_v:.3f}, linear solve {ex_v:.1f}")
delay_mc = stretched_edge_delay_mc(2, 100000, seed=2)
print(f"stretched-edge delay, L=2: monte carlo {delay_mc:.3f}, "
      f"closed form {stretched_edge_delay(2):.1f}")

print()
print("graph sampling vs the exact descent chain, 5-regular h=2 L=2")
print("-" * 64)
g = build(ConstructionParams(h=2, L=2))
graph_stats = sample_hitting_times(g, 0, 3000, seed=11)
chain = descent_chain(ConstructionParams(h=2, L=2))
print(f"graph sampler:  mean={graph_stats.mean:.2f} "
      f"(stderr {graph_stats.stderr():.2f})")
print(f"descent chain:  exact mean={chain.exact_mean():.2f}")
print(f"prediction:     {predicted_tau(0, 2, 2):.1f}")

print()
print("the chain scales to any h; the graph would not fit in memory")
print("-" * 64)
for h in (4, 8, 16, 40):
    ch = descent_chain(ConstructionParams(h=h, L=2))
    exact = ch.exact_mean()
    pred = predicted_tau(0, h, 2)
    print(f"h={h:3d}: chain states={ch.size:4d} exact mean={exact:8.2f} "
          f"predicted={pred:7.1f} ratio={exact/pred:.4f}")

print()
print("concentration: hitting spread shrinks relative to the mean")
print("-" * 64)
for h in (2, 4, 8):
    ch = descent_chain(ConstructionParams(h=h, L=2))
    s = ch.sample(20000, seed=5)
    print(f"h={h}: mean={s.mean():7.2f} std={s.std():6.2f} "
          f"cv={s.std()/s.mean():.3f}")
