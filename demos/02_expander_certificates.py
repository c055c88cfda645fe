"""Seeded expander provider and the spectral/combinatorial certificates.

Run:  python demos/02_expander_certificates.py
"""

from expander_cutoff import cheeger_bruteforce, cheeger_sandwich, make_expander
from expander_cutoff.expanders import ExpanderSpec

print("certified expanders from the seeded pairing provider")
print("-" * 64)
for degree, size in ((3, 64), (3, 512), (4, 60)):
    ex = make_expander(ExpanderSpec(degree, size, 0.05, seed=1))
    print(f"degree {degree}, size {size}: lam={ex.lam:.4f} gap={ex.gap:.4f} "
          f"(attempt {ex.attempts})")

print()
print("determinism: the same spec twice gives identical edges")
a = make_expander(ExpanderSpec(3, 128, 0.05, 9))
b = make_expander(ExpanderSpec(3, 128, 0.05, 9))
print("identical:", a.graph.same_structure(b.graph))

print()
print("brute-force edge expansion inside the spectral sandwich")
print("-" * 64)
for size, seed in ((8, 1), (12, 2), (16, 3)):
    ex = make_expander(ExpanderSpec(3, size, 0.01, seed))
    lo, hi = cheeger_sandwich(ex.graph, 3)
    ch = cheeger_bruteforce(ex.graph)
    print(f"n={size}: {lo:.3f} <= ch = {ch:.3f} <= {hi:.3f}")
