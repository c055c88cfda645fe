"""Build each graph family at desk scale and audit its structure.

Run:  python demos/01_constructions.py
"""

from expander_cutoff import (
    ConstructionParams,
    assert_regular,
    build,
    build_cylinder,
    choose_L,
    from_text,
    is_connected,
    level_census,
    make_expander,
    theoretical_tstar,
    to_text,
)
from expander_cutoff.expanders import ExpanderSpec

print("=" * 70)
print("5-regular family")
print("=" * 70)
for h in (1, 2):
    g = build(ConstructionParams(h=h, L=2))
    census = level_census(g)
    print(f"h={h} L=2: n={g.vertex_count} m={g.edge_count} "
          f"5-regular={assert_regular(g, 5)} connected={is_connected(g)}")
    print(f"  level sizes: L2={census[2]} L{h+2}={census[h+2]} "
          f"L{3*h+2}={census[3*h+2]}  (expected 20, {20*4**h}, {20*2**(6*h)})")
    print(f"  theoretical worst-case time scale: {theoretical_tstar(h, 2):.0f}")

print()
print("=" * 70)
print("cubic family (expanders embedded through line graphs)")
print("=" * 70)
for h in (2, 3):
    g = build(ConstructionParams(h=h, L=2, variant="cubic"))
    print(f"h={h} L=2: n={g.vertex_count} 3-regular={assert_regular(g, 3)} "
          f"connected={is_connected(g)} leaves={int((g.role == 3).sum())}")

print()
print("=" * 70)
print("uneven-stretch variant (odd subtrees stretched to L')")
print("=" * 70)
g = build(ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
lo = build(ConstructionParams(h=2, L=2)).vertex_count
hi = build(ConstructionParams(h=2, L=4)).vertex_count
print(f"h=2 L=2 L'=4: n={g.vertex_count} (between the L=2 build {lo} "
      f"and the L=4 build {hi})")
print(f"still 5-regular: {assert_regular(g, 5)}")

print()
print("=" * 70)
print("cylinder family (every host edge becomes a degree-3 ladder)")
print("=" * 70)
host = make_expander(ExpanderSpec(3, 8, 0.01, 3))
for L in (5, 9):
    g = build_cylinder(host, L)
    expected = 8 + host.graph.edge_count * 3 * (L - 1) // 2
    print(f"m=8 L={L}: n={g.vertex_count} (closed form {expected}) "
          f"3-regular={assert_regular(g, 3)}")

print()
print("=" * 70)
print("serialization round trip and the stretch-length floor")
print("=" * 70)
g = build(ConstructionParams(h=1, L=2))
text = to_text(g)
assert to_text(from_text(text)) == text
print(f"round trip of the h=1 build is bit-exact ({len(text)} bytes)")
print(f"gap-derived floor for the certified gaps "
      f"({g.meta['gap1']:.3f}, {g.meta['gap2']:.3f}): "
      f"L >= {choose_L(g.meta['gap1'], g.meta['gap2'])}; desk-scale runs "
      f"take L below it (recorded as "
      f"meets_L_floor={g.meta['meets_L_floor']})")
