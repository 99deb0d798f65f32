"""Expanding a small design into a big one.

Every point of an outer single-edge design splits into s copies; each
cell grows into an s x s subarray and s - 1 extra rows and columns
absorb the hole of the larger ingredient. The side comes out as
s(n-1) + s - 1 = sn - 1, exactly the side a design of order sn needs.
"""

from omd import build_2k, build_room, construct
from omd.factorizations import ofact_bipartite

s = 2
outer, _ = build_room(8)
cell_ingredient = ofact_bipartite(s)
t_design, _, t_hole = build_2k(s)

print(f"outer: order {outer.n}, side {outer.side}, single-edge blocks")
print(f"cell ingredient: {len(cell_ingredient)} factors of the doubled edge K_{{{s},{s}}}, "
      f"factor t at (t, t) of each {s}x{s} block: {cell_ingredient}")
print(f"transversal ingredient: side {t_design.side} with a hole of size {t_hole.size}\n")

# construct builds the outer square and both ingredients itself
res = construct(s * outer.n, s)
print(f"product: order {res.design.n}, side {res.design.side} "
      f"(= {s}*{outer.side} + {s - 1}) via {res.path}")
print(f"verified: {res.report.passed}\n")

print("The dispatcher picks the right path per order:")
for n, k in ((4, 2), (8, 2), (12, 2), (16, 2), (24, 3), (60, 5)):
    res = construct(n, k)
    print(f"  ({n:2d}, {k}): side {res.design.side:2d} via {res.path}")
