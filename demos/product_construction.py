"""Expanding a small design into a big one.

Every point of an outer single-edge design splits into s copies; each
cell grows into an s x s subarray and s - 1 extra rows and columns
absorb the hole of the larger ingredient. The side comes out as
s(n-1) + s - 1 = sn - 1, exactly the side a design of order sn needs.
"""

from omd import (
    IngredientSet,
    build_2k,
    build_m1k,
    build_room,
    compose,
    construct,
    verify,
)

s = k = 2
outer, outer_transversal = build_room(8)
cell_ingredient = build_m1k(k)
t_design, t_transversal, t_hole = build_2k(k)

print(f"outer: order {outer.n}, side {outer.side}, single-edge blocks")
print(f"cell ingredient: side {cell_ingredient.side} on the doubled edge")
print(f"transversal ingredient: side {t_design.side} with a hole of size {t_hole.size}\n")

design = compose(
    IngredientSet(
        outer=outer,
        outer_transversal=outer_transversal,
        cell_ingredient=cell_ingredient,
        transversal_ingredient=t_design,
        ingredient_transversal=t_transversal,
        ingredient_hole=t_hole,
    )
)
print(f"composed: order {design.n}, side {design.side} "
      f"(= {s}*{outer.side} + {s - 1})")
print(f"verified: {verify(design).passed}\n")

print("The dispatcher picks the right path per order:")
for n, k in ((4, 2), (8, 2), (12, 2), (16, 2), (24, 3), (60, 5)):
    res = construct(n, k)
    print(f"  ({n:2d}, {k}): side {res.design.side:2d} via {res.path}")
