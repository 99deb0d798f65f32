"""Single-edge designs: the starter recipe, side 9, the exclusions.

A side-7 array whose cells hold single edges of the complete graph on
8 points, with every row and column meeting every point exactly once,
can be written down from three pairs of residues mod 7. This walks
through that recipe, then shows the two orders where no such array
exists and the one odd case (side 9) where no strong starter exists but
a starter with another adder still gives a square.
"""

from omd import (
    NonExistent,
    StarterAdder,
    build_room,
    render_grid,
    strong_starter_search,
    validate_starter_adder,
)
from omd.room import room_from_starter

print("A strong starter on Z_7: pairs covering 1..6 whose differences")
print("hit every nonzero residue and whose sums are distinct and nonzero.")
sa = StarterAdder(7, ((1, 3), (2, 6), (4, 5)), (4, 1, 2))
validate_starter_adder(sa)
print(f"  pairs {sa.pairs}, offsets {sa.adder}\n")

print("Translating each pair through every residue fills a side-7 array")
print("(point 7 stands for the extra point paired with j on the diagonal):")
arr, transversal = room_from_starter(sa)
print(render_grid(arr))
print("Its transversal (one cell per row and column, covering all 8 points)")
print("is the anti-diagonal (j, -j mod 7), as in every square whose offsets")
print("are the pair sums:")
print(f"  {transversal.cells}\n")

print("The search finds starters for any odd side from 7 up, except 9:")
for r in (7, 11, 13, 9):
    found = strong_starter_search(r)
    print(f"  side {r}: {'starter ' + str(found.pairs) if found else 'none exists'}")
print()

print("Side 9 still carries a square, from a starter-adder that is not strong:")
arr9, _ = build_room(10)
print(render_grid(arr9))

print("Orders 4 and 6 are the two genuine exclusions:")
for n in (4, 6):
    try:
        build_room(n)
    except NonExistent as exc:
        print(f"  {exc}")
