"""The existence boundary at a glance.

A design of order n with k-edge blocks exists exactly when 2k divides n,
except k = 1 with n in {4, 6}. Sweeping all orders up to 24 shows every
face of the dispatch: impossible orders, the two exclusions, the direct
builders, and the product path.
"""

from omd import NonExistent, construct

print(f"{'n':>3} {'k':>2}  outcome")
for k in (1, 2, 3):
    for n in range(2, 25):
        if n % (2 * k):
            continue
        try:
            res = construct(n, k)
        except NonExistent:
            print(f"{n:3d} {k:2d}  impossible (proven exclusion)")
            continue
        side, path = res.design.side, res.path
        print(f"{n:3d} {k:2d}  side {side:2d} via {path}, certified transversal")
