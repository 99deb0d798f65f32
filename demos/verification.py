"""What the verifier catches, one corruption at a time.

The checker recomputes everything from raw cells: block shape, row and
column resolution, exact pair coverage. Each report entry carries the
first counterexample, so a broken array names its own defect. A design
is plain data, DesignArray(side, n, k, cells) on K_n, so each corruption
below is an edited copy of the cells wrapped with the same side, n and k.
"""

from omd import DesignArray, build_2k, verify

arr, _, _ = build_2k(3)
print(f"intact order-6 design: verified = {verify(arr).passed}\n")


def show(title, mutant):
    report = verify(mutant)
    print(title)
    for check in report.checks:
        mark = "ok  " if check.passed else "FAIL"
        detail = f" -- {check.detail}" if check.detail else ""
        print(f"  [{mark}] {check.name}{detail}")
    print()


cells = dict(arr.cells)
del cells[(2, 2)]
show("drop the block at (2, 2):", DesignArray(arr.side, arr.n, arr.k, cells))

cells = dict(arr.cells)
cells[(0, 1)] = cells[(0, 0)]
dup = DesignArray(arr.side, arr.n, arr.k, cells)
show("copy the block at (0, 0) into (0, 1):", dup)

cells = dict(arr.cells)
cells[(0, 0)], cells[(1, 1)] = cells[(1, 1)], cells[(0, 0)]
swapped = DesignArray(arr.side, arr.n, arr.k, cells)
print("swap the blocks at (0, 0) and (1, 1):")
print(f"  still verified = {verify(swapped).passed}")
print("  both blocks cover all six points, so every row and column")
print("  resolution survives and the same pairs appear exactly once;")
print("  swapping full resolution classes is not a corruption at all.")
