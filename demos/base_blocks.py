"""The direct constructions for orders 2k, 4k, and 6k.

Each builder arranges one-factorization factors in a fixed pattern; the
verifier then confirms the three defining conditions from the raw cells.
The block counts are forced: a design of order n with k-edge blocks has
exactly n(n-1)/(2k) blocks, n/(2k) in every row and column.
"""

from omd import build_2k, build_4k, build_6k, render_grid, verify

print("Order 2k: one factor of the complete graph per diagonal cell.")
arr, transversal, hole = build_2k(3)
print(render_grid(arr))
print(f"  verified: {verify(arr).passed}")
print(f"  back-diagonal transversal: {transversal}")
print(f"  empty hole rows {hole.rows} x cols {hole.cols}\n")

print("Order 6k grows from a 4x4 seed on six points in three groups: at k=2")
print("each seed cell becomes a 2x2 band (rows 0-7), and the last three rows")
print("hold the edges within each group:")
print(render_grid(build_6k(2)[0]))

for label, (arr, _) in (("4k, k=2", build_4k(2)), ("6k, k=2", build_6k(2))):
    report = verify(arr)
    n, k = arr.n, arr.k
    print(
        f"order {label}: side {arr.side}, {report.total_blocks} blocks "
        f"(expected {n * (n - 1) // (2 * k)}), "
        f"{report.row_blocks[0]} per row, verified: {report.passed}"
    )
