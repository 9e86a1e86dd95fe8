"""Exact rational linear solving by sparse Gaussian elimination.

This is the reference solver for the graded image system: the tests build
p = sum_i (x_i - t dz_i) g_i as a linear system (``image_witness_by_solve``
in tests/reference.py) and check the witnesses of ``mathieu``'s division
against its solutions.  Nothing in the package itself calls ``solve``.

Rows are dicts mapping column index to a nonzero Fraction.  Forward
elimination processes columns in ascending order with partial pivoting by
coefficient magnitude (ties broken by the lowest row index), so runs are
deterministic.  Only rows at or below the pivot frontier are combined, which
keeps previously skipped (free) columns zero and makes the consistency check
after elimination sound.
"""

from __future__ import annotations

from fractions import Fraction

SparseRow = dict[int, Fraction]


def solve(rows: list[SparseRow], rhs: list[Fraction], ncols: int) -> list[Fraction] | None:
    """Solve A x = b exactly; returns one solution (free variables set to 0)
    or None if the system is inconsistent."""
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []  # (row, column) in elimination order
    frontier = 0
    for col in range(ncols):
        best = None
        for r in range(frontier, nrows):
            val = rows[r].get(col)
            if val:
                mag = abs(val)
                if best is None or mag > best[0]:
                    best = (mag, r)
        if best is None:
            continue
        r = best[1]
        if r != frontier:
            rows[frontier], rows[r] = rows[r], rows[frontier]
            rhs[frontier], rhs[r] = rhs[r], rhs[frontier]
        pivot_row = rows[frontier]
        pivot_val = pivot_row[col]
        for r2 in range(frontier + 1, nrows):
            val = rows[r2].get(col)
            if not val:
                continue
            factor = val / pivot_val
            row2 = rows[r2]
            for c, pv in pivot_row.items():
                acc = row2.get(c, Fraction(0)) - factor * pv
                if acc:
                    row2[c] = acc
                else:
                    row2.pop(c, None)
            rhs[r2] -= factor * rhs[frontier]
        pivots.append((frontier, col))
        frontier += 1
        if frontier == nrows:
            break
    for r in range(frontier, nrows):
        if rhs[r] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for r, col in reversed(pivots):
        row = rows[r]
        acc = rhs[r]
        for c, v in row.items():
            if c != col:
                acc -= v * solution[c]
        solution[col] = acc / row[col]
    return solution
