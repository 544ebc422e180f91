"""Matrix helpers that only the tests use.

``reference_product`` is an entrywise product, independent of
``Matrix.__mul__``'s kernel: each output entry is a sum of ``Fraction``
products, the textbook definition with no denominator clearing and no zero
skipping; over F_p the sum is reduced at the end.

``reference_rref`` is a textbook Gauss-Jordan elimination on a copy of the
whole matrix, independent of ``EchelonSpan``, which ``Matrix.rref`` reads.
"""

from fractions import Fraction

from hopfcheck.matrix import Matrix


def reference_product(a_rows, b_rows, inner: int, cols: int, p: int = 0):
    out = []
    for arow in a_rows:
        row = []
        for c in range(cols):
            total = Fraction(0)
            for k in range(inner):
                total += Fraction(arow[k]) * Fraction(b_rows[k][c])
            row.append(total % p if p else total)
        out.append(row)
    return out


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and m.rank() == m.rows


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise ValueError("column count mismatch")
    return Matrix(a.field, a.rows + b.rows, a.cols, [r[:] for r in a.entries] + [r[:] for r in b.entries])


def reference_rref(m: Matrix):
    """Reduced row echelon form with leading ones.

    Pivot choice is the first nonzero entry in column order, so the
    result is deterministic.  Returns (matrix, pivot column list).
    """
    field = m.field
    p = field.characteristic
    rows = [row[:] for row in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for r in range(pr, m.rows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = field.invert(rows[pr][pc])
        if inv != field.one():
            if p:
                rows[pr] = [(inv * x) % p for x in rows[pr]]
            else:
                rows[pr] = [inv * x if x else x for x in rows[pr]]
        prow = rows[pr]
        for r in range(m.rows):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                if p:
                    rows[r] = [(x - f * y) % p if y else x for x, y in zip(rows[r], prow)]
                else:
                    rows[r] = [x - f * y if y else x for x, y in zip(rows[r], prow)]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Matrix(field, m.rows, m.cols, rows), pivots
