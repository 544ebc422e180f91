"""Matrix helpers that only the tests use.

``reference_product`` is an entrywise product, independent of
``Matrix.__mul__``'s kernel: each output entry is a sum of ``Fraction``
products, the textbook definition with no denominator clearing and no zero
skipping; over F_p the sum is reduced at the end.
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
