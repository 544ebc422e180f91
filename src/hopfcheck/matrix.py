"""Dense exact matrices over a base field, with deterministic elimination.

Everything downstream (axiom checks, Hom spaces, radicals, certificates)
reduces to the operations here.  There is one elimination, ``EchelonSpan``;
``rref``, and through it ``rank``, ``solve_linear`` and ``kernel_basis``,
read its reduced basis.  Bases are in reduced row echelon form,
so repeated runs produce bit-identical results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import Field


def _cleared(entries):
    """Rational rows as integer rows: (entries scaled by d, d), d the lcm
    of the denominators."""
    d = lcm(*{x.denominator for row in entries for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in entries], d


class NoSolutionError(ValueError):
    """Raised when a linear system is inconsistent."""


class Matrix:
    """Immutable-by-convention dense matrix; entries stored as row lists."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"bad shape: expected {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # constructors -----------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        e = [[z] * n for _ in range(n)]
        for i in range(n):
            e[i][i] = o
        return cls(field, n, n, e)

    @classmethod
    def from_rows(cls, field, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        return cls(field, rows, cols, [list(r) for r in rows_list])

    @classmethod
    def column(cls, field, values):
        return cls(field, len(values), 1, [[v] for v in values])

    # basics -----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: {body})"

    def _check_operand(self, other, op, shape_ok):
        # fields are cached singletons, so identity settles the common case
        if other.field is not self.field and other.field != self.field:
            raise ValueError(f"field mismatch: {self.field!r} {op} {other.field!r}")
        if not shape_ok:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} {op} {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_operand(other, "+", self.rows == other.rows and self.cols == other.cols)
        add = self.field.add
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            [[add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        self._check_operand(other, "-", self.rows == other.rows and self.cols == other.cols)
        sub = self.field.sub
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            [[sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def scale(self, scalar):
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [[mul(scalar, a) for a in r] for r in self.entries])

    def __mul__(self, other):
        """Matrix product on integer rows, zero entries skipped.

        F_p residues are multiplied as they are and reduced once per output
        row.  Over Q two all-``int`` operands are multiplied as they are;
        otherwise each operand is first scaled to integers by the lcm of its
        denominators, and each output entry is divided once by the product
        of the two lcms: an ``int`` when it divides exactly, a ``Fraction``
        otherwise.
        """
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._check_operand(other, "*", self.cols == other.rows)
        p = self.field.characteristic
        aentries, oentries, d = self.entries, other.entries, 1
        # a row sums to a Fraction exactly when one of its entries is one;
        # `in` stops at the first such row, so at most one row adds Fractions
        if not p and Fraction in map(type, map(sum, aentries + oentries)):
            aentries, da = _cleared(aentries)
            oentries, db = _cleared(oentries)
            d = da * db
        ocols = other.cols
        out = []
        for arow in aentries:
            acc = [0] * ocols
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = oentries[k]
                acc = [x + a * b if b else x for x, b in zip(acc, brow)]
            if p:
                acc = [x % p for x in acc]
            out.append(acc)
        if d != 1:
            out = [[Fraction(x, d) if x % d else x // d for x in row] for row in out]
        return Matrix(self.field, self.rows, ocols, out)

    def transpose(self):
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)],
        )

    def trace(self):
        t = self.field.zero()
        add = self.field.add
        for i in range(min(self.rows, self.cols)):
            t = add(t, self.entries[i][i])
        return t

    def kron(self, other):
        """Kronecker product; block (a, b) position (a*other.rows + r, c*other.cols + s)."""
        mul = self.field.mul
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        zero = self.field.zero()
        out = [[zero] * cols for _ in range(rows)]
        for a in range(self.rows):
            for c in range(self.cols):
                x = self.entries[a][c]
                if not x:
                    continue
                rbase = a * other.rows
                cbase = c * other.cols
                for r in range(other.rows):
                    orow = other.entries[r]
                    trow = out[rbase + r]
                    for s in range(other.cols):
                        y = orow[s]
                        if y:
                            trow[cbase + s] = mul(x, y)
        return Matrix(self.field, rows, cols, out)

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def is_identity(self):
        return self.rows == self.cols and self.entries == Matrix.identity(self.field, self.rows).entries

    def flatten(self):
        """Row-major flat list of entries."""
        return [x for row in self.entries for x in row]

    @classmethod
    def from_flat(cls, field, rows, cols, flat):
        if len(flat) != rows * cols:
            raise ValueError("flat length does not match shape")
        return cls(field, rows, cols, [list(flat[r * cols : (r + 1) * cols]) for r in range(rows)])

    def power(self, k: int):
        result = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # elimination ------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form with leading ones, and its pivot columns.

        RREF is unique, so it is the canonical basis that ``EchelonSpan``
        builds from the rows, padded with zero rows: the one elimination
        kernel serves both."""
        span = EchelonSpan(self.field, self.cols)
        for row in self.entries:
            span.add(row)
        zero = self.field.zero()
        rows = span.basis_rows() + [[zero] * self.cols for _ in range(self.rows - span.dim)]
        return Matrix(self.field, self.rows, self.cols, rows), span.pivots()

    def rank(self):
        return len(self.rref()[1])


def combination(field: Field, size: int, coefficients, matrices: list[Matrix]) -> Matrix:
    """sum_i c_i M_i of size x size matrices, summed on plain rows and
    reduced mod p once."""
    acc = [[field.zero()] * size for _ in range(size)]
    for coeff, m in zip(coefficients, matrices):
        if coeff:
            acc = [[x + coeff * y if y else x for x, y in zip(out, row)] for out, row in zip(acc, m.entries)]
    p = field.characteristic
    if p:
        acc = [[x % p for x in row] for row in acc]
    return Matrix(field, size, size, acc)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    return Matrix(a.field, a.rows, a.cols + b.cols, [ra + rb for ra, rb in zip(a.entries, b.entries)])


def solve_linear(a: Matrix, b: Matrix) -> Matrix:
    """One exact solution of A*X = B (free variables set to zero).

    Raises NoSolutionError when the system is inconsistent.  B may have
    several columns; the solution is the canonical one obtained from the
    reduced echelon form of the augmented matrix.
    """
    if a.rows != b.rows:
        raise ValueError("A and B must have the same number of rows")
    if a.field != b.field:
        raise ValueError("A and B must share a field")
    aug, pivots = hstack(a, b).rref()
    for pc in pivots:
        if pc >= a.cols:
            raise NoSolutionError("inconsistent linear system")
    zero = a.field.zero()
    x = [[zero] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        x[pc] = aug.entries[r][a.cols :]
    return Matrix(a.field, a.cols, b.cols, x)


def kernel_basis(a: Matrix) -> list[Matrix]:
    """Canonical basis of the null space of A, as column vectors.

    The basis is normalized by row-reducing the stacked kernel vectors, so
    the output depends only on the null space itself.
    """
    red, pivots = a.rref()
    pivot_set = set(pivots)
    free_cols = [c for c in range(a.cols) if c not in pivot_set]
    if not free_cols:
        return []
    field = a.field
    zero, one = field.zero(), field.one()
    raw = []
    for fc in free_cols:
        v = [zero] * a.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            entry = red.entries[r][fc]
            if entry:
                v[pc] = field.neg(entry)
        raw.append(v)
    canon, _ = Matrix.from_rows(field, raw).rref()
    return [Matrix.column(field, row) for row in canon.entries if any(row)]


class EchelonSpan:
    """Incrementally maintained reduced-echelon basis of a span of vectors.

    Used for algebra closures and membership tests; ``basis_rows`` always
    lists the canonical reduced basis ordered by pivot column.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self._rows: dict[int, list] = {}  # pivot column -> normalized row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        """The pivot columns of ``basis_rows``, in order."""
        return sorted(self._rows)

    def _reduce(self, vec):
        p = self.field.characteristic
        v = list(vec)
        for pc in sorted(self._rows):
            x = v[pc]
            if x:
                row = self._rows[pc]
                if p:
                    v = [(a - x * b) % p if b else a for a, b in zip(v, row)]
                else:
                    v = [a - x * b if b else a for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def coordinates(self, vec):
        """Coordinates of ``vec`` in ``basis_rows``, or None outside the span.

        The basis is reduced, so a member's coordinates are its entries at
        the pivot columns."""
        if not self.contains(vec):
            return None
        return [vec[pc] for pc in self.pivots()]

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        v = self._reduce(vec)
        pivot = None
        for i, x in enumerate(v):
            if x:
                pivot = i
                break
        if pivot is None:
            return False
        field = self.field
        p = field.characteristic
        inv = field.invert(v[pivot])
        if inv != field.one():
            if p:
                v = [(inv * x) % p for x in v]
            else:
                v = [inv * x if x else x for x in v]
        # keep the stored rows fully reduced against the new pivot
        for pc, row in self._rows.items():
            x = row[pivot]
            if x:
                if p:
                    self._rows[pc] = [(a - x * b) % p if b else a for a, b in zip(row, v)]
                else:
                    self._rows[pc] = [a - x * b if b else a for a, b in zip(row, v)]
        self._rows[pivot] = v
        return True

    def basis_rows(self):
        return [self._rows[pc] for pc in self.pivots()]
