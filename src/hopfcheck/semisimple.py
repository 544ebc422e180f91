"""Semisimplicity decisions via Jacobson-radical computation.

The engine works on any list of operators on F^m: it spins the unital
matrix algebra they generate, extracts that algebra's structure constants,
and computes the radical through its (faithful) regular representation:

* characteristic 0: the radical is the kernel of the trace form
  tr(xy) (Dickson's criterion);
* characteristic p: a descending chain of subspaces cut out by the
  characteristic-polynomial coefficient forms of index 1, p, p^2, ...,
  the standard iterated trace-form algorithm for algebras over F_p.

A comodule is decided as the module over the dual Hopf algebra H* that it
is, and a Yetter-Drinfel'd module through the H-action and H*-action
matrices together.

Verdicts carry a radical basis as a certificate; every element is checked
to be nilpotent before the report is returned.  A brute-force oracle that
enumerates all submodules over small finite fields provides the
independent cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .comodules import ComoduleRep
from .errors import BoundExceededError
from .fields import Field
from .matrix import EchelonSpan, Matrix, kernel_basis, solve_linear
from .modules import ModuleRep
from .yd import YDModuleRep

DEFAULT_ORACLE_BOUND = 6561  # largest vector count the brute force will walk


@dataclass
class SemisimplicityReport:
    verdict: bool
    radical_dim: int
    radical_basis: list[Matrix]
    method: str

    def to_doc(self):
        return {
            "verdict": self.verdict,
            "radical_dim": self.radical_dim,
            "method": self.method,
            "radical_basis": [
                [[m.field.scalar_to_doc(x) for x in row] for row in m.entries]
                for m in self.radical_basis
            ],
        }


def charpoly(m: Matrix) -> list:
    """Ascending coefficient list of det(lambda*I - A), length rows+1."""
    field = m.field
    n = m.rows
    one, zero = field.one(), field.zero()
    if n == 0:
        return [one]
    h = [row[:] for row in m.entries]

    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        pivot = None
        for r in range(j + 1, n):
            if h[r][j]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != j + 1:
            h[j + 1], h[pivot] = h[pivot], h[j + 1]
            for r in range(n):
                h[r][j + 1], h[r][pivot] = h[r][pivot], h[r][j + 1]
        inv = field.invert(h[j + 1][j])
        for r in range(j + 2, n):
            x = h[r][j]
            if not x:
                continue
            f = field.mul(x, inv)
            hr, hp = h[r], h[j + 1]
            for c in range(j, n):
                if hp[c]:
                    hr[c] = field.sub(hr[c], field.mul(f, hp[c]))
            for r2 in range(n):
                x2 = h[r2][r]
                if x2:
                    h[r2][j + 1] = field.add(h[r2][j + 1], field.mul(f, x2))

    # leading principal minors of (lambda*I - H) by the Hessenberg recurrence
    polys = [[one]]
    for k in range(1, n + 1):
        diag = h[k - 1][k - 1]
        prev = polys[k - 1]
        cur = [zero] + list(prev)  # multiply by lambda
        if diag:
            for e in range(len(prev)):
                cur[e] = field.sub(cur[e], field.mul(diag, prev[e]))
        subprod = one
        for i in range(2, k + 1):
            subprod = field.mul(subprod, h[k - i + 1][k - i])
            if not subprod:
                break
            x = h[k - i][k - 1]
            if not x:
                continue
            scale = field.mul(x, subprod)
            lower = polys[k - i]
            for e in range(len(lower)):
                cur[e] = field.sub(cur[e], field.mul(scale, lower[e]))
        polys.append(cur)
    return polys[n]


def spin_algebra(field: Field, dim: int, generators: list[Matrix]) -> list[Matrix]:
    """Canonical basis of the unital matrix algebra generated by the operators."""
    if dim == 0:
        return []
    span = EchelonSpan(field, dim * dim)
    work: list[Matrix] = []
    for m in [Matrix.identity(field, dim)] + list(generators):
        if span.add(m.flatten()):
            work.append(m)
    idx = 0
    while idx < len(work):
        x = work[idx]
        idx += 1
        for g in generators:
            prod = x * g
            if span.add(prod.flatten()):
                work.append(prod)
    return [Matrix.from_flat(field, dim, dim, row) for row in span.basis_rows()]


def acting_algebra(m: ModuleRep) -> list[Matrix]:
    """Canonical basis of the image of the algebra in End(M)."""
    return spin_algebra(m.field, m.dim, m.action)


def _structure_constants(field: Field, dim: int, basis: list[Matrix]):
    """Multiplication tensor of the spanned algebra in the given basis."""
    r = len(basis)
    width = dim * dim
    flats = [b.flatten() for b in basis]
    cols = Matrix(field, width, r, [[f[i] for f in flats] for i in range(width)])
    flat_products = []
    for u in range(r):
        for v in range(r):
            flat_products.append((basis[u] * basis[v]).flatten())
    rhs = Matrix(field, width, r * r, [[col[i] for col in flat_products] for i in range(width)])
    coords = solve_linear(cols, rhs)
    return [[[coords.entries[t][u * r + v] for t in range(r)] for v in range(r)] for u in range(r)]


def _left_mult_matrices(field: Field, mult) -> list[Matrix]:
    r = len(mult)
    mats = []
    for u in range(r):
        zero = field.zero()
        e = [[zero] * r for _ in range(r)]
        for v in range(r):
            for t, c in enumerate(mult[u][v]):
                if c:
                    e[t][v] = c
        mats.append(Matrix(field, r, r, e))
    return mats


def _fast_trace_of_product(a: Matrix, b: Matrix):
    field = a.field
    p = field.characteristic
    total = 0 if p else field.zero()
    for i, arow in enumerate(a.entries):
        for j, x in enumerate(arow):
            if x:
                y = b.entries[j][i]
                if y:
                    total = total + x * y
    return total % p if p else total


def _canonical_vectors(field: Field, vectors: list[list]) -> list[list]:
    span = EchelonSpan(field, len(vectors[0]) if vectors else 0)
    for v in vectors:
        span.add(v)
    return span.basis_rows()


def _radical_coordinates(field: Field, mult) -> tuple[list[list], str]:
    """Radical of the abstract algebra, as coordinate vectors in its basis.

    Uses the regular representation, which is faithful because the algebra
    is unital, so all characteristic polynomials have size dim(A).
    """
    r = len(mult)
    if r == 0:
        return [], "TraceForm"
    lmats = _left_mult_matrices(field, mult)
    p = field.characteristic
    one = field.one()

    def element_matrix(coords) -> Matrix:
        acc = Matrix.zeros(field, r, r)
        for u, c in enumerate(coords):
            if c:
                acc = acc + lmats[u].scale(c)
        return acc

    # current subspace, initially the whole algebra in coordinates
    current = [[one if v == u else field.zero() for v in range(r)] for u in range(r)]
    method = "TraceForm" if p == 0 else "IteratedTraceForm"

    q = 1
    while True:
        if not current:
            break
        mats = [element_matrix(c) for c in current]
        s = len(mats)
        gram_rows = []
        for a in range(s):
            row = []
            for b in range(s):
                if q == 1:
                    row.append(_fast_trace_of_product(mats[a], mats[b]))
                else:
                    row.append(charpoly(mats[a] * mats[b])[r - q])
            gram_rows.append(row)
        gram = Matrix(field, s, s, gram_rows)
        alpha_vectors = kernel_basis(gram.transpose())
        new_vectors = []
        for alpha in alpha_vectors:
            combo = [field.zero()] * r
            for a, coeff in enumerate(col[0] for col in alpha.entries):
                if coeff:
                    for u in range(r):
                        x = current[a][u]
                        if x:
                            combo[u] = field.add(combo[u], field.mul(coeff, x))
            new_vectors.append(combo)
        current = _canonical_vectors(field, new_vectors) if new_vectors else []
        if p == 0:
            break
        q *= p
        if q > r:
            break
    return current, method


def _operator_semisimplicity(field: Field, dim: int, operators: list[Matrix]) -> SemisimplicityReport:
    method_for_char = "TraceForm" if field.characteristic == 0 else "IteratedTraceForm"
    if dim == 0:
        return SemisimplicityReport(True, 0, [], method_for_char)
    basis = spin_algebra(field, dim, operators)
    mult = _structure_constants(field, dim, basis)
    coords, method = _radical_coordinates(field, mult)
    radical = []
    for c in coords:
        acc = Matrix.zeros(field, dim, dim)
        for u, coeff in enumerate(c):
            if coeff:
                acc = acc + basis[u].scale(coeff)
        radical.append(acc)
    if radical:
        radical = [
            Matrix.from_flat(field, dim, dim, row)
            for row in _canonical_vectors(field, [m.flatten() for m in radical])
        ]
    for z in radical:
        if not z.power(dim).is_zero():
            raise AssertionError("radical certificate failed nilpotency check")
    return SemisimplicityReport(not radical, len(radical), radical, method)


def is_semisimple(m: ModuleRep) -> SemisimplicityReport:
    return _operator_semisimplicity(m.field, m.dim, m.action)


def is_cosemisimple(c: ComoduleRep) -> SemisimplicityReport:
    """A comodule is cosemisimple exactly when it is semisimple as an H*-module."""
    return is_semisimple(c.star_module)


def is_yd_semisimple(y: YDModuleRep) -> SemisimplicityReport:
    """Radical criterion on the algebra generated by the H-action and the
    H*-action matrices; their joint stable subspaces are exactly the
    subobjects in the Yetter-Drinfel'd category."""
    operators = list(y.module.action) + y.comodule.star_module.action
    return _operator_semisimplicity(y.field, y.dim, operators)


# brute-force oracle ---------------------------------------------------------


def _spin_vector_space(field: Field, dim: int, operators, seeds) -> EchelonSpan:
    span = EchelonSpan(field, dim)
    work = []
    for v in seeds:
        if span.add(list(v)):
            work.append(list(v))
    idx = 0
    while idx < len(work):
        v = work[idx]
        idx += 1
        for op in operators:
            image = (op * Matrix.column(field, v)).flatten()
            if span.add(image):
                work.append(image)
    return span


def _brute_force_operators(field: Field, dim: int, operators: list[Matrix], bound: int) -> bool:
    """Splitting definition, verbatim: enumerate all invariant subspaces and
    demand a complementary invariant subspace for each."""
    if field.characteristic == 0:
        raise BoundExceededError("brute force enumeration needs a finite field")
    p = field.characteristic
    if p**dim > bound:
        raise BoundExceededError(f"{p}^{dim} exceeds the oracle bound {bound}")
    if dim == 0:
        return True

    spaces: dict[tuple, list] = {(): []}
    for vec in itertools.product(range(p), repeat=dim):
        if not any(vec):
            continue
        span = _spin_vector_space(field, dim, operators, [list(vec)])
        rows = span.basis_rows()
        spaces.setdefault(tuple(tuple(r) for r in rows), rows)

    # close the collection under pairwise sums
    grew = True
    while grew:
        grew = False
        keys = list(spaces)
        for k1 in keys:
            for k2 in keys:
                union = EchelonSpan(field, dim)
                for row in spaces[k1]:
                    union.add(list(row))
                for row in spaces[k2]:
                    union.add(list(row))
                rows = union.basis_rows()
                key = tuple(tuple(r) for r in rows)
                if key not in spaces:
                    spaces[key] = rows
                    grew = True

    dims = {key: len(rows) for key, rows in spaces.items()}
    for key, rows in spaces.items():
        want = dim - dims[key]
        found = False
        for key2, rows2 in spaces.items():
            if dims[key2] != want:
                continue
            union = EchelonSpan(field, dim)
            for row in rows:
                union.add(list(row))
            for row in rows2:
                union.add(list(row))
            if union.dim == dim:
                found = True
                break
        if not found:
            return False
    return True


def brute_force_semisimple(m: ModuleRep, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    return _brute_force_operators(m.field, m.dim, m.action, bound)


def brute_force_cosemisimple(c: ComoduleRep, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    return _brute_force_operators(c.field, c.dim, c.star_module.action, bound)


def brute_force_yd_semisimple(y: YDModuleRep, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    operators = list(y.module.action) + y.comodule.star_module.action
    return _brute_force_operators(y.field, y.dim, operators, bound)
