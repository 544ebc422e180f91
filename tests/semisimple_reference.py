"""Reference closures that the engine's shortcuts are checked against.

The engine reads the acting algebra off the plain span of operators that
already span an algebra's image.  ``spin_algebra`` is the unconditional
closure: it multiplies until the span stops growing, so it needs no promise
about its input and checks the engine's span independently.

``acting_algebra`` is the engine's own image of a module's action, and
``direct_sum_modules`` the block-diagonal sum the tests build semisimple and
non-semisimple fixtures from; the engine itself needs neither.

The brute-force oracle spins one vector per line and compares the socle,
the sum of the simple cyclic subspaces, with the whole space.
``semisimple_by_complements`` decides by the splitting definition instead:
``invariant_subspaces_reference`` spins every nonzero vector and closes the
subspaces under sums, and each of them must have an invariant complement.
"""

import itertools

from hopfcheck.fields import Field
from hopfcheck.matrix import EchelonSpan, Matrix
from hopfcheck.modules import ModuleRep, require_same_hopf
from hopfcheck.semisimple import _image_module


def acting_algebra(m: ModuleRep) -> list[Matrix]:
    """Canonical basis of the image of the algebra in End(M)."""
    return _image_module(m.field, m.dim, m.action).action


def direct_sum_modules(m: ModuleRep, n: ModuleRep, name: str = "") -> ModuleRep:
    """Block-diagonal sum."""
    require_same_hopf(m.algebra, n.algebra)
    field = m.field
    dim = m.dim + n.dim
    action = []
    for i in range(m.algebra.dim):
        block = Matrix.zeros(field, dim, dim).entries
        for r in range(m.dim):
            for c in range(m.dim):
                block[r][c] = m.action[i].entries[r][c]
        for r in range(n.dim):
            for c in range(n.dim):
                block[m.dim + r][m.dim + c] = n.action[i].entries[r][c]
        action.append(Matrix(field, dim, dim, block))
    return ModuleRep(m.algebra, dim, action, name=name or f"({m.name})+({n.name})")


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


def invariant_subspaces_reference(field: Field, dim: int, operators: list[Matrix]) -> dict:
    """Every invariant subspace of F_p^dim, keyed by its reduced echelon basis.

    The oracle's enumeration in its plainest form: the spin of every nonzero
    vector through ``Matrix`` products, then pairwise sums of all known
    subspaces rescanned until nothing new appears.  The operators are taken
    as given, zero and repeated ones included.
    """
    p = field.characteristic
    spaces: dict[tuple, list] = {(): []}
    for vec in itertools.product(range(p), repeat=dim):
        if not any(vec):
            continue
        span = EchelonSpan(field, dim)
        span.add(list(vec))
        work = [list(vec)]
        idx = 0
        while idx < len(work):
            v = work[idx]
            idx += 1
            for op in operators:
                image = (op * Matrix.column(field, v)).flatten()
                if span.add(image):
                    work.append(image)
        rows = span.basis_rows()
        spaces.setdefault(tuple(tuple(r) for r in rows), rows)

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
    return spaces


def semisimple_by_complements(field: Field, dim: int, operators: list[Matrix]) -> bool:
    """The splitting definition: every invariant subspace has an invariant
    complement among ``invariant_subspaces_reference``."""
    spaces = list(invariant_subspaces_reference(field, dim, operators).values())

    def spans_everything(rows1, rows2):
        union = EchelonSpan(field, dim)
        for row in rows1 + rows2:
            union.add(list(row))
        return union.dim == dim

    return all(
        any(len(rows) + len(rows2) == dim and spans_everything(rows, rows2) for rows2 in spaces)
        for rows in spaces
    )
