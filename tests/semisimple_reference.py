"""Reference closures that the engine's shortcuts are checked against.

The engine reads the acting algebra off the plain span of operators that
already span an algebra's image.  ``spin_algebra`` is the unconditional
closure: it multiplies until the span stops growing, so it needs no promise
about its input and checks the engine's span independently.

``image_module`` reads the image algebra off a span of operators with its
product table: the reduced echelon basis of span(I, operators), the
structure constants read off at the pivot columns, and a product that leaves
the span refused.  The engine keeps only that basis, because the laws its
guard checks make the span closed; the table checks the closure it no
longer checks.  ``acting_algebra`` is that image's basis for a module's
action, and ``direct_sum_modules`` the block-diagonal sum the tests build
semisimple and non-semisimple fixtures from; the engine itself needs
neither.

``line_by_line_semisimple`` is the socle oracle in its plainest form: it
spins every line, keeps the distinct cyclic subspaces and compares the sum
of the simple ones with the whole space.  The engine's oracle spins one line
per sink component of the line graph and is pinned to it.
``line_graph_by_products`` builds that graph as the oracle once did, by
applying every generator to every line, and ``spin_by_products`` spins a
vector by applying the generators to it; the oracle builds its graph by
linearity and reads its spins off the graph, and is pinned to both.
``semisimple_by_complements`` decides by the splitting definition instead:
``invariant_subspaces_reference`` spins every nonzero vector and closes the
subspaces under sums, and each of them must have an invariant complement.
"""

import itertools

from hopfcheck.errors import BoundExceededError
from hopfcheck.fields import Field
from hopfcheck.hopf import AlgebraData
from hopfcheck.matrix import EchelonSpan, Matrix
from hopfcheck.modules import ModuleRep, require_same_hopf
from hopfcheck.semisimple import _extend, _image_basis


def image_module(field: Field, dim: int, operators: list[Matrix]) -> ModuleRep:
    """The image A of an acting algebra in End(F^dim), acting on F^dim: the
    engine's basis of span(I, operators), over A with structure constants
    read off at the pivot columns.  A product outside the span means the
    operators span no algebra, and is refused."""
    basis = _image_basis(field, dim, operators)
    span = EchelonSpan(field, dim * dim)
    for b in basis:
        span.add(b.flatten())
    mult = [[span.coordinates((a * b).flatten()) for b in basis] for a in basis]
    if any(None in row for row in mult):
        raise ValueError("the operators span no algebra: a product leaves their span")
    unit = span.coordinates(Matrix.identity(field, dim).flatten())
    # associative as a matrix algebra and closed as just checked
    image = AlgebraData(field, len(basis), mult, unit, name="image")
    return ModuleRep(image, dim, basis, name="image")


def acting_algebra(m: ModuleRep) -> list[Matrix]:
    """Canonical basis of the image of the algebra in End(M)."""
    return image_module(m.field, m.dim, m.action).action


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


def spin_vector_space(field: Field, dim: int, operator_rows: list[list], seed) -> EchelonSpan:
    """The smallest invariant subspace containing ``seed``; each operator is
    given as its plain list of rows over F_p."""
    p = field.characteristic
    span = EchelonSpan(field, dim)
    span.add(seed)
    work = [seed]
    idx = 0
    while idx < len(work):
        v = work[idx]
        idx += 1
        for rows in operator_rows:
            image = [sum(a * b for a, b in zip(row, v) if a) % p for row in rows]
            if span.add(image):
                work.append(image)
    return span


def _apply(rows: list[list[int]], v, p: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) % p for row in rows]


def line_code(v, p: int) -> int:
    """The base-p digits of the multiple of ``v`` whose first nonzero
    coordinate is 1; 0 for the zero vector."""
    lead = next((a for a in v if a), 0)
    scale = pow(lead, p - 2, p) if lead else 0
    code = 0
    for a in v:
        code = code * p + a * scale % p
    return code


def line_graph_by_products(generators: list[list[list[int]]], dim: int, p: int):
    """The oracle's ``(lines, images)``, each image the product of a
    generator with the line's own vector: the lines with first nonzero
    coordinate at ``lead``, tails in ``itertools.product`` order."""
    lines: list[int] = []
    images = [[0] * p**dim for _ in generators]
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            v = (0,) * lead + (1,) + tail
            code = line_code(v, p)
            lines.append(code)
            for rows, image in zip(generators, images):
                image[code] = line_code(_apply(rows, v, p), p)
    return lines, images


def spin_by_products(generators: list[list[list[int]]], seed: list[int], p: int) -> list[tuple[int, list]]:
    """The oracle's spin of ``seed``, each vector met multiplied by every
    generator, as the oracle's semi-echelon (pivot, row) list."""
    span: list[tuple[int, list[int]]] = []
    _extend(span, seed, p)
    work = [seed]
    for v in work:
        for rows in generators:
            image = _apply(rows, v, p)
            if _extend(span, image, p):
                work.append(image)
    return span


def line_by_line_semisimple(obj) -> bool:
    """Semisimple exactly when the module is its socle, the sum of its simple
    submodules.

    Every simple submodule is the spin of any of its nonzero vectors, and
    c*v spins the same subspace as v, so only the vectors whose first nonzero
    coordinate is 1 are spun -- (p^dim - 1)/(p - 1) of them.  Every nonzero
    submodule contains a simple one, so taken by dimension, a cyclic subspace
    is simple exactly when it contains none of the simple ones found before it.
    """
    field, dim = obj.field, obj.dim
    if field.characteristic == 0:
        raise BoundExceededError("brute force enumeration needs a finite field")
    p = field.characteristic
    # the distinct nonzero operators have the same invariant subspaces
    operator_rows = [op.entries for op in dict.fromkeys(op for op in obj.operators if not op.is_zero())]
    cyclic: dict[tuple, EchelonSpan] = {}
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            span = spin_vector_space(field, dim, operator_rows, [0] * lead + [1] + list(tail))
            cyclic.setdefault(tuple(tuple(r) for r in span.basis_rows()), span)
    simple: list[EchelonSpan] = []
    socle = EchelonSpan(field, dim)
    for span in sorted(cyclic.values(), key=lambda s: s.dim):
        if not any(all(span.contains(row) for row in s.basis_rows()) for s in simple):
            simple.append(span)
            for row in span.basis_rows():
                socle.add(row)
    return socle.dim == dim


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
