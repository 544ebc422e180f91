"""Semisimplicity decisions via Jacobson-radical computation.

An algebra A acting on V through rho: A -> End(V) makes V semisimple
exactly when Rad(A) acts as zero.  The acting algebra is H for a module,
the dual H* for a comodule, and the Drinfel'd double D(H) = H* H for a
Yetter-Drinfel'd module.  The radical the report certifies is that of the
image rho(A) = A/Ann(V), and for finite-dimensional A
Rad(A/I) = (Rad A + I)/I (Pierce, *Associative Algebras*, 1982), so
Rad(rho(A)) = rho(Rad A).

One guard comes first, for every kind: ``modules.require_laws`` refuses an
object with an ``AxiomError`` carrying the failing report exactly when its
axiom report or its Hopf algebra's fails.  It reads the named law tables
``laws`` of H and of the object, each computed once per object for the
reports and the guard alike.  A product of lawful objects is lawful
(``duality.tensor_in_category``), so ``tensor_semisimplicity`` decides
M (x) N behind its factors' guard, never the product's own.  Then each
object shape takes one route:

* a module or a comodule (an H*-module) has one face, whose algebra A acts
  by the operators.  Rad(A) is computed once per algebra object and mapped
  through the face; no image algebra is built, and Rad(A) = 0 gives the
  empty report.  The product M (x) N of two such objects is not built
  either (``tensor_semisimplicity``): z acts on it by
  sum_jt Delta(z)^jt A_j (x) A'_t, so Rad(A) is pushed through Delta, once
  per algebra object, and onto the factors, one operator per radical basis
  vector;
* a YD module, or a product of two, has two faces and acts through D(H).
  D(H) is semisimple exactly when H and H* are (Radford, *J. Algebra* 157,
  1993), so when Rad(H) and Rad(H*) are both zero the object is
  semisimple.  Otherwise its image is that of D(H), whose table is not
  built.  Once the laws hold, V is a D(H)-module (Kassel, *Quantum
  Groups*, ch. IX) and the operators B_t A_j are the action of the basis
  f_t h_j of D(H), so their span is the image of D(H), closed under
  products without a check.  Its reduced echelon basis is all the route
  uses.  The product of two such YD objects is built, and decided once per
  face key in the verdict cache that ``cached_verdict`` fills.

A radical is computed in a faithful representation of the algebra on F^n:
the regular one (n = dim A) for H and H*, and V itself (n = dim V) for a
YD object's image, which acts faithfully on V by construction:

* characteristic 0: the radical is the kernel of the trace form
  tr(xy) on F^n (Dickson's criterion);
* characteristic p: a descending chain of subspaces cut out by the
  characteristic-polynomial coefficient forms of index 1, p, p^2, ... up
  to n, the iterated trace-form chain of Cohen, Ivanyos and Wales (1997),
  which runs in any faithful representation A <= M_n(F_p).

Verdicts carry the radical of the image, as the reduced echelon basis of
its span in End(V), as a certificate; every element is checked to be
nilpotent before the report is returned.  A brute-force oracle over a
small finite field provides the independent cross-check: it builds the
graph of the lines of F_p^dim under a generating set of the operators,
by linearity, spins one line per sink component along the graph's edges,
and compares the socle (the sum of the simple submodules) with the whole
space.  The graph has a node for every line, so the oracle refuses a p^dim
above its cap.
"""

from __future__ import annotations

import weakref
from collections import namedtuple

from .duality import _common_category, tensor_in_category
from .errors import DEFAULT_ORACLE_BOUND, BoundExceededError
from .fields import Field, _integral
from .hopf import AlgebraData, HopfAlgebraData
from .matrix import EchelonSpan, Matrix, combination, kernel_basis
from .modules import require_laws, require_same_hopf, tensor_operator


class SemisimplicityReport(namedtuple("SemisimplicityReport", "verdict radical_dim radical_basis method")):
    """verdict, the radical's dimension, its reduced echelon basis in End(V)
    (a list of matrices) and the method's name."""

    __slots__ = ()

    def to_doc(self):
        return {
            "verdict": self.verdict,
            "radical_dim": self.radical_dim,
            "method": self.method,
            "radical_basis": [m.field.table_to_doc(m.entries) for m in self.radical_basis],
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


def _echelon(field: Field, vectors: list[list]) -> list[list]:
    """The reduced echelon basis of the span of ``vectors``.  Elimination
    leaves integral values as Fraction(n, 1) over Q; the basis holds them
    as ints, so products of it stay on the all-int path."""
    span = EchelonSpan(field, len(vectors[0]) if vectors else 0)
    for v in vectors:
        span.add(v)
    rows = span.basis_rows()
    if not field.characteristic:
        rows = [[_integral(x) for x in row] for row in rows]
    return rows


def _image_basis(field: Field, dim: int, operators: list[Matrix]) -> list[Matrix]:
    """The reduced echelon basis of span(I, operators) in End(F^dim): the
    image of the acting algebra when the operators span it, as those of an
    object that passed ``require_laws`` do."""
    identity = Matrix.identity(field, dim).flatten()
    rows = _echelon(field, [identity] + [m.flatten() for m in operators])
    return [Matrix.from_flat(field, dim, dim, row) for row in rows]


def _radical_coordinates(field: Field, basis: list[Matrix]) -> list[list]:
    """Radical of the algebra A spanned by the n x n matrices ``basis``, as
    reduced coordinate vectors in that basis: A acts faithfully on F^n.

    * Characteristic 0: I = {a : tr(ab) = 0 for all b}, traces taken on
      F^n, is an ideal, and each a in I has tr(a^k) = tr(a a^(k-1)) = 0 for
      every k >= 1, so a is nilpotent and I lies in Rad(A); an element of
      Rad(A) times any b is nilpotent, so of trace 0.  Hence I = Rad(A):
      Dickson's criterion holds in any faithful representation.
    * Characteristic p: the chain of Cohen, Ivanyos and Wales ("Finding the
      radical of an algebra of linear transformations", JPAA 117, 1997),
      which runs in any faithful representation A <= M_n(F_p).  I_0 is cut
      out by tr(ab) and I_k, inside I_(k-1), by the coefficient of
      lambda^(n-q) in charpoly(ab), q = p^k; it reaches Rad(A) once q > n.

    tr(ab) is the dot product of the entries of a and of b^T, so the trace
    Gram matrix is one product F G^T, F with the flattened elements as rows
    and G their flattened transposes.  charpoly(ab) = charpoly(ba), so each
    later Gram matrix is symmetric and only its upper triangle is computed.
    """
    p = field.characteristic
    n = basis[0].rows if basis else 0
    # current subspace, initially the whole algebra in coordinates
    current = Matrix.identity(field, len(basis)).entries
    q = 1
    while current:
        mats = [combination(field, n, c, basis) for c in current]
        if q == 1:
            flats = Matrix.from_rows(field, [a.flatten() for a in mats])
            gram = flats * Matrix.from_rows(field, [b.transpose().flatten() for b in mats]).transpose()
        else:
            size = len(mats)
            rows = [[None] * size for _ in range(size)]
            for i, a in enumerate(mats):
                for j in range(i, size):
                    rows[i][j] = rows[j][i] = charpoly(a * mats[j])[n - q]
            gram = Matrix(field, size, size, rows)
        alphas = [alpha.flatten() for alpha in kernel_basis(gram)]
        if not alphas:
            return []
        combos = Matrix.from_rows(field, alphas) * Matrix.from_rows(field, current)
        current = _echelon(field, combos.entries)
        q *= p
        if p == 0 or q > n:
            break
    return current


# Rad(A) per acting algebra object, as from _radical_coordinates; algebras are
# immutable, and weak keys keep no decided algebra alive
_RADICALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _algebra_radical(algebra: AlgebraData) -> list[list]:
    radical = _RADICALS.get(algebra)
    if radical is None:
        radical = _RADICALS[algebra] = _radical_coordinates(algebra.field, algebra.regular_action_matrices())
    return radical


# Delta(z) for each z in the basis of Rad(A), kept beside it per algebra object
_COPRODUCT_RADICALS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _coproduct_radical(algebra: HopfAlgebraData) -> list[list[list]]:
    """The tables Delta(z)^jt = sum_i z_i Delta_i^jt, one per basis vector z
    of ``_algebra_radical``, in the shape of a coproduct slab."""
    tables = _COPRODUCT_RADICALS.get(algebra)
    if tables is None:
        field, d = algebra.field, algebra.dim
        slabs = [Matrix(field, d, d, slab) for slab in algebra.comult]
        tables = [combination(field, d, z, slabs).entries for z in _algebra_radical(algebra)]
        _COPRODUCT_RADICALS[algebra] = tables
    return tables


def _radical_report(field: Field, dim: int, images: list[Matrix]) -> SemisimplicityReport:
    """The report certified by ``images``, the radical of an acting algebra
    mapped into End(F^dim): their reduced echelon basis, which does not
    depend on the basis the radical was computed in, each element checked
    to be nilpotent."""
    method = "TraceForm" if field.characteristic == 0 else "IteratedTraceForm"
    rows = _echelon(field, [image.flatten() for image in images])
    radical = [Matrix.from_flat(field, dim, dim, row) for row in rows]
    for z in radical:
        # z is nilpotent exactly when z^(2^k) = 0 for the least 2^k >= dim
        power, exponent = z, 1
        while exponent < dim and not power.is_zero():
            power, exponent = power * power, 2 * exponent
        if not power.is_zero():
            raise AssertionError("radical certificate failed nilpotency check")
    return SemisimplicityReport(not radical, len(radical), radical, method)


def _operator_semisimplicity(field: Field, dim: int, operators: list[Matrix]) -> SemisimplicityReport:
    """Verdict on V = F^dim by the radical of the image its operators span,
    the route of a YD object over a non-semisimple double.  The image's
    reduced echelon basis acts faithfully on F^dim, where its radical is
    computed: V is smaller than the image's regular representation when
    dim A > dim V.  The operators are not checked here: ``is_semisimple``
    and ``tensor_semisimplicity`` guard them."""
    basis = _image_basis(field, dim, operators)
    coordinates = _radical_coordinates(field, basis)
    return _radical_report(field, dim, [combination(field, dim, z, basis) for z in coordinates])


def _cached_report(obj, cache: dict, decide) -> SemisimplicityReport:
    """``decide(obj)``, memoized in ``cache`` under each face's
    ``verdict_key`` (see ``cached_verdict``)."""
    key = tuple(face.verdict_key for face in obj.faces)
    report = cache.get(key)
    if report is None:
        report = cache[key] = decide(obj)
    return report


def _semisimple_double(h: HopfAlgebraData) -> bool:
    """Whether D(H) is semisimple: exactly when H and H* are (Radford,
    J. Algebra 157, 1993).  Its integral is lambda >< Lambda, and
    eps(lambda >< Lambda) = lambda(1) eps(Lambda) is nonzero, by Larson and
    Sweedler, exactly when both are semisimple.  The image of D(H) in End(V)
    then has zero radical too."""
    return not _algebra_radical(h) and not _algebra_radical(h.dual_algebra())


def _lawful_semisimplicity(obj) -> SemisimplicityReport:
    """``is_semisimple`` of an object whose laws hold, unguarded."""
    field, dim, faces = obj.field, obj.dim, obj.faces
    if len(faces) == 1:
        (face,) = faces
        return _radical_report(field, dim, [combination(field, dim, z, face.action) for z in _algebra_radical(face.algebra)])
    if _semisimple_double(obj.hopf):
        return _radical_report(field, dim, [])
    return _operator_semisimplicity(field, dim, obj.operators)


def tensor_semisimplicity(m, n, cache: dict | None = None) -> SemisimplicityReport:
    """``is_semisimple(tensor_in_category(m, n))`` for two objects of one
    kind over one Hopf algebra.

    Both objects pass the guard first, so an unlawful factor is refused with
    its own ``AxiomError``; the product of lawful objects is lawful
    (``duality.tensor_in_category``), so it is decided with no guard of its
    own.  A module or comodule pair is not built: M (x) N is a module over
    the algebra A of the factors' faces, where z acts by
    rho(z) = sum_jt Delta(z)^jt A_j (x) A'_t, so Rad(A) pushed through Delta
    (``_coproduct_radical``) and onto the factors (``tensor_operator``) is
    the product's radical image, one operator per radical basis vector.  A
    YD pair is semisimple over a semisimple double (``_semisimple_double``),
    and is otherwise built and its image decided, once per face key in
    ``cache`` (see ``cached_verdict``)."""
    _common_category(m, n, "cannot tensor objects of different kinds")
    require_same_hopf(m.hopf, n.hopf)
    require_laws(m)
    require_laws(n)
    field, dim, faces = m.field, m.dim * n.dim, m.faces
    if len(faces) == 1:
        (face,), (other,) = faces, n.faces
        return _radical_report(field, dim, [tensor_operator(face, other, delta) for delta in _coproduct_radical(face.algebra)])
    if _semisimple_double(m.hopf):
        return _radical_report(field, dim, [])
    return _cached_report(tensor_in_category(m, n), {} if cache is None else cache, _lawful_semisimplicity)


def is_semisimple(obj) -> SemisimplicityReport:
    """Whether the radical of the acting algebra acts as zero: H for a
    module, H* for a comodule, D(H) for a Yetter-Drinfel'd module; the
    stable subspaces are exactly the subobjects in each category.  An
    object whose laws fail is refused with an ``AxiomError``.  An object
    with one face is a module over that face's algebra A, and since
    Rad(A/Ann V) = (Rad A + Ann V)/Ann V its radical is Rad(A) mapped
    through the face.  A YD object is semisimple when Rad(H) and Rad(H*)
    are zero, and otherwise its image is spanned by its operators."""
    require_laws(obj)
    return _lawful_semisimplicity(obj)


def cached_verdict(obj, cache: dict) -> bool:
    """The semisimplicity verdict of ``obj``, its report memoized in
    ``cache`` under what a report and its guard depend on: each face's
    ``verdict_key``, its algebra object and the flat tuple of its action
    entries.  Equal actions written with an integral ``Fraction`` or its
    ``int`` share one decision; the same matrices over another algebra,
    which may be no action, do not.  ``duality.verify_serre`` decides each
    factor here, after ``tensor_semisimplicity`` has decided a YD product
    over a non-semisimple double in the same cache, where N (x) trivial is
    N and sign (x) N and N (x) sign carry the same matrices; any other
    product is decided from its factors, unbuilt.  The key holds no matrix, so
    ``cache`` keeps no tensor product alive, and no collected object's id
    returns a stale report."""
    return _cached_report(obj, cache, is_semisimple).verdict


# cosemisimple is semisimple as an H*-module, YD-semisimple as a D(H)-module
is_cosemisimple = is_yd_semisimple = is_semisimple


# brute-force oracle ---------------------------------------------------------
#
# Plain lists mod p throughout, so the oracle shares no arithmetic with the
# engine.  A subspace is a semi-echelon basis: (pivot, row) pairs, each row 1
# at its pivot and 0 at the pivots of the rows before it.


def _reduce(basis: list[tuple[int, list[int]]], v: list[int], p: int) -> list[int]:
    """``v`` reduced by ``basis``: zero exactly when ``v`` lies in its span."""
    for pivot, row in basis:
        c = v[pivot]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def _extend(basis: list[tuple[int, list[int]]], v: list[int], p: int) -> bool:
    """Add ``v`` to ``basis``; False when it already lies in the span."""
    v = _reduce(basis, v, p)
    pivot = next((i for i, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    inverse = pow(v[pivot], p - 2, p)
    basis.append((pivot, [a * inverse % p for a in v]))
    return True


def _apply(rows: list[list[int]], v, p: int) -> list[int]:
    """The matrix with these rows times ``v``, mod p."""
    return [sum(a * b for a, b in zip(row, v) if a) % p for row in rows]


def _generators(operators: list[list[list[int]]], dim: int, p: int) -> list[list[list[int]]]:
    """A generating set of the unital algebra the operators generate, so with
    the same invariant subspaces: an operator is kept only when it lies
    outside the algebra generated by I and the operators kept before it.
    I, zero and repeated operators are never kept."""
    identity = [[int(r == c) for c in range(dim)] for r in range(dim)]
    algebra: list[tuple[int, list[int]]] = []
    _extend(algebra, sum(identity, []), p)
    # words spans the algebra and is closed under right multiplication by
    # every kept operator: a word times an operator is again in its span;
    # columns[k] is the k-th kept operator's transpose, built once
    words, kept, columns = [identity], [], []
    for op in operators:
        if not _extend(algebra, sum(op, []), p):
            continue
        closed = len(words)
        kept.append(op)
        columns.append(list(zip(*op)))
        words.append(op)
        idx = 0
        while idx < len(words):
            x = words[idx]
            # the words before ``closed`` are closed under the earlier operators
            for g in columns if idx >= closed else columns[-1:]:
                prod = [_apply(g, row, p) for row in x]
                if _extend(algebra, sum(prod, []), p):
                    words.append(prod)
            idx += 1
    return kept


def _line_code(v: list[int], p: int, inverse: list[int]) -> int:
    """The line of a vector as a base-p integer: the digits of its multiple
    whose first nonzero coordinate is 1, and 0 for the zero vector."""
    code = scale = 0
    for a in v:
        if not scale:
            scale = inverse[a]
        code = code * p + a * scale % p
    return code


def _vector(code: int, dim: int, p: int) -> list[int]:
    """The vector whose base-p digits are ``code``, inverse to ``_line_code``
    on a line's own code."""
    v = [0] * dim
    for i in range(dim - 1, -1, -1):
        code, v[i] = divmod(code, p)
    return v


def _line_graph(generators: list[list[list[int]]], dim: int, p: int) -> tuple[list[int], list[list[int]]]:
    """The codes of the (p^dim - 1)/(p - 1) lines and, for each generator,
    the flat list mapping a line's code to the code of its image's line (0
    where the image is zero).

    A line is a vector whose first nonzero coordinate, at ``lead``, is 1.
    Taken by lead, and then in ``itertools.product`` order of their
    w = dim - lead - 1 trailing digits, the idx-th line has code p^w + idx.
    The images are built by linearity, the digits walked like an odometer:
    the next line raises the digit at some coordinate k by one and zeroes
    the digits after it, each p - 1, so g(v) moves by
        g(e_k) - (p - 1) * sum_{m > k} g(e_m) = sum_{m >= k} g(e_m)  (mod p),
    the same step for every lead.  That is one vector add per line and
    generator; no generator is applied to a vector."""
    inverse = [0] + [pow(a, p - 2, p) for a in range(1, p)]
    lines: list[int] = []
    for lead in range(dim):
        lines.extend(range(p ** (dim - lead - 1), 2 * p ** (dim - lead - 1)))
    # raised[idx]: the coordinate k the step to the idx-th line of a lead
    # raises, the last digit before the trailing zeros of idx
    raised = [dim - 1] * (p**dim // p)
    for j in range(1, dim - 1):
        for idx in range(p**j, len(raised), p**j):
            raised[idx] = dim - 1 - j
    images = []
    for rows in generators:
        columns = [list(column) for column in zip(*rows)]  # g(e_m)
        steps = columns[:]  # steps[k]: sum_{m >= k} g(e_m)
        for k in range(dim - 2, -1, -1):
            steps[k] = [(a + b) % p for a, b in zip(columns[k], steps[k + 1])]
        image = [0] * p**dim
        for lead in range(dim):
            first = p ** (dim - lead - 1)  # the code of e_lead
            v = columns[lead]
            image[first] = _line_code(v, p, inverse)
            for idx in range(1, first):
                v = [(a + b) % p for a, b in zip(v, steps[raised[idx]])]
                image[first + idx] = _line_code(v, p, inverse)
        images.append(image)
    return lines, images


def _sink_lines(lines: list[int], images: list[list[int]], size: int) -> list[int]:
    """One line of each sink component of the line graph: a strongly
    connected component with no edge leaving it (Tarjan, iteratively)."""
    number = [0] * size  # DFS number from 1, 0 while unvisited
    low = [0] * size
    component = [0] * size  # component number from 1, 0 while on the stack
    stack: list[int] = []
    roots: list[int] = []
    counter = 0
    for start in lines:
        if number[start]:
            continue
        counter += 1
        number[start] = low[start] = counter
        stack.append(start)
        path = [[start, 0]]
        while path:
            frame = path[-1]
            v, i = frame
            if i < len(images):
                frame[1] += 1
                w = images[i][v]
                if not w:
                    continue
                if not number[w]:
                    counter += 1
                    number[w] = low[w] = counter
                    stack.append(w)
                    path.append([w, 0])
                elif not component[w]:
                    low[v] = min(low[v], number[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == number[v]:
                roots.append(v)
                w = None
                while w != v:
                    w = stack.pop()
                    component[w] = len(roots)
    sink = [True] * (len(roots) + 1)
    for v in lines:
        for image in images:
            if image[v] and component[image[v]] != component[v]:
                sink[component[v]] = False
    return [v for c, v in enumerate(roots, 1) if sink[c]]


def _spin(images: list[list[int]], code: int, dim: int, p: int) -> list[tuple[int, list[int]]]:
    """The smallest invariant subspace containing the line ``code``: the
    span of the lines the graph ``images`` reaches from it.  Each line met
    is decoded and added to the span, and followed only when it extends
    the span; the image of a multiple of v is a multiple of g(v), and a
    multiple extends the span exactly as the vector does, with the same
    row, so no generator is applied to a vector."""
    span: list[tuple[int, list[int]]] = []
    _extend(span, _vector(code, dim, p), p)
    work = [code]
    for line in work:  # work grows while it is walked
        for image in images:
            target = image[line]
            if target and _extend(span, _vector(target, dim, p), p):
                work.append(target)
    return span


def brute_force_semisimple(obj, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Semisimple exactly when the module is its socle, the sum of its simple
    submodules.

    The operators are first cut down to generators of the same unital
    algebra.  The line graph has the (p^dim - 1)/(p - 1) lines of F_p^dim
    as nodes and an edge from the line of v to the line of each nonzero g*v,
    g a generator.  Its edges are built by linearity: walking the lines
    with one lead in code order like an odometer, each step moves g(v) by
    g(e_k) - (p - 1) * sum_{m > k} g(e_m) = sum_{m >= k} g(e_m) mod p, k
    the coordinate the step raises, so one vector add per line and
    generator.  The spin of v, the smallest invariant subspace containing
    it, is the span of the lines reachable from v, and is read off the
    graph without applying a generator again.  So two lines in one
    strongly connected component spin the same subspace.  A simple submodule
    S is the spin of any of its nonzero vectors; from a line of S the graph
    never leaves S and reaches a sink component, so S is the spin of a line
    in a sink component.  Only one line per sink component is spun.  Taken
    by dimension, a spin joins the socle exactly when it meets the socle
    found so far only in 0, one extension of a copy of the socle per spin.
    The socle is the sum of the simple submodules: a non-simple spin contains
    a smaller simple spin, which the socle already holds, and a simple spin
    either meets the socle in 0 or lies in it and adds nothing.
    """
    field, dim = obj.field, obj.dim
    if field.characteristic == 0:
        raise BoundExceededError("brute force enumeration needs a finite field")
    p = field.characteristic
    if p**dim > bound:
        raise BoundExceededError(f"{p}^{dim} exceeds the oracle bound {bound}")
    generators = _generators([op.entries for op in obj.operators], dim, p)
    lines, images = _line_graph(generators, dim, p)
    spins = [_spin(images, code, dim, p) for code in _sink_lines(lines, images, p**dim)]
    socle: list[tuple[int, list[int]]] = []
    for span in sorted(spins, key=len):
        grown = list(socle)
        if all(_extend(grown, row, p) for _, row in span):
            socle = grown
    return len(socle) == dim
