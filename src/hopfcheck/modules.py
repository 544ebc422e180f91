"""Left modules over a structure-constant algebra, as one matrix per basis
element of the algebra.

Tensor products use the diagonal coproduct action; the basis of a tensor
product is ordered with the second factor fastest, so iterated products
agree entry-for-entry without reindexing.  Comodules are modules over the
dual Hopf algebra, so the tensor product, dual and Hom solver here serve
comodules and both faces of a Yetter-Drinfel'd module as well.

Every object is a tuple of these modules, its faces, and each face keeps
what the checks read of it: the sparse and twisted actions, its named law
table ``laws``, the four pairing violations of coev and ev and the key its
semisimplicity verdict is cached under.  Catalog faces persist, so a second
campaign in one process repeats none of these computations.  Every kind of
object carries ``laws``, so ``check_module_axioms`` is the one report
function for all of them, and ``require_laws`` the one guard that every
decision, certificate and CLI request passes first.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .errors import AxiomError, HopfMismatchError
from .hopf import AlgebraData, AxiomReport, HopfAlgebraData, combination_differs, sparse_rows
from .matrix import Matrix, combination, kernel_basis


def same_algebra(a: AlgebraData, b: AlgebraData) -> bool:
    if a is b:
        return True
    if a.field != b.field or a.dim != b.dim or a.mult != b.mult or a.unit != b.unit:
        return False
    if isinstance(a, HopfAlgebraData) != isinstance(b, HopfAlgebraData):
        return False
    if isinstance(a, HopfAlgebraData):
        return a.comult == b.comult and a.counit == b.counit and a.antipode == b.antipode
    return True


def require_same_hopf(a: AlgebraData, b: AlgebraData):
    if not same_algebra(a, b):
        raise HopfMismatchError(
            f"objects live over different algebras: {a.name!r} vs {b.name!r}"
        )


def require_hopf(algebra: AlgebraData) -> HopfAlgebraData:
    if not isinstance(algebra, HopfAlgebraData):
        raise TypeError(f"{algebra.name!r} carries no comultiplication")
    return algebra


class ModuleRep:
    """A left module: ``action[i]`` is the matrix of the i-th basis element.

    Modules, comodules and Yetter-Drinfel'd modules share one protocol:
    ``kind``, ``hopf``, ``faces`` (the modules the object is), ``operators``
    (spanning the image of the acting algebra) and ``with_faces``, which
    rebuilds an object of the same kind from new faces.  A module is its own
    only face.

    What the checks read of a face is kept with it (see the module
    docstring), so the action must not be edited after construction.
    """

    kind = "module"

    def __init__(self, algebra: AlgebraData, dim: int, action: list[Matrix], name: str = ""):
        if len(action) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element required")
        for m in action:
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"action matrix is not {dim}x{dim}")
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.name = name
        self._pairing_violations = {}

    @property
    def field(self):
        return self.algebra.field

    @property
    def hopf(self) -> HopfAlgebraData:
        return require_hopf(self.algebra)

    @property
    def faces(self) -> tuple:
        return (self,)

    @property
    def operators(self) -> list[Matrix]:
        return self.action

    def with_faces(self, faces, name: str) -> ModuleRep:
        (face,) = faces
        return ModuleRep(face.algebra, face.dim, face.action, name=name)

    def __repr__(self):
        return f"<ModuleRep {self.name or '?'} dim={self.dim} over {self.algebra.name or '?'}>"

    def action_of_vector(self, v) -> Matrix:
        """Matrix of the algebra element with coordinates ``v``."""
        return combination(self.field, self.dim, v, self.action)

    @cached_property
    def twisted_action(self) -> list[Matrix]:
        """A_S(b_i) for every basis element b_i: the action of its antipode,
        computed once per module for its dual and its pairing checks."""
        return [self.action_of_vector(column) for column in self.hopf.antipode.transpose().entries]

    @cached_property
    def sparse_action(self) -> list:
        """``sparse_rows`` of the action, built once per module for the
        tensor product, pairing and straightening kernels."""
        return sparse_rows(self.action)

    @cached_property
    def sparse_twisted_action(self) -> list:
        """``sparse_rows`` of the twisted action, built once per module."""
        return sparse_rows(self.twisted_action)

    @cached_property
    def laws(self) -> tuple:
        """The named law table: unit_acts_as_identity and
        action_multiplicative (A_i A_j = sum_t m_ij^t A_t), each with its
        first violation or None, for the axiom report and the guard alike.
        When the algebra is unital and associative and the unit acts as I,
        the second is checked on the rows i in the algebra's ``generators``,
        which decide it and find its first violation (see ``hopf``)."""
        algebra, rows = self.algebra, self.sparse_action
        # sum_i u_i A_i - I, on the sparse rows; no dense matrix is built
        linear = [(c, rows[i]) for i, c in enumerate(algebra.unit) if c]
        linear.append((-1, _sparse_identity(self.field, self.dim)))
        unit = (0,) if combination_differs(self.field, self.dim, linear, []) else None
        scan = algebra.generators() if unit is None and algebra.law_violations == (None, None) else None
        multiplicative = algebra.multiplicativity_violation(rows, scan)
        return ("unit_acts_as_identity", unit), ("action_multiplicative", multiplicative)

    @cached_property
    def verdict_key(self) -> tuple:
        """What a semisimplicity verdict on this face depends on: its algebra
        object and the flat tuple of its action entries, whose length fixes
        dim.  Built once; the tuple keeps no matrix alive.  Equal tuples mean
        equal actions, so an integral ``Fraction`` and its ``int`` share a
        key, as their actions are equal."""
        return self.algebra, tuple(chain.from_iterable(row for a in self.action for row in a.entries))

    def pairing_violation(self, coev: bool, dual_first: bool):
        """The first i at which coev: k -> square (``coev``) or ev: square -> k
        fails to intertwine b_i on this face, or None; the square is N (x) N*,
        or N* (x) N with ``dual_first``.  Each of the four maps is decided at
        most once per face, by ``_pairing_kernel``, and kept."""
        key = coev, dual_first
        if key not in self._pairing_violations:
            self._pairing_violations[key] = _pairing_kernel(self, coev, dual_first)
        return self._pairing_violations[key]


def _sparse_identity(field, dim: int) -> list:
    """``sparse_rows`` of the dim x dim identity."""
    return [[(r, field.one())] for r in range(dim)]


def _pairing_kernel(face: ModuleRep, coev: bool, dual_first: bool):
    """``ModuleRep.pairing_violation``, decided on the one vector the map
    carries, without building N*, k or the square.

    (X (x) Y).vec(I) = vec(X Y^T), vec(I)^T.(X (x) Y) = vec(X^T Y)^T and
    A*_d^T = A_S(b_d).  With (n, d) the legs of N and N* in Delta_i^jt, that
    is (j, t) for N (x) N* and (t, j) for N* (x) N, coev is a morphism exactly
    when every sum_jt Delta_i^jt A_n A_S(b_d), and ev when every
    sum_jt Delta_i^jt A_S(b_d) A_n, is eps(b_i) I.
    """
    h = face.hopf
    plain, twisted = face.sparse_action, face.sparse_twisted_action
    identity = _sparse_identity(h.field, face.dim)
    for i in range(h.dim):
        products = []
        for j, row in enumerate(h.comult[i]):
            for t, c in enumerate(row):
                if c:
                    n, d = (t, j) if dual_first else (j, t)
                    products.append((c, plain[n], twisted[d]) if coev else (c, twisted[d], plain[n]))
        if combination_differs(h.field, face.dim, [(h.counit[i], identity)], products):
            return i
    return None


def check_module_axioms(obj) -> AxiomReport:
    """The axiom report of any object: its ``laws``, one check each in table
    order.  Modules, comodules, YD modules and Hopf algebras all carry
    ``laws``, so this one function is also ``check_comodule_axioms``,
    ``check_yd_compat`` and ``axioms_in_category``."""
    return AxiomReport.of(obj.name or obj.kind, obj.laws)


# every object, a Hopf algebra too, carries its ``laws``: one report for all
axioms_in_category = check_module_axioms


def laws_hold(subject) -> bool:
    """Whether every law in the ``laws`` table of ``subject`` holds.  A plain
    loop: the guard runs it thousands of times per campaign, and a generator
    under ``all`` costs several times as much."""
    for _, violation in subject.laws:
        if violation is not None:
            return False
    return True


def require_laws(obj):
    """The one refusal of the package, before every decision, certificate
    and CLI request: refuse an object whose laws fail, exactly when its
    axiom report or its Hopf algebra's fails; a Hopf algebra is its own
    only subject.  It reads the ``laws`` tables of H and then of the
    object, each computed once per object for the reports and this guard
    alike, and the ``AxiomError`` carries the failing report."""
    for subject in (obj,) if obj.kind == "hopf" else (obj.hopf, obj):
        if not laws_hold(subject):
            raise AxiomError(check_module_axioms(subject))


def trivial_module(h: HopfAlgebraData) -> ModuleRep:
    """The base field with the counit action."""
    action = [Matrix(h.field, 1, 1, [[h.counit[i]]]) for i in range(h.dim)]
    return ModuleRep(h, 1, action, name="trivial")


def regular_module(algebra: AlgebraData) -> ModuleRep:
    """The algebra acting on itself by left multiplication."""
    return ModuleRep(algebra, algebra.dim, algebra.regular_action_matrices(), name="regular")


def tensor_operator(m: ModuleRep, n: ModuleRep, coefficients) -> Matrix:
    """sum_jt c^jt A_j (x) A'_t on the Kronecker-ordered basis, with A_j and
    A'_t the actions of M and N and ``coefficients[j][t]`` = c^jt: the action
    of b_i on M (x) N for the table Delta_i, and of any z for Delta(z).

    Each nonzero term c * b_j (x) b_t adds c * A_j (x) A'_t into one
    accumulator entry by entry; no intermediate matrices are built.
    """
    field = m.field
    p = field.characteristic
    nd = n.dim
    dim = m.dim * nd
    m_rows, n_rows = m.sparse_action, n.sparse_action
    acc = [[field.zero()] * dim for _ in range(dim)]
    for j, row in enumerate(coefficients):
        for t, c in enumerate(row):
            if not c:
                continue
            right = n_rows[t]
            for a, m_row in enumerate(m_rows[j]):
                for b, x in m_row:
                    cx = c * x
                    for r, n_row in enumerate(right):
                        out = acc[a * nd + r]
                        for s, y in n_row:
                            out[b * nd + s] += cx * y
    if p:
        acc = [[x % p for x in row] for row in acc]
    return Matrix(field, dim, dim, acc)


def tensor_modules(m: ModuleRep, n: ModuleRep, name: str = "") -> ModuleRep:
    """Diagonal action through the coproduct on the Kronecker-ordered basis:
    b_i acts by ``tensor_operator`` of Delta_i."""
    require_same_hopf(m.algebra, n.algebra)
    h = require_hopf(m.algebra)
    action = [tensor_operator(m, n, coefficients) for coefficients in h.comult]
    return ModuleRep(h, m.dim * n.dim, action, name=name or f"({m.name})(x)({n.name})")


def dual_module(n: ModuleRep, name: str = "") -> ModuleRep:
    """Dual space action: transpose of the antipode-twisted action."""
    action = [a.transpose() for a in n.twisted_action]
    return ModuleRep(n.hopf, n.dim, action, name=name or f"({n.name})*")


def joint_hom_space(pairs) -> list[Matrix]:
    """Canonical basis of the maps g that intertwine every (source, target)
    pair of modules at once; all sources share one space, all targets another.

    On the row-major vec(g), g A = B g reads (I_nd (x) A^T - B (x) I_md) vec(g) = 0."""
    md, nd = pairs[0][0].dim, pairs[0][1].dim
    field = pairs[0][0].field
    for m, n in pairs:
        require_same_hopf(m.algebra, n.algebra)
    if nd * md == 0:
        return []
    left, right = Matrix.identity(field, nd), Matrix.identity(field, md)
    rows = [
        row
        for m, n in pairs
        for am, an in zip(m.action, n.action)
        for row in (left.kron(am.transpose()) - an.kron(right)).entries
    ]
    system = Matrix(field, len(rows), nd * md, rows)
    return [Matrix.from_flat(field, nd, md, v.flatten()) for v in kernel_basis(system)]
