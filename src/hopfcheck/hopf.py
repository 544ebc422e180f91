"""Finite-dimensional algebras and Hopf algebras given by structure constants.

Conventions, fixed once and used everywhere:

* ``mult[i][j][t]``   -- coefficient of basis vector ``t`` in ``b_i * b_j``
* ``comult[i][j][t]`` -- coefficient of ``b_j (x) b_t`` in the comultiplication
  of ``b_i``
* ``antipode``        -- square matrix whose column ``i`` holds the
  coordinates of the antipode applied to ``b_i``

All axiom checks evaluate exact polynomial identities in the structure
constants; a failure is data (reported with the first violating index), not
an exception.  No constructor checks: every object of the package, an
algebra, a Hopf algebra, a module, a comodule or a YD module, carries one
named law table ``laws`` of (check name, first violation or None) pairs,
computed when first read and kept, and one reader, ``AxiomReport.of``,
turns a table into a report.  Every report and the one refusal,
``modules.require_laws``, read the same table, so the structure must not be
edited after construction.

Only H's algebra laws and comult_multiplicative are read off the structure
constants, the latter as a sparse matrix identity on the n x n matrices of
Delta(b_j) that never builds R (x) R.  Each other law is the module
statement it is (R the regular module, k the trivial one): the coalgebra
laws are H*'s algebra laws, comult_unit says k is an H*-module,
counit_multiplicative and counit_unit that k is an H-module, and the
antipode laws that ev: R* (x) R -> k and coev: k -> R (x) R* are module
maps, read off the one vector each map carries by R's
``ModuleRep.pairing_violation``, the check the campaign and the strong-dual
certificates also use, decided once per face and kept with it.  The two
antipode laws equal the coefficient laws when H is associative and unital
(R is then faithful); the others equal them outright.

Two laws closed under products are checked only on the rows i of a
generating set G of the algebra (``AlgebraData.generators``), when their
preconditions hold, and on every row otherwise:

* a module law A_i A_j = sum_t m_ij^t A_t, when H is unital and
  associative and the unit acts as I: the x with rho(xy) = rho(x) rho(y)
  for all y then form a subspace that contains 1 and is closed under
  products;
* associativity, when the unit law holds (Light's test with the
  generator on the left; Clifford and Preston, *The Algebraic Theory of
  Semigroups* I, 1961, section 1.2): the left nucleus
  {x : (xy)z = x(yz) for all y, z} of any algebra is closed under
  products, and with the unit law it contains 1.

A subspace that contains 1 and G and is closed under products holds every
left-normed word in G, and these words span the algebra by construction
of G.  The first violation is the full scan's too: G is kept greedily in
index order, so a row i outside G is a combination of 1 and words in the
generators before i; if every row before i holds, so does row i, and the
first failing row is in G.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import lcm

from .errors import AxiomError
from .fields import Field
from .matrix import EchelonSpan, Matrix, NoSolutionError, solve_linear


class AxiomCheck(namedtuple("AxiomCheck", "name passed first_violation", defaults=(None,))):
    """One law: its name, whether it holds, and its first violation (a tuple
    of indices) or None."""

    __slots__ = ()

    def describe(self) -> str:
        if self.passed:
            return f"{self.name}: PASS"
        return f"{self.name}: FAIL at {self.first_violation}"


class AxiomReport(namedtuple("AxiomReport", "subject checks")):
    """The checks of one subject's laws, a list of ``AxiomCheck`` in table order."""

    __slots__ = ()

    @classmethod
    def of(cls, subject: str, laws) -> AxiomReport:
        """The report of a law table: one check per (name, first violation
        or None) pair, in table order.  Every report is built here."""
        return cls(subject, [AxiomCheck(name, violation is None, violation) for name, violation in laws])

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


def sparse_rows(action: list[Matrix]) -> list:
    """Each matrix's rows as lists of (column, value) for its nonzero entries."""
    return [[[(c, x) for c, x in enumerate(row) if x] for row in a.entries] for a in action]


def combination_differs(field: Field, size: int, linear, products) -> bool:
    """Whether sum c.X over ``linear``, pairs (c, X), differs from sum c.Y.Z
    over ``products``, triples (c, Y, Z), for size x size matrices given by
    their ``sparse_rows``; summed in one dict keyed by position, reduced mod
    p once, so sparse matrices cost only their nonzero entries."""
    acc = {}
    for c, x_rows in linear:
        for r, row in enumerate(x_rows):
            for s, x in row:
                acc[r * size + s] = acc.get(r * size + s, 0) + c * x
    for c, y_rows, z_rows in products:
        for r, row in enumerate(y_rows):
            for k, y in row:
                cy = c * y
                for s, z in z_rows[k]:
                    acc[r * size + s] = acc.get(r * size + s, 0) - cy * z
    p = field.characteristic
    return any(v % p for v in acc.values()) if p else any(acc.values())


class AlgebraData:
    """Associative unital algebra on a chosen basis."""

    def __init__(self, field: Field, dim: int, mult, unit, name: str = ""):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.name = name
        self._generators = None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name or '?'} dim={self.dim} over {self.field!r}>"

    # structure access -------------------------------------------------------

    def regular_action_matrices(self) -> list[Matrix]:
        """The matrices L_i of x -> b_i x, L_i[t][j] = m_ij^t: the transposes
        of the slabs ``mult[i]``."""
        return [Matrix(self.field, self.dim, self.dim, slab).transpose() for slab in self.mult]

    def generators(self) -> list[int]:
        """Indices of basis elements that, with 1, generate the algebra;
        computed once per object.

        Greedily in index order, b_i is kept when it lies outside the span
        of 1 and the left-normed words ((g_1 g_2) ...) g_k in the generators
        kept so far; that span is then closed under right multiplication by
        every kept generator.  Only structure constants are read, so the
        words span the algebra whether or not its table is associative.
        """
        if self._generators is None:
            field, n = self.field, self.dim
            zero, one = field.zero(), field.one()
            span = EchelonSpan(field, n)
            span.add(self.unit)
            words, kept, right = [list(self.unit)], [], []
            for g in range(n):
                basis = [one if t == g else zero for t in range(n)]
                if not span.add(basis):
                    continue
                kept.append(g)
                # words times b_g are their rows times R_g, R_g[i][t] = m_ig^t
                right.append(Matrix(field, n, n, [slab[g] for slab in self.mult]))
                # the words so far are closed under the earlier generators, so
                # they need b_g only; each new word needs every kept generator
                new = [basis] + [w for w in (Matrix(field, len(words), n, words) * right[-1]).entries if span.add(w)]
                while new:
                    words += new
                    rows = Matrix(field, len(new), n, new)
                    new = [w for r in right for w in (rows * r).entries if span.add(w)]
            self._generators = kept
        return self._generators

    # axioms -----------------------------------------------------------------

    def check_algebra_axioms(self) -> AxiomReport:
        """Associativity and the unit law, the first two laws of ``laws``
        (of a Hopf algebra's too), read off ``law_violations``: a Hopf
        algebra computes none of its other laws for this report."""
        return AxiomReport.of(self.name or "algebra", self._algebra_laws())

    def _algebra_laws(self) -> tuple:
        """The named law table: associativity and unit, each with its first
        violation or None."""
        unit, associativity = self.law_violations
        return ("associativity", associativity), ("unit", unit)

    laws = cached_property(_algebra_laws)

    @cached_property
    def law_violations(self) -> tuple:
        """First violations (None where it holds) of the unit law and of
        associativity, computed once per object for the axiom reports and
        the module-law precondition alike.  L_i L_j = sum_t m_ij^t L_t says
        (b_i b_j) b_k = b_i (b_j b_k) for all k; with the unit law it is
        checked on the rows i in ``generators`` (see the module docstring)."""
        unit = self._unit_violation()
        rows = sparse_rows(self.regular_action_matrices())
        return unit, self.multiplicativity_violation(rows, self.generators() if unit is None else None)

    def multiplicativity_violation(self, rows: list, scan=None):
        """First (i, j) with A_i A_j != sum_t m_ij^t A_t, or None, for an
        action given by its ``sparse_rows``, checked on the rows i in
        ``scan`` (every row when None).

        The one kernel behind every multiplicativity-type law: on a module's
        action it is the module law, on the regular action it is
        associativity, and over a dual Hopf algebra H* it is comodule and
        Hopf coassociativity and comult_unit.  Callers pass ``generators()``
        as ``scan`` when the law's closure argument applies (see the module
        docstring), which decides the law and finds its first violation.  A
        rational action is checked on the integer rows d A_t, d the lcm of
        its denominators, because Fraction products would cost more than the
        check; the law then reads d sum_t m_ij^t (d A_t) = (d A_i)(d A_j).
        """
        d = lcm(*{x.denominator for a in rows for row in a for _, x in row})
        if d != 1:
            rows = [[[(c, x.numerator * (d // x.denominator)) for c, x in row] for row in a] for a in rows]
        size = len(rows[0]) if rows else 0
        for i in range(self.dim) if scan is None else scan:
            for j in range(self.dim):
                linear = [(d * c, rows[t]) for t, c in enumerate(self.mult[i][j]) if c]
                if combination_differs(self.field, size, linear, [(1, rows[i], rows[j])]):
                    return (i, j)
        return None

    def _unit_violation(self):
        """First (side, j, t) with 1 b_j or b_j 1 != b_j at b_t, or None."""
        p, n = self.field.characteristic, range(self.dim)
        units = [(i, u) for i, u in enumerate(self.unit) if u]
        for j in n:
            for t in n:
                left = sum(u * self.mult[i][j][t] for i, u in units) - (j == t)
                right = sum(u * self.mult[j][i][t] for i, u in units) - (j == t)
                for side, x in (("left", left), ("right", right)):
                    if x % p if p else x:
                        return (side, j, t)
        return None


class HopfAlgebraData(AlgebraData):
    """Hopf algebra: algebra + comultiplication, counit and antipode."""

    kind = "hopf"

    def __init__(
        self,
        field: Field,
        dim: int,
        mult,
        unit,
        comult,
        counit,
        antipode: Matrix,
        name: str = "",
    ):
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self._dual_algebra = None
        super().__init__(field, dim, mult, unit, name=name)

    # axioms -----------------------------------------------------------------

    def check_hopf_axioms(self) -> AxiomReport:
        """Every Hopf axiom, each with its first violation; read off
        ``laws``, so a repeated check costs no arithmetic."""
        return AxiomReport.of(self.name or self.kind, self.laws)

    @cached_property
    def laws(self) -> tuple:
        """The ten Hopf laws as (name, first violation or None) pairs, in
        report order, computed when first read and kept for every report and
        the guard alike; the first two are the algebra laws.

        Each law beyond H's algebra laws is a module statement (Sweedler,
        *Hopf Algebras*, ch. 1 and 4; see the module docstring), indexed in
        its module's terms:

        * coassociativity -- (i, j), a pair of dual basis functionals;
        * counit -- (side, j, t), the coefficient of b_j in (eps (x) id) or
          (id (x) eps) applied to comult(b_t);
        * comult_multiplicative -- (i, j) with
          Delta(b_i b_j) != Delta(b_i) Delta(b_j);
        * comult_unit -- (i, j), the coefficient of b_i (x) b_j in comult(1);
        * counit_multiplicative -- (i, j) with eps(b_i b_j) != eps(b_i) eps(b_j);
        * counit_unit -- (0,);
        * antipode_left, antipode_right -- (i,) for the first b_i that ev,
          resp. coev, fails to intertwine.
        """
        # modules imports this module, so it loads only here
        from .modules import regular_module, trivial_module

        dual = self.dual_algebra()
        r = regular_module(self)
        left = r.pairing_violation(coev=False, dual_first=True)
        right = r.pairing_violation(coev=True, dual_first=False)
        counit, coassociativity = dual.law_violations
        (_, counit_unit), (_, counit_multiplicative) = trivial_module(self).laws
        _, comult_unit = trivial_module(dual).laws[1]
        return self._algebra_laws() + (
            ("coassociativity", coassociativity),
            ("counit", counit),
            ("comult_multiplicative", self._comult_multiplicative_violation()),
            ("comult_unit", comult_unit),
            ("counit_multiplicative", counit_multiplicative),
            ("counit_unit", counit_unit),
            ("antipode_left", None if left is None else (left,)),
            ("antipode_right", None if right is None else (right,)),
        )

    def _comult_multiplicative_violation(self):
        """First (i, j) with Delta(b_i b_j) != Delta(b_i) Delta(b_j), or None.

        With M_j[c][d] = Delta_j^cd the matrix of Delta(b_j) and L_a the
        left multiplications, the coefficient of b_e (x) b_f in
        Delta(b_i) Delta(b_j) is (sum_ab Delta_i^ab L_a M_j L_b^T)[e][f], so
        the law is sum_t m_ij^t M_t = sum_ab Delta_i^ab L_a M_j L_b^T: one
        sparse combination per (i, j), with every L_a M_j built once.  L_b^T
        is the slab ``mult[b]``.
        """
        field, n = self.field, self.dim
        comult = [Matrix(field, n, n, slab) for slab in self.comult]
        m_rows = sparse_rows(comult)
        lm_rows = [sparse_rows([left * m for m in comult]) for left in self.regular_action_matrices()]
        lt_rows = sparse_rows([Matrix(field, n, n, slab) for slab in self.mult])
        for i in range(n):
            terms = [(c, a, b) for a, row in enumerate(self.comult[i]) for b, c in enumerate(row) if c]
            for j in range(n):
                linear = [(c, m_rows[t]) for t, c in enumerate(self.mult[i][j]) if c]
                products = [(c, lm_rows[a][j], lt_rows[b]) for c, a, b in terms]
                if combination_differs(field, n, linear, products):
                    return (i, j)
        return None

    # derived structure -------------------------------------------------------

    @cached_property
    def involution_violation(self) -> int | None:
        """The first i with S^2(b_i) != b_i, or None; computed once per
        object for ``is_involutory`` and the ``check`` command's witness."""
        columns = (self.antipode * self.antipode).transpose().entries
        identity = Matrix.identity(self.field, self.dim).entries
        return next((i for i in range(self.dim) if columns[i] != identity[i]), None)

    def is_involutory(self) -> bool:
        """Whether S^2 = id."""
        return self.involution_violation is None

    def dual_algebra(self) -> HopfAlgebraData:
        """The dual Hopf algebra H* on the dual basis.

        Every structure map is the transpose of its partner in H:
        mult*[i][j][t] = comult[t][i][j], comult*[i][j][t] = mult[j][t][i],
        unit* = counit, counit* = unit and S* = S^T.  It is memoized, and a
        check reads H's table, not a table of its own: its algebra laws are
        H's coalgebra laws, which ``check_hopf_axioms`` reads off this same
        object, and the rest are H's axioms read backwards.
        """
        if self._dual_algebra is None:
            n = self.dim
            mult = [[[self.comult[t][i][j] for t in range(n)] for j in range(n)] for i in range(n)]
            comult = [[[self.mult[j][t][i] for t in range(n)] for j in range(n)] for i in range(n)]
            self._dual_algebra = HopfAlgebraData(
                self.field, n, mult, list(self.counit), comult, list(self.unit),
                self.antipode.transpose(), name=f"{self.name}^*",
            )
        return self._dual_algebra

    @cached_property
    def op_dual_algebra(self) -> HopfAlgebraData:
        """(H^op)* = (H*)^cop, over which a YD object's H*-face is a module
        (``yd``): H*'s product and unit, the opposite coproduct and the
        antipode (S^-1)^T.  Built on first use; like H*, it has no table of its
        own that a check reads: a YD object's guard reads H's.  S is singular
        only when H's laws fail, and then the ``AxiomError`` naming them is
        raised."""
        try:
            s_inv = solve_linear(self.antipode, Matrix.identity(self.field, self.dim))
        except NoSolutionError:
            raise AxiomError(self.check_hopf_axioms()) from None
        d, n = self.dual_algebra(), range(self.dim)
        comult = [[[d.comult[i][t][j] for t in n] for j in n] for i in n]
        antipode = s_inv.transpose()
        return HopfAlgebraData(self.field, self.dim, d.mult, d.unit, comult, d.counit, antipode, name=f"{self.name}^op*")
