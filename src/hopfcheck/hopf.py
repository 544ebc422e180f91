"""Finite-dimensional algebras and Hopf algebras given by structure constants.

Conventions, fixed once and used everywhere:

* ``mult[i][j][t]``   -- coefficient of basis vector ``t`` in ``b_i * b_j``
* ``comult[i][j][t]`` -- coefficient of ``b_j (x) b_t`` in the comultiplication
  of ``b_i``
* ``antipode``        -- square matrix whose column ``i`` holds the
  coordinates of the antipode applied to ``b_i``

All axiom checks evaluate exact polynomial identities in the structure
constants; a failure is data (reported with the first violating index), not
an exception, unless the object was constructed with checking enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import AxiomError
from .fields import Field
from .matrix import Matrix


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    first_violation: tuple | None = None

    def describe(self) -> str:
        if self.passed:
            return f"{self.name}: PASS"
        return f"{self.name}: FAIL at {self.first_violation}"


@dataclass
class AxiomReport:
    subject: str
    checks: list[AxiomCheck] = dc_field(default_factory=list)

    def record(self, name: str, violation: tuple | None):
        self.checks.append(AxiomCheck(name, violation is None, violation))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


class AlgebraData:
    """Associative unital algebra on a chosen basis."""

    def __init__(self, field: Field, dim: int, mult, unit, name: str = "", unchecked: bool = False):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.name = name
        if not unchecked:
            report = self.check_algebra_axioms()
            if not report.ok:
                raise AxiomError(report)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name or '?'} dim={self.dim} over {self.field!r}>"

    # structure access -------------------------------------------------------

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of x -> b_i * x in the chosen basis."""
        zero = self.field.zero()
        e = [[zero] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for t, c in enumerate(self.mult[i][j]):
                if c:
                    e[t][j] = c
        return Matrix(self.field, self.dim, self.dim, e)

    def regular_action_matrices(self) -> list[Matrix]:
        return [self.left_mult_matrix(i) for i in range(self.dim)]

    # axioms -----------------------------------------------------------------

    def check_algebra_axioms(self) -> AxiomReport:
        report = AxiomReport(self.name or "algebra")
        report.record("associativity", self._associativity_violation())
        report.record("unit", self._unit_violation())
        return report

    def multiplicativity_violation(self, action: list[Matrix]):
        """First (i, j) with A_i A_j != sum_t m_ij^t A_t, or None.

        The one kernel behind every multiplicativity-type law: on a module's
        action it is the module law, on ``regular_action_matrices()`` it is
        associativity, and over a dual Hopf algebra H* it is comodule and Hopf
        coassociativity.  The sum is built entrywise on plain rows and reduced
        mod p once per (i, j).
        """
        p = self.field.characteristic
        zero = self.field.zero()
        rows = [a.entries for a in action]
        size = action[0].rows if action else 0
        for i in range(self.dim):
            for j in range(self.dim):
                terms = [(c, rows[t]) for t, c in enumerate(self.mult[i][j]) if c]
                comb = []
                for r in range(size):
                    acc = [zero] * size
                    for c, a in terms:
                        acc = [x + c * y if y else x for x, y in zip(acc, a[r])]
                    comb.append([x % p for x in acc] if p else acc)
                if (action[i] * action[j]).entries != comb:
                    return (i, j)
        return None

    def _associativity_violation(self):
        # L_i L_j = sum_t m_ij^t L_t says (b_i b_j) b_k = b_i (b_j b_k) for all k
        return self.multiplicativity_violation(self.regular_action_matrices())

    def _unit_violation(self):
        field = self.field
        for j in range(self.dim):
            for t in range(self.dim):
                want = field.one() if j == t else field.zero()
                left = field.zero()
                right = field.zero()
                for i, u in enumerate(self.unit):
                    if not u:
                        continue
                    left = field.add(left, field.mul(u, self.mult[i][j][t]))
                    right = field.add(right, field.mul(u, self.mult[j][i][t]))
                if left != want:
                    return ("left", j, t)
                if right != want:
                    return ("right", j, t)
        return None


class HopfAlgebraData(AlgebraData):
    """Hopf algebra: algebra + comultiplication, counit and antipode."""

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
        unchecked: bool = False,
    ):
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self._dual_algebra = None
        super().__init__(field, dim, mult, unit, name=name, unchecked=True)
        if not unchecked:
            report = self.check_hopf_axioms()
            if not report.ok:
                raise AxiomError(report)

    # axioms -----------------------------------------------------------------

    def check_hopf_axioms(self) -> AxiomReport:
        """Every Hopf axiom, each recorded with its first violation.

        The coalgebra laws of H are the algebra laws of H*: coassociativity of
        comult is associativity of its transpose, and the counit law is the
        unit law of H* (Sweedler, *Hopf Algebras*, ch. 1).  Both are read off
        ``dual_algebra()``, so their violations are indexed in H*'s terms:
        coassociativity by the pair (i, j) of dual basis functionals, and the
        counit law by (side, j, t), the coefficient of b_j in (eps (x) id) or
        (id (x) eps) applied to comult(b_t).
        """
        dual = self.dual_algebra()
        report = AxiomReport(self.name or "hopf")
        report.record("associativity", self._associativity_violation())
        report.record("unit", self._unit_violation())
        report.record("coassociativity", dual._associativity_violation())
        report.record("counit", dual._unit_violation())
        report.record("comult_multiplicative", self._comult_multiplicative_violation())
        report.record("comult_unit", self._comult_unit_violation())
        report.record("counit_multiplicative", self._counit_multiplicative_violation())
        report.record("counit_unit", self._counit_unit_violation())
        report.record("antipode_left", self._antipode_violation(left=True))
        report.record("antipode_right", self._antipode_violation(left=False))
        return report

    def _comult_multiplicative_violation(self):
        field = self.field
        n = self.dim
        d = self.comult
        m = self.mult
        for i in range(n):
            for j in range(n):
                lhs = {}
                for s in range(n):
                    x = m[i][j][s]
                    if not x:
                        continue
                    for a in range(n):
                        for b in range(n):
                            y = d[s][a][b]
                            if y:
                                key = (a, b)
                                lhs[key] = field.add(lhs.get(key, field.zero()), field.mul(x, y))
                rhs = {}
                for a1 in range(n):
                    for b1 in range(n):
                        x = d[i][a1][b1]
                        if not x:
                            continue
                        for a2 in range(n):
                            for b2 in range(n):
                                y = d[j][a2][b2]
                                if not y:
                                    continue
                                xy = field.mul(x, y)
                                for a, c1 in enumerate(m[a1][a2]):
                                    if not c1:
                                        continue
                                    for b, c2 in enumerate(m[b1][b2]):
                                        if c2:
                                            key = (a, b)
                                            rhs[key] = field.add(
                                                rhs.get(key, field.zero()),
                                                field.mul(xy, field.mul(c1, c2)),
                                            )
                for key in set(lhs) | set(rhs):
                    if lhs.get(key, field.zero()) != rhs.get(key, field.zero()):
                        return (i, j) + key
        return None

    def _comult_unit_violation(self):
        field = self.field
        n = self.dim
        for a in range(n):
            for b in range(n):
                got = field.zero()
                for i, u in enumerate(self.unit):
                    if u:
                        got = field.add(got, field.mul(u, self.comult[i][a][b]))
                want = field.mul(self.unit[a], self.unit[b])
                if got != want:
                    return (a, b)
        return None

    def _counit_multiplicative_violation(self):
        field = self.field
        n = self.dim
        for i in range(n):
            for j in range(n):
                got = field.zero()
                for t, c in enumerate(self.mult[i][j]):
                    if c:
                        got = field.add(got, field.mul(c, self.counit[t]))
                if got != field.mul(self.counit[i], self.counit[j]):
                    return (i, j)
        return None

    def _counit_unit_violation(self):
        field = self.field
        got = field.zero()
        for i, u in enumerate(self.unit):
            if u:
                got = field.add(got, field.mul(u, self.counit[i]))
        return None if got == field.one() else (0,)

    def _antipode_violation(self, left: bool):
        # multiply-convolve the antipode against identity and compare with
        # unit*counit, coordinate by coordinate
        field = self.field
        n = self.dim
        s_cols = self.antipode.entries  # s_cols[a][j] = coefficient of b_a in S(b_j)
        for i in range(n):
            got = [field.zero()] * n
            for j in range(n):
                for t in range(n):
                    x = self.comult[i][j][t]
                    if not x:
                        continue
                    if left:
                        # S(b_j) * b_t
                        for a in range(n):
                            y = s_cols[a][j]
                            if not y:
                                continue
                            xy = field.mul(x, y)
                            for u, c in enumerate(self.mult[a][t]):
                                if c:
                                    got[u] = field.add(got[u], field.mul(xy, c))
                    else:
                        # b_j * S(b_t)
                        for a in range(n):
                            y = s_cols[a][t]
                            if not y:
                                continue
                            xy = field.mul(x, y)
                            for u, c in enumerate(self.mult[j][a]):
                                if c:
                                    got[u] = field.add(got[u], field.mul(xy, c))
            for u in range(n):
                want = field.mul(self.counit[i], self.unit[u])
                if got[u] != want:
                    return (i, u)
        return None

    # derived structure -------------------------------------------------------

    def is_involutory(self) -> bool:
        return (self.antipode * self.antipode).is_identity()

    def dual_algebra(self) -> HopfAlgebraData:
        """The dual Hopf algebra H* on the dual basis.

        Every structure map is the transpose of its partner in H:
        mult*[i][j][t] = comult[t][i][j], comult*[i][j][t] = mult[j][t][i],
        unit* = counit, counit* = unit and S* = S^T.  It is built unchecked
        and memoized: its algebra laws are H's coalgebra laws, which
        ``check_hopf_axioms`` reads off this same object, and the rest are
        H's axioms read backwards.
        """
        if self._dual_algebra is None:
            n = self.dim
            mult = [[[self.comult[t][i][j] for t in range(n)] for j in range(n)] for i in range(n)]
            comult = [[[self.mult[j][t][i] for t in range(n)] for j in range(n)] for i in range(n)]
            self._dual_algebra = HopfAlgebraData(
                self.field, n, mult, list(self.counit), comult, list(self.unit),
                self.antipode.transpose(), name=f"{self.name}^*", unchecked=True,
            )
        return self._dual_algebra

