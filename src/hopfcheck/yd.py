"""Yetter-Drinfel'd modules: a module and a comodule on the same space, tied
together by the left-right compatibility law

    h_(1) m_<0>  (x)  h_(2) m_<1>   =   (h_(2) m)_<0>  (x)  (h_(2) m)_<1> h_(1)

The convention is hard-coded; there are no switches.  With A_j the H-action
and B_b the H*-action (B_b[r][a] the coefficient of e_r (x) b_b in the
coaction of e_a), applying id (x) f_t to both sides with h = b_i turns the
law into one straightening identity of operators per (i, t):

    sum_{j,s,b} Delta_i^js m_sb^t A_j B_b  =  sum_{j,s,a} Delta_i^js m_aj^t B_a A_s

that is, the relations of the Drinfel'd double D(H) that move H* past H
(Kassel, *Quantum Groups*, ch. IX), so a YD module is a D(H)-module.
It is checked with ``hopf.combination_differs``, the sparse kernel behind
H's own laws, as the last entry of the object's ``laws``, after the
H-face's module laws and the comodule laws; the table is computed once per
object, a product's too when first read, and ``check_yd_compat``, the one
report function of every kind, and the one guard ``modules.require_laws``
both read it.  A product of lawful objects is lawful
(``duality.tensor_in_category``), so the engine decides one behind its
factors' guard and never reads its table.
Once H's laws, both faces' module laws and this identity hold, V is a
D(H)-module and the products B_t A_j are the action of the basis f_t h_j of
D(H), so they span its image in End(V), an algebra closed under products.

Its faces are the H-module and ``star_face``, the comodule's action as a
module over (H^op)* (``HopfAlgebraData.op_dual_algebra``), so the face-wise
product's coaction is n_<1> m_<1> and the dual goes through S^-1: the
left-right YD constructions (Caenepeel, Militaru and Zhu, LNM 1787; Kassel
IX.4), over every H.  ``comodule`` stays the plain H-comodule.
"""

from __future__ import annotations

from functools import cached_property

from .comodules import ComoduleRep, trivial_comodule
from .hopf import HopfAlgebraData, combination_differs
from .matrix import Matrix
from .modules import ModuleRep, check_module_axioms, laws_hold, require_same_hopf, trivial_module


class YDModuleRep:
    kind = "yd"

    def __init__(self, module: ModuleRep, comodule: ComoduleRep, name: str = ""):
        require_same_hopf(module.algebra, comodule.hopf)
        if module.dim != comodule.dim:
            raise ValueError("module and comodule parts must share a basis")
        self.module = module
        self.comodule = comodule
        self.name = name

    @property
    def hopf(self) -> HopfAlgebraData:
        return self.comodule.hopf

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def field(self):
        return self.module.field

    @property
    def faces(self) -> tuple:
        return (self.module, self.star_face)

    @cached_property
    def star_face(self) -> ModuleRep:
        """The comodule's action as an (H^op)*-module, sharing its action, sparse rows and laws."""
        star = self.comodule.star_module
        face = ModuleRep(self.hopf.op_dual_algebra, self.dim, star.action, name=self.name)
        face.laws, face.sparse_action = star.laws, star.sparse_action
        return face

    @property
    def operators(self) -> list[Matrix]:
        return self.double_action

    def with_faces(self, faces, name: str) -> YDModuleRep:
        module, star_face = faces
        require_same_hopf(star_face.algebra, self.hopf.op_dual_algebra)
        star = ModuleRep(self.hopf.dual_algebra(), star_face.dim, star_face.action, name=name)
        y = YDModuleRep(module, ComoduleRep.over_dual(self.hopf, star, name), name=name)
        y.star_face = star_face
        return y

    @property
    def double_action(self) -> list[Matrix]:
        """The n^2 products B_t A_j of the H*-action with the H-action.

        They are the action of the basis f_t h_j of the Drinfel'd double
        D(H) = H* H, so they span the image of D(H) in End(V); D(H) itself
        is never built."""
        return [b * a for b in self.comodule.star_module.action for a in self.module.action]

    def __repr__(self):
        return f"<YDModuleRep {self.name or '?'} dim={self.dim} over {self.hopf.name or '?'}>"

    @cached_property
    def laws(self) -> tuple:
        """The H-face's module laws, the comodule laws, then
        yd_compatibility, computed once per object for the axiom report and
        the guard alike."""
        return self.module.laws + self.comodule.laws + (("yd_compatibility", self._straightening_violation()),)

    def _straightening_violation(self):
        """First (i, t) at which the straightening identity of the module
        docstring fails, or None: one sparse combination per (i, t).

        When the laws of H, of the module and of the comodule hold, only the
        rows i in H's ``generators`` are scanned: the identity is linear in
        h, holds for h = 1, and holds for hk when it holds for h and for k
        (Delta multiplicative, the module and the comodule law; Montgomery,
        *Hopf Algebras and Their Actions on Rings*, 10.6), so these rows
        decide it and hold its first violation (see ``hopf``).  Otherwise
        every row is scanned."""
        h, n = self.hopf, self.hopf.dim
        lawful = laws_hold(h) and laws_hold(self.module) and laws_hold(self.comodule)
        a_rows = self.module.sparse_action
        b_rows = self.comodule.star_module.sparse_action
        # left[s][t] holds (b, m_sb^t) and right[j][t] holds (a, m_aj^t)
        left, right = h.multiplication_rows
        for i in h.generators() if lawful else range(n):
            terms = [(c, j, s) for j, row in enumerate(h.comult[i]) for s, c in enumerate(row) if c]
            for t in range(n):
                products = [(c * x, a_rows[j], b_rows[b]) for c, j, s in terms for b, x in left[s][t]]
                products += [(-c * x, b_rows[a], a_rows[s]) for c, j, s in terms for a, x in right[j][t]]
                if combination_differs(h.field, self.dim, [], products):
                    return (i, t)
        return None


# one report for every kind, read off ``YDModuleRep.laws`` here
check_yd_compat = check_module_axioms


def trivial_yd(h: HopfAlgebraData) -> YDModuleRep:
    return YDModuleRep(trivial_module(h), trivial_comodule(h), name="ydtrivial")
