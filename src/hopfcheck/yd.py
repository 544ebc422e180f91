"""Yetter-Drinfel'd modules: a module and a comodule on the same space, tied
together by the left-right compatibility law

    h_(1) m_<0>  (x)  h_(2) m_<1>   =   (h_(2) m)_<0>  (x)  (h_(2) m)_<1> h_(1)

evaluated as an exact tensor identity for every pair (algebra basis element,
space basis vector).  The convention is hard-coded; there are no switches.

Its faces are the H-module and the H*-module of the comodule: the tensor
product, dual and Hom space are the module ones taken on both faces.
"""

from __future__ import annotations

from .comodules import ComoduleRep, check_comodule_axioms, trivial_comodule
from .hopf import AxiomReport, HopfAlgebraData
from .matrix import Matrix
from .modules import ModuleRep, check_module_axioms, require_same_hopf, trivial_module


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
        return (self.module, self.comodule.star_module)

    @property
    def operators(self) -> list[Matrix]:
        return self.double_action

    def with_faces(self, faces, name: str) -> YDModuleRep:
        module, star_module = faces
        return YDModuleRep(module, ComoduleRep.over_dual(self.hopf, star_module, name), name=name)

    @property
    def double_action(self) -> list[Matrix]:
        """The n^2 products B_t A_j of the H*-action with the H-action.

        They are the action of the basis f_t h_j of the Drinfel'd double
        D(H) = H* H, so they span the image of D(H) in End(V); D(H) itself
        is never built."""
        return [b * a for b in self.comodule.star_module.action for a in self.module.action]

    def __repr__(self):
        return f"<YDModuleRep {self.name or '?'} dim={self.dim} over {self.hopf.name or '?'}>"


def check_yd_compat(y: YDModuleRep) -> AxiomReport:
    """Module and comodule axioms plus the compatibility identity."""
    report = AxiomReport(y.name or "yd")
    for check in check_module_axioms(y.module).checks:
        report.checks.append(check)
    for check in check_comodule_axioms(y.comodule).checks:
        report.checks.append(check)

    h = y.hopf
    field = h.field
    n = h.dim
    dim = y.dim
    coact = y.comodule.coaction
    act = y.module.action
    mult = h.mult
    violation = None
    for i in range(n):
        comult_terms = [
            (j, t, h.comult[i][j][t])
            for j in range(n)
            for t in range(n)
            if h.comult[i][j][t]
        ]
        for a in range(dim):
            zero = field.zero()
            lhs = [[zero] * n for _ in range(dim)]
            rhs = [[zero] * n for _ in range(dim)]
            for j, t, d in comult_terms:
                # left side: act by the first leg on the e-leg of the
                # coaction, multiply the second leg onto the H-leg
                for b in range(dim):
                    for s in range(n):
                        x = coact[a][b][s]
                        if not x:
                            continue
                        dx = field.mul(d, x)
                        for r in range(dim):
                            aa = act[j].entries[r][b]
                            if not aa:
                                continue
                            dxa = field.mul(dx, aa)
                            for u, c in enumerate(mult[t][s]):
                                if c:
                                    lhs[r][u] = field.add(lhs[r][u], field.mul(dxa, c))
                # right side: act by the second leg first, coact, then
                # multiply the first leg from the right
                for b in range(dim):
                    ab = act[t].entries[b][a]
                    if not ab:
                        continue
                    dab = field.mul(d, ab)
                    for r in range(dim):
                        for s in range(n):
                            x = coact[b][r][s]
                            if not x:
                                continue
                            dabx = field.mul(dab, x)
                            for u, c in enumerate(mult[s][j]):
                                if c:
                                    rhs[r][u] = field.add(rhs[r][u], field.mul(dabx, c))
            if lhs != rhs:
                violation = (i, a)
                break
        if violation:
            break
    report.record("yd_compatibility", violation)
    return report


def trivial_yd(h: HopfAlgebraData) -> YDModuleRep:
    return YDModuleRep(trivial_module(h), trivial_comodule(h), name="ydtrivial")
