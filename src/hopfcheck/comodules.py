"""Right comodules, stored as the modules over the dual Hopf algebra they are.

``coaction[a][b][t]`` is the coefficient of ``e_b (x) h_t`` in the coaction
applied to ``e_a``.  For finite-dimensional H a right H-comodule is the same
thing as a left H*-module: the dual basis functional f_t acts by
``B_t[b][a] = coaction[a][b][t]`` (Montgomery, *Hopf Algebras and Their
Actions on Rings*, 1.6).  Subcomodules, colinear maps, the tensor product and
the dual are exactly the H*-module ones, so a ``ComoduleRep`` keeps only that
module (``star_module``), which is its one face: every comodule construction
is the module construction over ``H.dual_algebra()``.  ``coaction`` is a
read-only view of the same data in comodule terms, and ``laws`` is the
H*-face's law table under the comodule names counit_law and
coassociativity, which ``check_comodule_axioms``, the one report function
of every kind, reads.
"""

from __future__ import annotations

from functools import cached_property

from .hopf import HopfAlgebraData
from .matrix import Matrix
from .modules import ModuleRep, check_module_axioms, require_same_hopf


class ComoduleRep:
    kind = "comodule"

    def __init__(self, hopf: HopfAlgebraData, dim: int, coaction, name: str = ""):
        if len(coaction) != dim or any(
            len(row) != dim or any(len(cell) != hopf.dim for cell in row) for row in coaction
        ):
            raise ValueError(f"coaction tensor is not {dim}x{dim}x{hopf.dim}")
        action = [
            Matrix(hopf.field, dim, dim, [[coaction[a][b][t] for a in range(dim)] for b in range(dim)])
            for t in range(hopf.dim)
        ]
        self.hopf = hopf
        self.name = name
        self.star_module = ModuleRep(hopf.dual_algebra(), dim, action, name=name)

    @classmethod
    def over_dual(cls, hopf: HopfAlgebraData, star_module: ModuleRep, name: str = "") -> ComoduleRep:
        """The H-comodule that an H*-module is."""
        require_same_hopf(star_module.algebra, hopf.dual_algebra())
        c = cls.__new__(cls)
        c.hopf = hopf
        c.name = name
        c.star_module = star_module
        return c

    @property
    def dim(self) -> int:
        return self.star_module.dim

    @property
    def faces(self) -> tuple:
        return (self.star_module,)

    @property
    def operators(self) -> list[Matrix]:
        return self.star_module.action

    def with_faces(self, faces, name: str) -> ComoduleRep:
        (star_module,) = faces
        return ComoduleRep.over_dual(self.hopf, star_module, name)

    @property
    def field(self):
        return self.hopf.field

    @property
    def coaction(self):
        mats = [m.entries for m in self.star_module.action]
        return [[[mat[b][a] for mat in mats] for b in range(self.dim)] for a in range(self.dim)]

    @cached_property
    def laws(self) -> tuple:
        """counit_law and coassociativity: the unit and multiplicativity laws
        of the H*-face, read off its table under their comodule names."""
        (_, counit), (_, coassociativity) = self.star_module.laws
        return ("counit_law", counit), ("coassociativity", coassociativity)

    def __repr__(self):
        return f"<ComoduleRep {self.name or '?'} dim={self.dim} over {self.hopf.name or '?'}>"


# one report for every kind, read off ``ComoduleRep.laws`` here
check_comodule_axioms = check_module_axioms


def trivial_comodule(h: HopfAlgebraData) -> ComoduleRep:
    """One-dimensional comodule with coaction by the unit of the algebra."""
    return ComoduleRep(h, 1, [[list(h.unit)]], name="cotrivial")


def regular_comodule(h: HopfAlgebraData) -> ComoduleRep:
    """The algebra over itself through its comultiplication."""
    coaction = [[list(h.comult[a][b]) for b in range(h.dim)] for a in range(h.dim)]
    return ComoduleRep(h, h.dim, coaction, name="coregular")
