"""Strong-dual certificates and the Serre-style verification verdicts.

For an object N of dimension m the canonical element of N (x) N* has the
flattened-identity coordinate vector in the fixed Kronecker basis.  Viewed
as a map from the trivial object it is the coevaluation; the pairing back
to the base field is the evaluation.  Composing the two gives dim(N)*1_k,
so whenever that scalar is invertible and both maps are morphisms, the
coevaluation splits with retraction (dim(N)*1_k)^-1 * evaluation.

Equivariance of the coevaluation only needs the antipode axiom and must
hold over every Hopf algebra here; equivariance of the evaluation uses
S = S^-1 and is expected to fail on non-involutory inputs.  Both are
checked as exact identities rather than assumed.  A comodule is checked as
the module over the dual Hopf algebra H* that it is: there equivariance is
colinearity, and H* is involutory exactly when H is.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .comodules import (
    ComoduleRep,
    check_comodule_axioms,
    dual_comodule,
    tensor_comodules,
    trivial_comodule,
)
from .errors import (
    CertificateError,
    NotAMorphismError,
    NotInjectiveError,
    NotInvolutoryError,
    NotSplitError,
    RankNotInvertibleError,
)
from .fields import Field
from .hopf import AxiomReport, HopfAlgebraData
from .matrix import Matrix, NoSolutionError, kernel_basis, solve_linear
from .modules import (
    ModuleRep,
    check_module_axioms,
    dual_module,
    hom_space,
    require_hopf,
    require_same_hopf,
    tensor_modules,
    trivial_module,
)
from .semisimple import (
    DEFAULT_ORACLE_BOUND,
    SemisimplicityReport,
    brute_force_cosemisimple,
    brute_force_semisimple,
    brute_force_yd_semisimple,
    is_cosemisimple,
    is_semisimple,
    is_yd_semisimple,
)
from .yd import YDModuleRep, check_yd_compat, dual_yd, tensor_yd, trivial_yd, yd_hom_space

MODULE = "module"
COMODULE = "comodule"
YD = "yd"


@dataclass
class HSRank:
    value: object
    invertible: bool


def hs_rank(dim: int, field: Field) -> HSRank:
    """dim(N) * 1_k together with its invertibility in the base field."""
    value = field.from_int(dim)
    return HSRank(value, not field.is_zero(value))


def coevaluation(obj) -> Matrix:
    """Column vector of the canonical element in the tensor-square basis."""
    field, dim = obj.field, obj.dim
    zero, one = field.zero(), field.one()
    col = [zero] * (dim * dim)
    for i in range(dim):
        col[i * dim + i] = one
    return Matrix.column(field, col)


def evaluation(obj) -> Matrix:
    """Row vector realizing the pairing in the tensor-square basis."""
    return coevaluation(obj).transpose()


# categorical dispatch: the one place that tells the three kinds apart ------


def category_of(obj) -> str:
    if isinstance(obj, ModuleRep):
        return MODULE
    if isinstance(obj, ComoduleRep):
        return COMODULE
    if isinstance(obj, YDModuleRep):
        return YD
    raise TypeError(f"not a module, comodule or YD module: {obj!r}")


def hopf_of(obj) -> HopfAlgebraData:
    if isinstance(obj, ModuleRep):
        return require_hopf(obj.algebra)
    return obj.hopf


def tensor_in_category(a, b, name: str = ""):
    kind = category_of(a)
    if kind != category_of(b):
        raise TypeError("cannot tensor objects of different kinds")
    if kind == MODULE:
        return tensor_modules(a, b, name=name)
    if kind == COMODULE:
        return tensor_comodules(a, b, name=name)
    return tensor_yd(a, b, name=name)


def dual_in_category(obj, name: str = ""):
    kind = category_of(obj)
    if kind == MODULE:
        return dual_module(obj, name=name)
    if kind == COMODULE:
        return dual_comodule(obj, name=name)
    return dual_yd(obj, name=name)


def trivial_in_category(hopf: HopfAlgebraData, kind: str):
    if kind == MODULE:
        return trivial_module(hopf)
    if kind == COMODULE:
        return trivial_comodule(hopf)
    return trivial_yd(hopf)


def hom_in_category(a, b) -> list[Matrix]:
    kind = category_of(a)
    if kind == MODULE:
        return hom_space(a, b)
    if kind == COMODULE:  # colinear maps are the H*-linear maps
        return hom_space(a.star_module, b.star_module)
    return yd_hom_space(a, b)


def axioms_in_category(obj) -> AxiomReport:
    kind = category_of(obj)
    if kind == MODULE:
        return check_module_axioms(obj)
    if kind == COMODULE:
        return check_comodule_axioms(obj)
    return check_yd_compat(obj)


def semisimple_in_category(obj) -> SemisimplicityReport:
    kind = category_of(obj)
    if kind == MODULE:
        return is_semisimple(obj)
    if kind == COMODULE:
        return is_cosemisimple(obj)
    return is_yd_semisimple(obj)


def brute_force_in_category(obj, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    kind = category_of(obj)
    if kind == MODULE:
        return brute_force_semisimple(obj, bound)
    if kind == COMODULE:
        return brute_force_cosemisimple(obj, bound)
    return brute_force_yd_semisimple(obj, bound)


# equivariance of the canonical maps ------------------------------------------


def verify_coev_equivariance(n: ModuleRep) -> AxiomReport:
    """The coevaluation intertwines the action; needs only the antipode axiom."""
    h = require_hopf(n.algebra)
    square = tensor_modules(n, dual_module(n))
    coev = coevaluation(n)
    report = AxiomReport(f"coevaluation equivariance on {n.name or 'module'}")
    violation = None
    for i in range(h.dim):
        if square.action[i] * coev != coev.scale(h.counit[i]):
            violation = (i,)
            break
    report.record("coevaluation_equivariant", violation)
    return report


def verify_ev_equivariance(n: ModuleRep) -> AxiomReport:
    """The evaluation intertwines the action; holds when S is an involution."""
    h = require_hopf(n.algebra)
    square = tensor_modules(n, dual_module(n))
    ev = evaluation(n)
    report = AxiomReport(f"evaluation equivariance on {n.name or 'module'}")
    violation = None
    for i in range(h.dim):
        if ev * square.action[i] != ev.scale(h.counit[i]):
            violation = (i,)
            break
    report.record("evaluation_equivariant", violation)
    return report


# certificates ----------------------------------------------------------------


@dataclass
class SplitMonoCertificate:
    category: str
    mono: Matrix
    retraction: Matrix
    context: str

    def verify(self, source, target) -> bool:
        """Re-check the certificate from scratch: retraction . mono is the
        identity and both maps lie in the canonical Hom-space span."""
        if not (self.retraction * self.mono).is_identity():
            return False
        if not _in_span(hom_in_category(source, target), self.mono):
            return False
        if not _in_span(hom_in_category(target, source), self.retraction):
            return False
        return True

    def to_doc(self):
        field = self.mono.field
        return {
            "category": self.category,
            "context": self.context,
            "mono": [[field.scalar_to_doc(x) for x in row] for row in self.mono.entries],
            "retraction": [
                [field.scalar_to_doc(x) for x in row] for row in self.retraction.entries
            ],
        }


def _in_span(basis: list[Matrix], target: Matrix) -> bool:
    if target.is_zero():
        return True
    if not basis:
        return False
    field = target.field
    width = target.rows * target.cols
    flats = [b.flatten() for b in basis]
    cols = Matrix(field, width, len(basis), [[f[i] for f in flats] for i in range(width)])
    try:
        solve_linear(cols, Matrix.column(field, target.flatten()))
        return True
    except NoSolutionError:
        return False


def build_strong_dual_certificates(obj) -> tuple[SplitMonoCertificate, SplitMonoCertificate]:
    """Split-mono witnesses for both tensor orders of an object with its dual.

    Preconditions mirror the hypotheses of the underlying statement: the
    Hopf algebra must be involutory and dim(N)*1_k must be invertible.
    """
    h = hopf_of(obj)
    kind = category_of(obj)
    if not h.is_involutory():
        raise NotInvolutoryError(f"{h.name or 'the Hopf algebra'} has S^2 != id")
    rank = hs_rank(obj.dim, h.field)
    if not rank.invertible:
        raise RankNotInvertibleError(
            f"dim {obj.dim} is not invertible over {h.field!r}"
        )
    inv_rank = h.field.invert(rank.value)
    dual = dual_in_category(obj)
    unit_obj = trivial_in_category(h, kind)

    certificates = []
    for left_factor, right_factor, tag in (
        (obj, dual, "right-dual"),
        (dual, obj, "left-dual"),
    ):
        square = tensor_in_category(left_factor, right_factor)
        mono = coevaluation(obj)
        retraction = evaluation(obj).scale(inv_rank)
        cert = SplitMonoCertificate(
            category=kind,
            mono=mono,
            retraction=retraction,
            context=f"{tag} of {getattr(obj, 'name', '?')}",
        )
        if not cert.verify(unit_obj, square):
            raise CertificateError(f"certificate failed re-verification: {cert.context}")
        certificates.append(cert)
    return certificates[0], certificates[1]


def split_retraction(mono: Matrix, sub, ambient) -> SplitMonoCertificate:
    """Solve for a categorical retraction of an injective morphism.

    The retraction is the canonical echelon solution of the stacked system
    {g in Hom(ambient, sub), g . mono = id}, so certificates are stable
    across runs.
    """
    kind = category_of(sub)
    if kind != category_of(ambient):
        raise TypeError("sub and ambient live in different categories")
    require_same_hopf(hopf_of(sub), hopf_of(ambient))
    if mono.rows != ambient.dim or mono.cols != sub.dim:
        raise ValueError("mono has the wrong shape for these objects")
    if not _in_span(hom_in_category(sub, ambient), mono):
        raise NotAMorphismError("the claimed mono is not a morphism")
    if kernel_basis(mono):
        raise NotInjectiveError("the claimed mono has a nontrivial kernel")

    basis = hom_in_category(ambient, sub)
    field = mono.field
    if not basis:
        raise NotSplitError("the Hom space in the retraction direction is zero")
    width = sub.dim * sub.dim
    composites = [(g * mono).flatten() for g in basis]
    cols = Matrix(field, width, len(basis), [[f[i] for f in composites] for i in range(width)])
    target = Matrix.column(field, Matrix.identity(field, sub.dim).flatten())
    try:
        alpha = solve_linear(cols, target)
    except NoSolutionError:
        raise NotSplitError("no morphism retracts the given mono") from None
    retraction = Matrix.zeros(field, sub.dim, ambient.dim)
    for coeff_row, g in zip(alpha.entries, basis):
        if coeff_row[0]:
            retraction = retraction + g.scale(coeff_row[0])
    cert = SplitMonoCertificate(
        category=kind,
        mono=mono,
        retraction=retraction,
        context=f"retraction of {getattr(sub, 'name', '?')} -> {getattr(ambient, 'name', '?')}",
    )
    if not (retraction * mono).is_identity():
        raise CertificateError("solved retraction failed re-verification")
    return cert


# Serre verdicts ----------------------------------------------------------------


@dataclass
class SerreVerdict:
    category: str
    m_name: str
    n_name: str
    hopf_name: str
    involutory: bool
    hypothesis_holds: bool
    rank_invertible_m: bool
    rank_invertible_n: bool
    conclusion_m: bool
    conclusion_n: bool
    consistent: bool = dc_field(init=False)

    def __post_init__(self):
        bad_m = self.hypothesis_holds and self.rank_invertible_n and not self.conclusion_m
        bad_n = self.hypothesis_holds and self.rank_invertible_m and not self.conclusion_n
        self.consistent = not bad_m and not bad_n

    def to_doc(self):
        return {
            "category": self.category,
            "hopf": self.hopf_name,
            "m": self.m_name,
            "n": self.n_name,
            "involutory": self.involutory,
            "hypothesis_holds": self.hypothesis_holds,
            "rank_invertible_m": self.rank_invertible_m,
            "rank_invertible_n": self.rank_invertible_n,
            "conclusion_m": self.conclusion_m,
            "conclusion_n": self.conclusion_n,
            "consistent": self.consistent,
        }


def cached_verdict(obj, cache: dict | None = None) -> bool:
    """The semisimplicity verdict of ``obj``, memoized in ``cache`` if given."""
    if cache is None:
        return semisimple_in_category(obj).verdict
    # keyed by the object, not its id: the cache keeps it alive, so a
    # collected object's id cannot be reused for a stale verdict
    if obj not in cache:
        cache[obj] = semisimple_in_category(obj).verdict
    return cache[obj]


def verify_serre(m, n, cache: dict | None = None) -> SerreVerdict:
    """Check one tensor-pair instance of the semisimplicity implication.

    ``consistent`` is false exactly when the tensor product is semisimple,
    one factor has invertible rank, and the other factor fails to be
    semisimple; over an involutory Hopf algebra that would contradict the
    theorem under test and must abort any campaign loudly.
    """
    kind = category_of(m)
    if kind != category_of(n):
        raise TypeError("cannot compare objects of different kinds")
    h = hopf_of(m)
    require_same_hopf(h, hopf_of(n))

    product = tensor_in_category(m, n)
    hypothesis = semisimple_in_category(product).verdict
    conclusion_m = cached_verdict(m, cache)
    conclusion_n = cached_verdict(n, cache)
    rank_m = hs_rank(m.dim, h.field).invertible
    rank_n = hs_rank(n.dim, h.field).invertible
    verdict = SerreVerdict(
        category=kind,
        m_name=getattr(m, "name", "?"),
        n_name=getattr(n, "name", "?"),
        hopf_name=h.name,
        involutory=h.is_involutory(),
        hypothesis_holds=hypothesis,
        rank_invertible_m=rank_m,
        rank_invertible_n=rank_n,
        conclusion_m=conclusion_m,
        conclusion_n=conclusion_n,
    )
    return verdict
