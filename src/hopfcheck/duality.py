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
checked as exact identities rather than assumed, by one function:
``pairing_violation`` decides coev into N (x) N* or N* (x) N, or ev out of
either square, on the one vector the map carries, without building N*, the
unit object or the square.  Each face decides each of the four maps at most
once and keeps the answer (``ModuleRep.pairing_violation``), so the
campaign's equivariance dichotomy, both orders of the strong-dual
certificates and H's antipode laws (coev and ev of the regular module) share
one computation, and a catalog object checked again costs no arithmetic.
A comodule is checked as the module over the dual Hopf algebra H* that it
is: there equivariance is colinearity, and H* is involutory exactly when H
is.

Every object is the tuple of modules in its ``faces``: tensor product,
dual and Hom space are the module constructions applied face by face.
A YD object's H*-face is an (H^op)*-module (``yd``), so its product
coaction is n_<1> m_<1> and its dual goes through S^-1 over every H.
Every object also carries its named law table ``laws``, so one function,
``modules.check_module_axioms``, reports the axioms of every kind, and one
guard, ``modules.require_laws``, refuses an unlawful object before any
verdict or certificate.  A product of lawful objects is lawful
(``tensor_in_category``), so the engine decides a product behind its
factors' guard alone (``semisimple.tensor_semisimplicity``).
``verify_serre`` imports the engine when it runs, so building a dual or a
product loads none of it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import (
    CertificateError,
    NotAMorphismError,
    NotInjectiveError,
    NotInvolutoryError,
    NotSplitError,
    RankNotInvertibleError,
)
from .fields import Field
from .matrix import Matrix, NoSolutionError, kernel_basis, solve_linear
from .modules import (
    dual_module,
    joint_hom_space,
    require_laws,
    require_same_hopf,
    tensor_modules,
)


class HSRank(namedtuple("HSRank", "value invertible")):
    """dim(N) * 1_k and whether it is a unit."""

    __slots__ = ()


# a rank depends on (dim, field) only and the record is immutable, so one
# record serves every object and pair of that dimension: a campaign asks
# 1660 times for a few dozen ranks
@lru_cache(maxsize=None)
def hs_rank(dim: int, field: Field) -> HSRank:
    """dim(N) * 1_k together with its invertibility in the base field."""
    value = field.from_int(dim)
    return HSRank(value, not field.is_zero(value))


# like a rank, coev and ev depend on (dim, field) only, and a Matrix is not
# edited after construction, so one pair serves every object of that dimension
@lru_cache(maxsize=None)
def _pairing_vectors(dim: int, field: Field) -> tuple[Matrix, Matrix]:
    coev = Matrix.column(field, Matrix.identity(field, dim).flatten())
    return coev, coev.transpose()


def coevaluation(obj) -> Matrix:
    """Column vector of the canonical element in the tensor-square basis."""
    return _pairing_vectors(obj.dim, obj.field)[0]


def evaluation(obj) -> Matrix:
    """Row vector realizing the pairing in the tensor-square basis."""
    return _pairing_vectors(obj.dim, obj.field)[1]


# categorical dispatch: every kind is its tuple of module faces --------------


def category_of(obj) -> str:
    kind = getattr(obj, "kind", None)
    if kind not in ("module", "comodule", "yd"):
        raise TypeError(f"not a module, comodule or YD module: {obj!r}")
    return kind


def _common_category(a, b, mismatch: str) -> str:
    kind = category_of(a)
    if kind != category_of(b):
        raise TypeError(mismatch)
    return kind


def tensor_in_category(a, b):
    """M (x) N, the module tensor product taken face by face.

    The product computes its law table when first read.  When the laws of
    H, M and N all hold, its laws hold by the theorems below, so
    ``semisimple.tensor_semisimplicity`` decides it behind the factors'
    guard alone.  With A_j, A'_j the H-actions and B_t, B'_t the actions of
    f_t on the H*-faces of M and N:

    * Module law.  b_i acts by sum_jt Delta_i^jt A_j (x) A'_t, that is,
      h acts by (rho_M (x) rho_N)(Delta h).  Delta is multiplicative
      (comult_multiplicative) and so are rho_M and rho_N, hence
      rho(x) rho(y) = (rho_M (x) rho_N)(Delta(x) Delta(y)) = rho(xy); and
      Delta(1) = 1 (x) 1 (comult_unit), hence rho(1) = I (x) I = I.
    * Comodule laws.  They are the module laws of the H*-face over H*, or
      over (H^op)* for a YD object, whose coproduct (dual to H's product or
      its opposite) is multiplicative and unital exactly when Delta and eps
      are (comult_multiplicative, counit_multiplicative).
    * Straightening identity.  f_t acts on the (H^op)*-face by
      sum_js m_sj^t B_j (x) B'_s, so the product's coaction is
      m (x) n -> m_<0> (x) n_<0> (x) n_<1> m_<1>, and the two sides of the
      law of ``yd`` for M (x) N are

          h_(1) m_<0> (x) h_(2) n_<0> (x) h_(3) n_<1> m_<1>
          (h_(2) m)_<0> (x) (h_(3) n)_<0> (x) (h_(3) n)_<1> (h_(2) m)_<1> h_(1).

      By coassociativity a factor's law applies to any two adjacent legs:
      M's law on (h_(1), h_(2)) turns (h_(2) m)_<0> (x) (h_(2) m)_<1> h_(1)
      into h_(1) m_<0> (x) h_(2) m_<1>, which gives
      h_(1) m_<0> (x) (h_(3) n)_<0> (x) (h_(3) n)_<1> h_(2) m_<1>, and N's
      law on (h_(2), h_(3)) then gives the first side.  No hypothesis on H
      is used, so this holds over every H.
    """
    _common_category(a, b, "cannot tensor objects of different kinds")
    require_same_hopf(a.hopf, b.hopf)  # a mismatch names H, not a face's H*
    label = f"({a.name})(x)({b.name})"
    return a.with_faces(tuple(tensor_modules(x, y, name=label) for x, y in zip(a.faces, b.faces)), label)


def dual_in_category(obj):
    category_of(obj)
    label = f"({obj.name})*"
    return obj.with_faces(tuple(dual_module(face, name=label) for face in obj.faces), label)


def hom_in_category(a, b) -> list[Matrix]:
    """Maps intertwining every face at once, as one stacked system."""
    _common_category(a, b, "no Hom space between objects of different kinds")
    return joint_hom_space(list(zip(a.faces, b.faces)))


def morphism_violation(g: Matrix, source, target):
    """First generator that ``g`` fails to intertwine, or None: (i,) for the
    first i with g.A_i != B_i.g, where the A_i act on ``source`` and the B_i
    on ``target``, numbered face by face (a YD module's H*-face follows its
    H-face); () when ``g`` is not even shaped as a map source -> target."""
    _common_category(source, target, "no morphism between objects of different kinds")
    if g.rows != target.dim or g.cols != source.dim:
        return ()
    pairs = (
        (a, b)
        for src_face, tgt_face in zip(source.faces, target.faces)
        for a, b in zip(src_face.action, tgt_face.action)
    )
    for i, (a, b) in enumerate(pairs):
        if g * a != b * g:
            return (i,)
    return None


def pairing_violation(obj, coev: bool, dual_first: bool):
    """``morphism_violation`` of coev: k -> square (``coev``) or of
    ev: square -> k, where the square is N (x) N*, or N* (x) N with
    ``dual_first``, read face by face off ``ModuleRep.pairing_violation``,
    which decides each map once per face on the one vector it carries.
    Generators are numbered across faces as ``morphism_violation`` numbers
    them."""
    offset = 0
    for face in obj.faces:
        i = face.pairing_violation(coev, dual_first)
        if i is not None:
            return (offset + i,)
        offset += face.hopf.dim
    return None


def is_morphism(g: Matrix, source, target) -> bool:
    """``g`` intertwines every face.  The Hom space is exactly these maps, so
    this is membership in it without solving for it."""
    return morphism_violation(g, source, target) is None


# certificates ----------------------------------------------------------------


class SplitMonoCertificate(namedtuple("SplitMonoCertificate", "category mono retraction context")):
    """A mono and a retraction of it, both matrices, in one category."""

    __slots__ = ()

    def verify(self, source, target) -> bool:
        """Re-check the certificate from scratch: retraction . mono is the
        identity and both maps are morphisms."""
        return (
            (self.retraction * self.mono).is_identity()
            and is_morphism(self.mono, source, target)
            and is_morphism(self.retraction, target, source)
        )

    def to_doc(self):
        out = self.mono.field.table_to_doc
        return {
            "category": self.category,
            "context": self.context,
            "mono": out(self.mono.entries),
            "retraction": out(self.retraction.entries),
        }


def build_strong_dual_certificates(obj) -> tuple[SplitMonoCertificate, SplitMonoCertificate]:
    """Split-mono witnesses for both tensor orders of an object with its dual.

    Preconditions mirror the hypotheses of the underlying statement: the
    laws of the object and of its Hopf algebra must hold (``require_laws``),
    the Hopf algebra must be involutory and dim(N)*1_k must be invertible.
    """
    kind = category_of(obj)
    require_laws(obj)
    h = obj.hopf
    if not h.is_involutory():
        raise NotInvolutoryError(f"{h.name or 'the Hopf algebra'} has S^2 != id")
    rank = hs_rank(obj.dim, h.field)
    if not rank.invertible:
        raise RankNotInvertibleError(
            f"dim {obj.dim} is not invertible over {h.field!r}"
        )
    inv_rank = h.field.invert(rank.value)
    mono = coevaluation(obj)
    retraction = evaluation(obj).scale(inv_rank)
    splits = (retraction * mono).is_identity()

    certificates = []
    for dual_first, tag in ((False, "right-dual"), (True, "left-dual")):
        context = f"{tag} of {getattr(obj, 'name', '?')}"
        # coev and ev are checked on the one vector each carries, not on a
        # built N (x) N* or N* (x) N as ``SplitMonoCertificate.verify`` would
        if not splits or any(pairing_violation(obj, coev, dual_first) is not None for coev in (True, False)):
            raise CertificateError(f"certificate failed re-verification: {context}")
        certificates.append(SplitMonoCertificate(kind, mono, retraction, context))
    return certificates[0], certificates[1]


def split_retraction(mono: Matrix, sub, ambient) -> SplitMonoCertificate:
    """Solve for a categorical retraction of an injective morphism.

    The retraction is the canonical echelon solution of the stacked system
    {g in Hom(ambient, sub), g . mono = id}, so certificates are stable
    across runs.  Both objects pass ``require_laws`` first.
    """
    kind = _common_category(sub, ambient, "sub and ambient live in different categories")
    require_same_hopf(sub.hopf, ambient.hopf)
    require_laws(sub)
    require_laws(ambient)
    if mono.rows != ambient.dim or mono.cols != sub.dim:
        raise ValueError("mono has the wrong shape for these objects")
    if not is_morphism(mono, sub, ambient):
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
    if not cert.verify(sub, ambient):
        raise CertificateError("solved retraction failed re-verification")
    return cert


# Serre verdicts ----------------------------------------------------------------


class SerreVerdict(
    namedtuple(
        "SerreVerdict",
        "category m_name n_name hopf_name involutory hypothesis_holds"
        " rank_invertible_m rank_invertible_n conclusion_m conclusion_n",
    )
):
    """One pair's verdicts; ``consistent`` is read off them, so a verdict
    made with ``_replace`` recomputes it."""

    __slots__ = ()

    @property
    def consistent(self) -> bool:
        bad_m = self.hypothesis_holds and self.rank_invertible_n and not self.conclusion_m
        bad_n = self.hypothesis_holds and self.rank_invertible_m and not self.conclusion_n
        return not bad_m and not bad_n

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


def verify_serre(m, n, cache: dict | None = None) -> SerreVerdict:
    """Check one tensor-pair instance of the semisimplicity implication.

    ``consistent`` is false exactly when the tensor product is semisimple,
    one factor has invertible rank, and the other factor fails to be
    semisimple; over an involutory Hopf algebra that would contradict the
    theorem under test and must abort any campaign loudly.  The pair's only
    check is ``semisimple.tensor_semisimplicity``, which refuses objects of
    two kinds or over two Hopf algebras and an unlawful factor with its own
    ``AxiomError``, and decides the product in ``cache``.  Each factor's
    verdict is then read through the same cache, or one of this pair alone.
    """
    from .semisimple import cached_verdict, tensor_semisimplicity

    if cache is None:
        cache = {}
    hypothesis = tensor_semisimplicity(m, n, cache).verdict
    h = m.hopf
    return SerreVerdict(
        category=m.kind,
        m_name=getattr(m, "name", "?"),
        n_name=getattr(n, "name", "?"),
        hopf_name=h.name,
        involutory=h.is_involutory(),
        hypothesis_holds=hypothesis,
        rank_invertible_m=hs_rank(m.dim, h.field).invertible,
        rank_invertible_n=hs_rank(n.dim, h.field).invertible,
        conclusion_m=cached_verdict(m, cache),
        conclusion_n=cached_verdict(n, cache),
    )
