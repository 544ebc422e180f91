"""Built-in structure-constant data: Hopf algebras, modules, comodules and
Yetter-Drinfel'd modules, plus the negative fixtures the test campaign needs.

Every Hopf algebra comes from one constructor, ``_hopf_from_ints``, on
integer tables that code derives from its presentation: kG from the group's
multiplication table and inverses, and H4 (Sweedler's algebra, the Taft
algebra T_2) from the rule that defines its product.  Integer tables are
specialized to each base field when built, so one table serves every
characteristic.

The catalog is built one group at a time: a Hopf entry together with every
object over it, on first use.  Each entry is checked once.  kG is built and
checked once per field, in its constructor, and shared by the group of k^G,
whose Hopf entry is built unchecked on kG's dual tables: each law of k^G is
a law of kG read backwards, so k^G's law tables are kG's.  Every entry,
a Hopf entry too, has its axiom report read off its ``laws`` when its group
is first built; entries tagged with ``expected_failure`` must fail exactly
that check.

Identifiers follow <hopf>/<field>[/<object>], e.g. "kS3/F3/regular",
where <object> is the object's own name.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import permutations

from .comodules import ComoduleRep, regular_comodule, trivial_comodule
from .fields import Field, field_by_name, field_name
from .hopf import HopfAlgebraData
from .matrix import Matrix
from .modules import ModuleRep, axioms_in_category, regular_module, trivial_module
from .yd import YDModuleRep, trivial_yd

HOPF_FIELDS = ("Q", "F2", "F3", "F5", "F7")
SWEEDLER_FIELDS = ("Q", "F5")  # needs -1 != 1
# the kinds of object over a Hopf entry
CATEGORIES = ("module", "comodule", "yd")


class CatalogEntry(namedtuple("CatalogEntry", "id payload provenance_note expected_failure", defaults=(None,))):
    """One id, its payload object, a note on where it comes from, and the law
    a negative fixture must fail (None for a valid entry)."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        """The payload's own kind: "hopf", "module", "comodule" or "yd"."""
        return self.payload.kind


# group data -------------------------------------------------------------------


def _cyclic_group(n: int):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inverses = [(-i) % n for i in range(n)]
    return table, inverses


def _symmetric_group_3():
    """S3 as permutations of {0,1,2}; identity first, composition (p*q)(x) = p(q(x))."""
    elements = sorted(permutations(range(3)), key=lambda p: (sum(p[i] != i for i in range(3)), p))
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in elements] for p in elements]
    inverses = [index[tuple(sorted(range(3), key=lambda x: p[x]))] for p in elements]
    return elements, table, inverses


_S3_ELEMENTS, _S3_TABLE, _S3_INVERSES = _symmetric_group_3()
_S3_TRANSPOSITIONS = [i for i, p in enumerate(_S3_ELEMENTS) if sum(p[x] != x for x in range(3)) == 2]
_S3_SIGNS = [-1 if sum(p[x] != x for x in range(3)) == 2 else 1 for p in _S3_ELEMENTS]
# a 3-cycle moves all three points
_S3_THREE_CYCLE = next(i for i, p in enumerate(_S3_ELEMENTS) if sum(p[x] != x for x in range(3)) == 3)

_GROUPS = {
    "C2": _cyclic_group(2),
    "C3": _cyclic_group(3),
    "C4": _cyclic_group(4),
    "S3": (_S3_TABLE, _S3_INVERSES),
}
_GROUP_ORDER = ("C2", "C3", "C4", "S3")


# Hopf algebra builders ----------------------------------------------------------


def _specialize_tensor(field: Field, tensor):
    return [[[field.from_int(x) for x in row] for row in slab] for slab in tensor]


def _specialize_matrix(field: Field, rows):
    return Matrix(field, len(rows), len(rows[0]) if rows else 0, [[field.from_int(x) for x in r] for r in rows])


def _hopf_from_ints(field: Field, mult, unit, comult, counit, antipode, name: str) -> HopfAlgebraData:
    """The Hopf algebra on integer structure constants, specialized to
    ``field`` and checked in its constructor."""
    return HopfAlgebraData(
        field, len(unit), _specialize_tensor(field, mult), [field.from_int(x) for x in unit],
        _specialize_tensor(field, comult), [field.from_int(x) for x in counit],
        _specialize_matrix(field, antipode), name=name,
    )


def group_algebra(field: Field, group: str, name: str) -> HopfAlgebraData:
    """kG: basis the group, diagonal coproduct, inverse antipode; a fresh,
    checked copy on every call."""
    table, inverses = _GROUPS[group]
    n = len(table)
    mult = [[[1 if table[i][j] == t else 0 for t in range(n)] for j in range(n)] for i in range(n)]
    comult = [[[1 if (j == i and t == i) else 0 for t in range(n)] for j in range(n)] for i in range(n)]
    unit = [1 if i == 0 else 0 for i in range(n)]
    antipode = [[1 if r == inverses[c] else 0 for c in range(n)] for r in range(n)]
    return _hopf_from_ints(field, mult, unit, comult, [1] * n, antipode, name)


@lru_cache(maxsize=None)
def _shared_group_algebra(field: Field, group: str) -> HopfAlgebraData:
    """kG over ``field``, built and checked once: the Hopf entry of kG's
    group and the algebra whose dual tables k^G is built on."""
    return group_algebra(field, group, f"k{group}/{field_name(field)}")


def dual_group_algebra(field: Field, group: str, name: str) -> HopfAlgebraData:
    """Functions on the group, k^G = (kG)*: pointwise product, coproduct dual
    to the group law, built on the tables of the group algebra's dual.  It is
    checked once, as kG: each law of k^G is a law of kG read backwards, and
    kG's constructor raises unless all ten hold, so k^G's law tables are
    kG's, not computed again."""
    g = _shared_group_algebra(field, group)
    d = g.dual_algebra()
    h = HopfAlgebraData(field, d.dim, d.mult, d.unit, d.comult, d.counit, d.antipode, name=name, unchecked=True)
    h.law_violations = d.law_violations  # kG's counit law and coassociativity
    h.laws = g.laws
    return h


def sweedler_algebra(field: Field, name: str) -> HopfAlgebraData:
    """The four-dimensional algebra on 1, g, x, gx with g^2 = 1, x^2 = 0,
    xg = -gx; the antipode has order four."""
    # basis index a + 2b for g^a x^b: 0 = 1, 1 = g, 2 = x, 3 = gx
    mult = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            (b, a), (d, c) = divmod(i, 2), divmod(j, 2)
            if b + d < 2:  # (g^a x^b)(g^c x^d) = (-1)^(bc) g^(a+c) x^(b+d)
                mult[i][j][(a + c) % 2 + 2 * (b + d)] = (-1) ** (b * c)
    comult = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(2):
        comult[a][a][a] = 1  # g^a -> g^a (x) g^a
        comult[a + 2][a + 2][a] = 1  # g^a x -> g^a x (x) g^a + g^(a+1) (x) g^a x
        comult[a + 2][1 - a][a + 2] = 1
    antipode = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],  # S(x) = -gx, S(gx) = x
        [0, 0, -1, 0],
    ]
    return _hopf_from_ints(field, mult, [1, 0, 0, 0], comult, [1, 1, 0, 0], antipode, name)


# module builders ---------------------------------------------------------------


def _module_from_int_matrices(h: HopfAlgebraData, mats, name: str) -> ModuleRep:
    dim = len(mats[0]) if mats and mats[0] else 0
    action = [_specialize_matrix(h.field, m) for m in mats]
    return ModuleRep(h, dim, action, name=name)


def s3_permutation_module(h: HopfAlgebraData) -> ModuleRep:
    mats = [[[1 if p[c] == r else 0 for c in range(3)] for r in range(3)] for p in _S3_ELEMENTS]
    return _module_from_int_matrices(h, mats, "perm")


def s3_sign_module(h: HopfAlgebraData) -> ModuleRep:
    return _module_from_int_matrices(h, [[[s]] for s in _S3_SIGNS], "sign")


def s3_standard_module(h: HopfAlgebraData) -> ModuleRep:
    """Two-dimensional simple factor of the permutation module, on the basis
    v1 = e0-e1, v2 = e1-e2; entries are 0, +/-1 so the same table works over
    every field.  A sum-zero vector w is w_0 v1 - w_2 v2, which gives the
    coordinates of e_a - e_b below; p sends v1 to e_p(0) - e_p(1)."""

    def col(a, b):  # coordinates of e_a - e_b
        return [(a == 0) - (b == 0), (b == 2) - (a == 2)]

    mats = [[list(r) for r in zip(col(p[0], p[1]), col(p[1], p[2]))] for p in _S3_ELEMENTS]
    return _module_from_int_matrices(h, mats, "std2")


ROT2_MATRICES = (
    ((1, 0), (0, 1)),
    ((0, -1), (1, -1)),
    ((-1, 1), (-1, 0)),
)


def cyclic_rotation_module(h: HopfAlgebraData) -> ModuleRep:
    """Order-three rotation plane: the generator acts by the companion matrix
    of the quadratic x^2 + x + 1.  Simple over Q, F2 and F5, a split pair of
    lines over F7, and a non-semisimple Jordan block in characteristic 3."""
    return _module_from_int_matrices(h, ROT2_MATRICES, "rot2")


def cyclic_unipotent_module(h: HopfAlgebraData, order: int) -> ModuleRep:
    """Indecomposable 2-dimensional module for a cyclic group in its own
    characteristic: the generator acts by a unipotent Jordan block."""
    return _module_from_int_matrices(h, [[[1, k], [0, 1]] for k in range(order)], "unipotent2")


def sweedler_two_dim_module(h: HopfAlgebraData) -> ModuleRep:
    """Non-semisimple 2-dimensional module: g acts by diag(1,-1), x lowers."""
    mats = [
        [[1, 0], [0, 1]],  # 1
        [[1, 0], [0, -1]],  # g
        [[0, 0], [1, 0]],  # x
        [[0, 0], [-1, 0]],  # gx = g*x
    ]
    return _module_from_int_matrices(h, mats, "h4mod2")


# comodule builders ---------------------------------------------------------------


def group_line_comodule(h: HopfAlgebraData, degree: int, name: str) -> ComoduleRep:
    """One-dimensional comodule over a group algebra: a line of fixed degree."""
    coaction = [[[h.field.from_int(1 if t == degree else 0) for t in range(h.dim)]]]
    return ComoduleRep(h, 1, coaction, name=name)


def comodule_from_group_action(h: HopfAlgebraData, mats, name: str) -> ComoduleRep:
    """Comodule over a dual group algebra from matrices indexed by the group:
    H* of k^G is kG again, and g_t acts by ``mats[t]``."""
    return ComoduleRep.over_dual(h, _module_from_int_matrices(h.dual_algebra(), mats, name), name)


# YD builders ---------------------------------------------------------------------


def yd_group_line(h: HopfAlgebraData, degree: int, character, name: str) -> YDModuleRep:
    """A line of fixed degree with the group acting by a +/-1 character."""
    module = _module_from_int_matrices(h, [[[character[i]]] for i in range(h.dim)], name)
    return YDModuleRep(module, group_line_comodule(h, degree, name), name=name)


def yd_s3_conjugation(h: HopfAlgebraData) -> YDModuleRep:
    """Span of the transpositions, graded by themselves, with the group acting
    by conjugation; the grading is conjugation-equivariant by construction."""
    field, trans = h.field, _S3_TRANSPOSITIONS
    dim = len(trans)
    # g_i sends the basis vector t to g_i t g_i^-1
    mats = [
        [[1 if trans[r] == _S3_TABLE[_S3_TABLE[i][t]][_S3_INVERSES[i]] else 0 for t in trans] for r in range(dim)]
        for i in range(h.dim)
    ]
    module = _module_from_int_matrices(h, mats, "ydconj3")
    coaction = [
        [[field.from_int(1 if (b == a and t == trans[a]) else 0) for t in range(h.dim)] for b in range(dim)]
        for a in range(dim)
    ]
    comodule = ComoduleRep(h, dim, coaction, name="ydconj3")
    return YDModuleRep(module, comodule, name="ydconj3")


def yd_unipotent_nonsplit(h: HopfAlgebraData) -> YDModuleRep:
    """Unipotent module with the trivial grading: a valid YD object whose
    only proper subobject has no stable complement in characteristic 2."""
    module = cyclic_unipotent_module(h, 2)
    module.name = "ydnonsplit2"
    zero = [h.field.zero()] * h.dim
    coaction = [[list(h.unit if a == b else zero) for b in range(2)] for a in range(2)]
    comodule = ComoduleRep(h, 2, coaction, name="ydnonsplit2")
    return YDModuleRep(module, comodule, name="ydnonsplit2")


def yd_incompatible_line(h: HopfAlgebraData) -> YDModuleRep:
    """Deliberately broken: a line graded by a transposition with the trivial
    action; the grading is not conjugation-equivariant."""
    degree = _S3_TRANSPOSITIONS[0]
    return yd_group_line(h, degree, [1] * h.dim, "ydbadline")


# catalog assembly -----------------------------------------------------------------


def _register(entries, hid: str, payload, note: str, expected_failure: str | None = None):
    """Register ``payload`` under its id: ``hid``, or ``hid``/its name for an object."""
    eid = hid if payload.kind == "hopf" else f"{hid}/{payload.name}"
    entries[eid] = CatalogEntry(eid, payload, note, expected_failure)


def _check_entry(entry: CatalogEntry):
    # a Hopf entry's report reads the table its constructor computed, a k^G
    # entry's the table of the kG it shares
    report = axioms_in_category(entry.payload)
    if entry.expected_failure is None:
        if not report.ok:
            raise AssertionError(f"catalog entry {entry.id} failed its axiom check:\n{report.describe()}")
    else:
        failed = {c.name for c in report.failures()}
        if entry.expected_failure not in failed:
            raise AssertionError(
                f"negative fixture {entry.id} was expected to fail {entry.expected_failure!r}, "
                f"but failed {sorted(failed)!r}"
            )


def _register_standard(entries, hid: str, h: HopfAlgebraData, notes):
    """Register H and its trivial and regular module, comodule and YD
    object, with the family's provenance ``notes`` in that order."""
    objects = (h, trivial_module(h), regular_module(h), trivial_comodule(h), regular_comodule(h), trivial_yd(h))
    for payload, note in zip(objects, notes, strict=True):
        _register(entries, hid, payload, note)


def _group_algebra_entries(entries, hid: str, group: str, fname: str):
    h = _shared_group_algebra(field_by_name(fname), group)
    _register_standard(entries, hid, h, (
        f"group algebra of {group}: basis the group, diagonal coproduct, inverse antipode",
        "counit action on one dimension",
        f"left multiplication table of {group}",
        "coaction by the unit on one dimension",
        "the coproduct read as a coaction",
        "trivial action and trivial grading",
    ))
    if group != "S3":
        _register(entries, hid, group_line_comodule(h, 1, "coline_g"), "line graded by the generator")
    if group == "C2":
        _register(entries, hid, yd_group_line(h, 1, [1, 1], "ydline_g_triv"), "degree g, trivial action; abelian so compatible")
        _register(entries, hid, yd_group_line(h, 1, [1, -1], "ydline_g_sign"), "degree g, sign action")
        _register(entries, hid, yd_group_line(h, 0, [1, -1], "ydline_e_sign"), "degree e, sign action")
    if group == "C3":
        _register(entries, hid, cyclic_rotation_module(h), "generator acts by the companion matrix of x^2+x+1")
        _register(entries, hid, yd_group_line(h, 1, [1, 1, 1], "ydline_g_triv"), "degree g, trivial action")
    if group == "C4":
        _register(entries, hid, yd_group_line(h, 1, [1, 1, 1, 1], "ydline_g_triv"), "degree g, trivial action")
        _register(entries, hid, yd_group_line(h, 1, [1, -1, 1, -1], "ydline_g_chi2"), "degree g, order-two character")
    if group == "S3":
        _register(entries, hid, s3_permutation_module(h), "permutation matrices on three points")
        _register(entries, hid, s3_sign_module(h), "sign character")
        _register(entries, hid, s3_standard_module(h), "sum-zero plane of the permutation module, integral basis")
        _register(entries, hid, group_line_comodule(h, _S3_TRANSPOSITIONS[0], "coline_t"), "line graded by a transposition")
        _register(entries, hid, group_line_comodule(h, _S3_THREE_CYCLE, "coline_c"), "line graded by a three-cycle")
        _register(entries, hid, yd_group_line(h, 0, _S3_SIGNS, "ydline_e_sign"), "degree e, sign action; central degree")
        _register(entries, hid, yd_s3_conjugation(h), "transposition class graded by itself with conjugation action")
    if group == "C2" and fname == "F2":
        _register(entries, hid, cyclic_unipotent_module(h, 2), "Jordan block for the generator, char 2")
        _register(entries, hid, yd_unipotent_nonsplit(h), "unipotent module, trivial grading; no stable complement")
    if group == "C3" and fname == "F3":
        _register(entries, hid, cyclic_unipotent_module(h, 3), "Jordan block for the generator, char 3")
    if group == "S3" and fname == "Q":
        _register(
            entries, hid, yd_incompatible_line(h),
            "line graded by a transposition with trivial action; grading not conjugation-equivariant",
            expected_failure="yd_compatibility")


def _dual_group_entries(entries, hid: str, group: str, fname: str):
    h = dual_group_algebra(field_by_name(fname), group, hid)
    _register_standard(entries, hid, h, (
        f"functions on {group}: pointwise product, coproduct dual to the group law",
        "counit action: evaluation at the identity",
        "pointwise multiplication on itself",
        "coaction by the constant function 1",
        "the coproduct read as a coaction",
        "trivial action and trivial coaction",
    ))
    if group == "C2" and fname == "F2":
        _register(
            entries, hid, comodule_from_group_action(h, [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], "cononsplit2"),
            "unipotent two-dimensional representation of C2 in char 2, written as a coaction")
    if group == "C3":
        _register(
            entries, hid, comodule_from_group_action(h, ROT2_MATRICES, "corot2"),
            "order-three rotation plane written as a coaction; loses cosemisimplicity in char 3")


def _sweedler_entries(entries, hid: str, fname: str):
    h = sweedler_algebra(field_by_name(fname), hid)
    _register_standard(entries, hid, h, (
        "four-dimensional algebra on 1, g, x, gx with antipode of order four",
        "counit action",
        "left multiplication table",
        "coaction by the unit",
        "the coproduct read as a coaction",
        "trivial action and coaction",
    ))
    _register(entries, hid, sweedler_two_dim_module(h), "g diagonal, x a lowering operator; contains a line without complement")


# Hopf id -> the builder of its group and the builder's arguments
_GROUP_BUILDERS = {
    **{f"k{g}/{f}": (_group_algebra_entries, g, f) for g in _GROUP_ORDER for f in HOPF_FIELDS},
    **{f"kd{g}/{f}": (_dual_group_entries, g, f) for g in ("C2", "C3", "S3") for f in HOPF_FIELDS},
    **{f"H4/{f}": (_sweedler_entries, f) for f in SWEEDLER_FIELDS},
}
HOPF_IDS = tuple(sorted(_GROUP_BUILDERS))


@lru_cache(maxsize=None)
def _group(hid: str) -> dict[str, CatalogEntry]:
    """The Hopf entry ``hid`` and every object over it, each axiom-checked."""
    build, *args = _GROUP_BUILDERS[hid]
    entries: dict[str, CatalogEntry] = {}
    build(entries, hid, *args)
    for entry in entries.values():
        _check_entry(entry)
    return entries


@lru_cache(maxsize=1)
def _catalog() -> dict[str, CatalogEntry]:
    """Every group, built and checked."""
    entries: dict[str, CatalogEntry] = {}
    for hid in _GROUP_BUILDERS:
        entries.update(_group(hid))
    return entries


def catalog_entries() -> list[CatalogEntry]:
    """Every entry, ordered by id."""
    cat = _catalog()
    return [cat[eid] for eid in sorted(cat)]


def lookup(entry_id: str) -> CatalogEntry:
    """One entry; builds only the group of its Hopf algebra."""
    hid = "/".join(entry_id.split("/")[:2])
    entry = _group(hid).get(entry_id) if hid in _GROUP_BUILDERS else None
    if entry is None:
        raise KeyError(f"no catalog entry {entry_id!r}")
    return entry


def hopf_entries(fields: tuple[str, ...] | None = None) -> list[CatalogEntry]:
    """The Hopf entries over the given fields (all when None), ordered by id."""
    return [lookup(hid) for hid in HOPF_IDS if fields is None or hid.split("/")[1] in fields]


def objects_over(hopf_id: str, kind: str) -> list[CatalogEntry]:
    """Catalog objects of one kind over a given Hopf entry, ordered by id;
    none when ``hopf_id`` names no Hopf entry."""
    prefix = hopf_id + "/"
    group = _group(hopf_id) if hopf_id in _GROUP_BUILDERS else {}
    return [group[eid] for eid in sorted(group) if eid.startswith(prefix) and group[eid].kind == kind]
