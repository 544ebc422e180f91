import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from duality_reference import on_fresh_faces
from semisimple_reference import acting_algebra, direct_sum_modules, image_module, semisimple_by_complements
from hopfcheck import hopf, semisimple
from hopfcheck.catalog import (
    catalog_entries,
    group_algebra,
    hopf_entries,
    lookup,
    objects_over,
    s3_permutation_module,
    s3_sign_module,
    s3_standard_module,
    yd_group_line,
    yd_incompatible_line,
    yd_s3_conjugation,
)
from hopfcheck.comodules import ComoduleRep, regular_comodule
from hopfcheck.duality import tensor_in_category
from hopfcheck.errors import AxiomError, BoundExceededError, HopfMismatchError
from hopfcheck.fields import GF, QQ
from hopfcheck.hopf import AlgebraData, HopfAlgebraData
from hopfcheck.matrix import EchelonSpan, Matrix, NoSolutionError, solve_linear
from hopfcheck.modules import ModuleRep, check_module_axioms, laws_hold, regular_module, tensor_modules, trivial_module
from hopfcheck.semisimple import (
    brute_force_semisimple,
    charpoly,
    is_cosemisimple,
    is_semisimple,
    is_yd_semisimple,
    tensor_semisimplicity,
)
from hopfcheck.semisimple import _image_basis, _operator_semisimplicity
from hopfcheck.yd import YDModuleRep, trivial_yd


# an independent characteristic-polynomial oracle: evaluate det(xI - A) by
# cofactor expansion at several sample points and compare


def _naive_det(field, rows):
    n = len(rows)
    if n == 0:
        return field.one()
    if n == 1:
        return rows[0][0]
    total = field.zero()
    sign = field.one()
    for c in range(n):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        total = field.add(total, field.mul(field.mul(sign, rows[0][c]), _naive_det(field, minor)))
        sign = field.neg(sign)
    return total


@pytest.mark.parametrize("field,samples", [(QQ, range(-2, 4)), (GF(5), range(5)), (GF(2), range(2))])
def test_charpoly_matches_determinant_evaluations(field, samples):
    rng = random.Random(1234)
    for _ in range(15):
        n = rng.randint(1, 4)
        if field.characteristic == 0:
            m = Matrix.from_rows(
                field, [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            )
        else:
            m = Matrix.from_rows(
                field,
                [[rng.randrange(field.characteristic) for _ in range(n)] for _ in range(n)],
            )
        coeffs = charpoly(m)
        assert len(coeffs) == n + 1
        assert coeffs[n] == field.one()
        for x in samples:
            xv = field.from_int(x)
            shifted = [
                [
                    field.sub(xv, m.entries[r][c]) if r == c else field.neg(m.entries[r][c])
                    for c in range(n)
                ]
                for r in range(n)
            ]
            want = _naive_det(field, shifted)
            got = field.zero()
            power = field.one()
            for e in range(n + 1):
                got = field.add(got, field.mul(coeffs[e], power))
                power = field.mul(power, xv)
            assert got == want


def test_charpoly_companion_matrix():
    # companion of x^2 - 5x + 6
    m = Matrix.from_rows(QQ, [[Fraction(0), Fraction(-6)], [Fraction(1), Fraction(5)]])
    assert charpoly(m) == [Fraction(6), Fraction(-5), Fraction(1)]


def test_acting_algebra_dimensions():
    assert len(acting_algebra(lookup("kC2/Q/trivial").payload)) == 1
    assert len(acting_algebra(lookup("kC2/Q/regular").payload)) == 2
    assert len(acting_algebra(lookup("kS3/Q/regular").payload)) == 6


def test_acting_algebra_entries_are_ints_when_integral_over_q():
    """The image basis leaves elimination as plain ints wherever it can, so
    the products that read off its structure constants stay on the int path."""
    checked = 0
    for entry in catalog_entries():
        if entry.kind == "hopf" or entry.payload.field != QQ:
            continue
        obj = entry.payload
        basis = acting_algebra(obj) if entry.kind == "module" else _image_basis(obj.field, obj.dim, obj.operators)
        for a in basis:
            for x in (x for row in a.entries for x in row):
                assert type(x) is int or x.denominator != 1, (entry.id, x)
        checked += 1
    assert checked == 60


def test_acting_algebra_closes_under_products():
    reg = lookup("kS3/F2/regular").payload
    basis = acting_algebra(reg)
    flat = {tuple(b.flatten()) for b in basis}
    from hopfcheck.matrix import EchelonSpan

    span = EchelonSpan(reg.field, reg.dim * reg.dim)
    for b in basis:
        span.add(b.flatten())
    for a in basis:
        for b in basis:
            assert span.contains((a * b).flatten())
    assert len(flat) == len(basis)


def test_operators_spanning_no_algebra_are_refused():
    # E12 and E21 generate all of M_2(Q), but I, E12, E21 span no algebra:
    # E12 E21 = E11 lies outside, so as g and g^2 of kC3 they are not the
    # action of a module, and g g = g^2 fails first
    one, zero = Fraction(1), Fraction(0)
    e12 = Matrix.from_rows(QQ, [[zero, one], [zero, zero]])
    e21 = Matrix.from_rows(QQ, [[zero, zero], [one, zero]])
    m = ModuleRep(lookup("kC3/Q").payload, 2, [Matrix.identity(QQ, 2), e12, e21], name="e12e21")
    with pytest.raises(ValueError, match="action_multiplicative at \\(1, 1\\)"):
        is_semisimple(m)
    with pytest.raises(ValueError, match="leaves their span"):
        image_module(QQ, 2, m.operators)


def test_the_mapped_radical_equals_the_radical_of_the_image_read_off_the_matrices():
    """``is_semisimple``, which maps Rad(A) through a module's or comodule's
    face, gives the same report, radical basis included, as the radical of
    the image algebra read off the matrices: every valid catalog module and
    comodule, and every same-kind tensor pair over one Hopf algebra with
    dim <= 36."""
    groups = {}
    for entry in catalog_entries():
        if entry.kind in ("module", "comodule") and entry.expected_failure is None:
            groups.setdefault((entry.id.rsplit("/", 1)[0], entry.kind), []).append(entry.payload)
    objects = [o for group in groups.values() for o in group]
    objects += [
        tensor_in_category(a, b)
        for group in groups.values()
        for a in group
        for b in group
        if a.dim * b.dim <= 36
    ]
    for o in objects:
        by_matrices = _operator_semisimplicity(o.field, o.dim, o.operators)
        assert is_semisimple(o).to_doc() == by_matrices.to_doc(), o
    assert len(objects) == 816


def test_the_radical_of_an_algebra_is_computed_once(monkeypatch):
    """Every module over one algebra maps that algebra's radical, so deciding
    kS3/F3's regular, trivial, perm, sign and std2 modules and all their
    tensor products computes Rad(kS3) once.  H is built here, not read from
    the catalog, so no earlier decision has cached its radical."""
    h = group_algebra(GF(3), "S3", "kS3/F3")
    modules = [
        regular_module(h),
        trivial_module(h),
        s3_permutation_module(h),
        s3_sign_module(h),
        s3_standard_module(h),
    ]
    computed = []
    compute = semisimple._radical_coordinates

    def counted(field, basis):
        computed.append(basis)
        return compute(field, basis)

    monkeypatch.setattr(semisimple, "_radical_coordinates", counted)
    for m in modules:
        assert is_semisimple(m).verdict == brute_force_semisimple(m), m
    for a in modules:
        for b in modules:
            is_semisimple(tensor_modules(a, b))
    assert computed == [h.regular_action_matrices()]


def test_a_yd_radical_is_computed_in_v(monkeypatch):
    """The image of D(H) in End(V) acts faithfully on V, so its radical is
    computed there: kS3/F3/ydconj3 (x) ydconj3 has dim V = 9 and an image of
    dimension 17, and the chain runs on the dim-9 module.  The YD rule's
    radicals are computed before recording, so that the recorder sees the
    image's radical alone whichever test ran first."""
    y = lookup("kS3/F3/ydconj3").payload
    product = tensor_in_category(y, y)
    assert not semisimple._semisimple_double(y.hopf)
    shapes = []
    compute = semisimple._radical_coordinates

    def recorded(field, basis):
        shapes.append((basis[0].rows, len(basis)))
        return compute(field, basis)

    monkeypatch.setattr(semisimple, "_radical_coordinates", recorded)
    report = is_yd_semisimple(product)
    assert shapes == [(9, 17)]
    assert (report.verdict, report.radical_dim) == (False, 11)


def test_a_yd_object_over_a_semisimple_double_gets_the_report_of_the_image_route():
    """A YD object over H with Rad(H) = Rad(H*) = 0 is decided without the
    image of D(H); the image route, run on the built object, gives the
    same report: every lawful catalog YD object, and every same-H pair over
    a semisimple double, whose product is semisimple."""
    groups = {}
    for entry in catalog_entries():
        if entry.kind == "yd" and entry.expected_failure is None:
            groups.setdefault(entry.id.rsplit("/", 1)[0], []).append(entry.payload)
    objects = [o for group in groups.values() for o in group]
    for o in objects:
        assert is_semisimple(o) == _operator_semisimplicity(o.field, o.dim, o.operators), o
    pairs = [
        pair
        for group in groups.values()
        if semisimple._semisimple_double(group[0].hopf)
        for pair in combinations_with_replacement(group, 2)
    ]
    for a, b in pairs:
        product = tensor_in_category(a, b)
        by_image = _operator_semisimplicity(product.field, product.dim, product.operators)
        assert tensor_semisimplicity(a, b) == by_image and by_image.verdict, (a, b)
    assert (len(objects), len(pairs)) == (78, 105)


def test_the_radical_of_op_dual_is_zero_exactly_when_that_of_the_dual_is():
    """(H^op)* is H* as an algebra, so a YD object's star face has zero
    radical exactly when H* has: every catalog Hopf algebra."""
    hopfs = [entry.payload for entry in hopf_entries()]
    radical = semisimple._algebra_radical
    for h in hopfs:
        assert bool(radical(h.op_dual_algebra)) == bool(radical(h.dual_algebra())), h
    assert sum(bool(radical(h.dual_algebra())) for h in hopfs) == 6


@pytest.mark.parametrize("p", [3, 5])
def test_a_yd_decision_computes_no_radical_of_op_dual(p):
    """Radford's rule reads Rad(H) and Rad(H*), never Rad((H^op)*), though a
    YD object's star face is over (H^op)*.  kS3 is built here, so that no
    earlier decision has cached its radicals.  Over F3, Rad(H) != 0 and
    every object takes the image route; over F5, Rad(H) = Rad(H*) = 0 and
    every object and pair is semisimple."""
    h = group_algebra(GF(p), "S3", f"kS3/F{p}")
    signs = [a.entries[0][0] for a in s3_sign_module(h).action]
    objects = [trivial_yd(h), yd_group_line(h, 0, signs, "ydline_e_sign"), yd_s3_conjugation(h)]
    verdicts = [is_semisimple(o).verdict for o in objects]
    verdicts += [tensor_semisimplicity(a, b).verdict for a, b in combinations_with_replacement(objects, 2)]
    assert h in semisimple._RADICALS
    assert h.op_dual_algebra not in semisimple._RADICALS
    if p == 5:
        assert h.dual_algebra() in semisimple._RADICALS and all(verdicts)


@pytest.mark.parametrize(
    "left,right",
    [
        ("kS3/F5/ydconj3", "kC3/F5/ydtrivial"),  # semisimple doubles
        ("kS3/F3/ydconj3", "kC3/F3/ydtrivial"),  # neither double semisimple
        ("kS3/F5/ydconj3", "kS3/F3/ydconj3"),  # one of each
    ],
)
def test_a_yd_pair_over_two_hopf_algebras_is_refused_naming_them(left, right):
    a, b = lookup(left).payload, lookup(right).payload
    message = f"objects live over different algebras: '{a.hopf.name}' vs '{b.hopf.name}'"
    with pytest.raises(HopfMismatchError, match=re.escape(message)):
        tensor_semisimplicity(a, b)


def test_a_modules_action_is_checked_once_for_its_report_and_its_decisions(monkeypatch):
    """The decision guard and ``check_module_axioms`` read one law check per
    module, so deciding a module, reporting its axioms and deciding it again
    run the multiplicativity kernel once.  H is built here so that no earlier
    test has checked its modules."""
    h = group_algebra(QQ, "C2", "kC2/Q")
    m = tensor_modules(regular_module(h), trivial_module(h))
    # H's own laws are computed when first read, so read them before counting
    assert laws_hold(h)
    checked = []
    check = AlgebraData.multiplicativity_violation

    def counted(algebra, *args):
        checked.append(algebra)
        return check(algebra, *args)

    monkeypatch.setattr(AlgebraData, "multiplicativity_violation", counted)
    assert is_semisimple(m).verdict
    assert check_module_axioms(m).ok
    assert is_semisimple(m).verdict
    assert checked == [h]


def test_a_radical_certificate_that_is_not_nilpotent_is_refused(monkeypatch):
    """Each radical element is squared until it is zero or its exponent
    reaches dim; a nonzero idempotent (here the unit) never gets to zero."""
    monkeypatch.setattr(semisimple, "_algebra_radical", lambda algebra: [list(algebra.unit)])
    with pytest.raises(AssertionError, match="nilpotency"):
        is_semisimple(lookup("kC3/F3/regular").payload)


def test_a_module_law_is_checked_on_the_generator_rows(monkeypatch):
    """kS3 is generated by b_1 and b_2, so deciding regular (x) regular
    (dim 36) checks A_i A_j = sum_t m_ij^t A_t on the 2 * 6 pairs with i in
    {1, 2}, not on all 36."""
    h = lookup("kS3/Q").payload
    regular = lookup("kS3/Q/regular").payload
    product = tensor_modules(regular, regular)
    assert h.generators() == [1, 2] and h.law_violations == (None, None)
    sizes = []
    differs = hopf.combination_differs

    def counted(field, size, linear, products):
        sizes.append(size)
        return differs(field, size, linear, products)

    monkeypatch.setattr(hopf, "combination_differs", counted)
    assert is_semisimple(product).verdict
    assert sizes == [36] * 12


_FIELDS ={"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5), "F7": GF(7)}
_MAX_DIM = 6  # the largest valid catalog object


@st.composite
def _change_of_basis(draw, field):
    """(P, P^-1) for every n <= _MAX_DIM: P_n is the leading n x n block of
    L U, with L unit lower triangular and U upper triangular with a nonzero
    diagonal, so every block is invertible.  Over Q the diagonal holds
    non-units, so P^-1 carries fractions."""
    p = field.characteristic
    pivots = [1, -1, 2, -3] if not p else list(range(1, p))
    entries = st.integers(-2, 2) if not p else st.integers(0, p - 1)
    n = _MAX_DIM
    lower = [[1 if r == c else draw(entries) if r > c else 0 for c in range(n)] for r in range(n)]
    upper = [
        [draw(st.sampled_from(pivots)) if r == c else draw(entries) if r < c else 0 for c in range(n)]
        for r in range(n)
    ]
    full = Matrix.from_rows(field, [[field.from_int(x) for x in row] for row in lower])
    full = full * Matrix.from_rows(field, [[field.from_int(x) for x in row] for row in upper])
    blocks = {}
    for k in range(1, n + 1):
        block = Matrix.from_rows(field, [row[:k] for row in full.entries[:k]])
        blocks[k] = (block, solve_linear(block, Matrix.identity(field, k)))
    return blocks


def _span_rows(field, matrices):
    span = EchelonSpan(field, len(matrices[0].flatten()) if matrices else 0)
    for m in matrices:
        span.add(m.flatten())
    return span.basis_rows()


@pytest.mark.parametrize("field_name", sorted(_FIELDS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_conjugate_object_has_the_conjugate_radical(field_name, data):
    """Deciding P.A.P^-1 on every face of a valid catalog module, comodule or
    YD object gives the same verdict and radical dimension, and a radical
    basis spanning P.R.P^-1: the decision does not depend on the basis."""
    field = _FIELDS[field_name]
    blocks = data.draw(_change_of_basis(field))
    checked = 0
    for entry in catalog_entries():
        if entry.kind == "hopf" or entry.expected_failure is not None or entry.id.split("/")[1] != field_name:
            continue
        obj = entry.payload
        p, pinv = blocks[obj.dim]
        faces = [ModuleRep(f.algebra, f.dim, [p * a * pinv for a in f.action], f.name) for f in obj.faces]
        conjugate = obj.with_faces(faces, f"P.{obj.name}.P^-1")
        want, got = is_semisimple(obj), is_semisimple(conjugate)
        assert (got.verdict, got.radical_dim) == (want.verdict, want.radical_dim), entry.id
        moved = _span_rows(field, [p * z * pinv for z in want.radical_basis])
        assert _span_rows(field, got.radical_basis) == moved, entry.id
        checked += 1
    assert checked >= 50


def test_a_closed_span_that_breaks_the_table_is_refused():
    # A_e = I and A_g = diag(1, 2) span a closed algebra, the diagonal
    # matrices, but A_g^2 != A_e, so they are no kC2-module's action
    h = lookup("kC2/Q").payload
    e = Matrix.identity(QQ, 2)
    g = Matrix.from_rows(QQ, [[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="action_multiplicative at \\(1, 1\\)"):
        is_semisimple(ModuleRep(h, 2, [e, g], name="diag"))
    # the unit must act as I: here b_0 = e acts as 2 I
    with pytest.raises(ValueError, match="unit_acts_as_identity at \\(0,\\)"):
        is_semisimple(ModuleRep(h, 2, [e.scale(2), g], name="doubled"))


def _refusal(obj):
    """The ``AxiomError`` that deciding ``obj`` raises, or None."""
    try:
        is_semisimple(obj)
    except AxiomError as exc:
        return exc
    return None


def _changed(matrices, k):
    """The matrices with 1 added to entry (0, 0) of the k-th."""
    out = [Matrix(m.field, m.rows, m.cols, [row[:] for row in m.entries]) for m in matrices]
    out[k].entries[0][0] = out[k].field.add(out[k].entries[0][0], out[k].field.one())
    return out


def test_the_guard_refuses_exactly_the_objects_whose_laws_fail():
    """``is_semisimple`` raises an ``AxiomError`` carrying the failing
    report, H's or else the object's, exactly when one of the two fails: on
    every catalog object, ydbadline included, on every same-kind product
    over one Hopf algebra of dim <= 36, and on corrupted objects: a YD
    object with one entry changed in its H-face or in its H*-face, YD lines
    that break only the straightening law, and modules over an H with a
    zero antipode.  Each object is decided before its reports are
    read, and each report is computed on fresh faces with the same actions,
    so the guard's table is compared with one computed apart from it."""
    groups = {}
    for entry in catalog_entries():
        if entry.kind != "hopf":
            groups.setdefault((entry.id.rsplit("/", 1)[0], entry.kind), []).append(entry.payload)
    objects = [o for group in groups.values() for o in group]
    objects += [
        tensor_in_category(a, b) for group in groups.values() for a in group for b in group if a.dim * b.dim <= 36
    ]
    y = lookup("kS3/Q/ydconj3").payload
    star = y.star_face
    corrupted = [
        YDModuleRep(ModuleRep(y.hopf, y.dim, _changed(y.module.action, 1)), y.comodule, name="bad H-face"),
        y.with_faces((y.module, ModuleRep(star.algebra, y.dim, _changed(star.action, 1))), "bad H*-face"),
    ]
    straightening_only = [yd_incompatible_line(lookup(f"kS3/{f}").payload) for f in ("F3", "F5")]
    h = lookup("kC2/Q").payload
    zero_antipode = HopfAlgebraData(
        h.field, h.dim, h.mult, h.unit, h.comult, h.counit, Matrix.zeros(h.field, h.dim, h.dim)
    )
    corrupted += straightening_only + [trivial_module(zero_antipode), regular_module(zero_antipode)]
    refusals = 0
    for o in objects + corrupted:
        error = _refusal(o)
        hopf_report, obj_report = o.hopf.check_hopf_axioms(), check_module_axioms(on_fresh_faces(o))
        assert (error is not None) == (not obj_report.ok or not hopf_report.ok), o
        if error is not None:
            # the failing report, H's before the object's
            assert error.report == (obj_report if hopf_report.ok else hopf_report), o
        refusals += error is not None
    assert all(_refusal(o) for o in corrupted)
    for o in straightening_only:
        assert {c.name for c in check_module_axioms(o).failures()} == {"yd_compatibility"}
    # ydbadline and its six products with the other kS3/Q YD objects; its square
    # is graded by t^2 = e and passes
    assert (len(objects), refusals - len(corrupted)) == (1118, 7)
    with pytest.raises(ValueError, match="yd_compatibility at \\(2, 4\\)"):
        is_semisimple(lookup("kS3/Q/ydbadline").payload)
    with pytest.raises(ValueError, match="antipode_left at \\(0,\\)"):
        is_semisimple(trivial_module(zero_antipode))


def test_regular_c2_rationals_semisimple_with_idempotent_eigenlines():
    reg = lookup("kC2/Q/regular").payload
    report = is_semisimple(reg)
    assert report.verdict and report.radical_dim == 0 and report.method == "TraceForm"
    # the module splits along (e+g)/2 and (e-g)/2: both lines are stable
    half = Fraction(1, 2)
    for vec in ([half, half], [half, -half]):
        col = Matrix.column(QQ, vec)
        for a in reg.action:
            image = a * col
            ratio = None
            for x, y in zip(image.flatten(), vec):
                if y:
                    ratio = x / y
                    break
            assert image.flatten() == [ratio * y for y in vec]


def test_regular_c2_mod_two_radical_certificate():
    reg = lookup("kC2/F2/regular").payload
    report = is_semisimple(reg)
    assert not report.verdict
    assert report.radical_dim == 1
    assert report.method == "IteratedTraceForm"
    # radical spanned by the action of e + g
    want = reg.action[0] + reg.action[1]
    assert report.radical_basis == [want]
    assert brute_force_semisimple(reg) is False


def test_trivial_module_always_semisimple():
    for hid in ("kC2/F2", "kS3/F3", "H4/Q"):
        assert is_semisimple(lookup(f"{hid}/trivial").payload).verdict, hid


def test_zero_dimensional_module_is_semisimple():
    h = lookup("kC2/Q").payload
    zero_mod = ModuleRep(h, 0, [Matrix.zeros(QQ, 0, 0) for _ in range(h.dim)], name="zero")
    report = is_semisimple(zero_mod)
    assert report.verdict and report.radical_dim == 0


def test_sweedler_regular_radical_and_certificate_soundness():
    reg = lookup("H4/Q/regular").payload
    report = is_semisimple(reg)
    assert not report.verdict
    assert report.radical_dim == 2  # spanned by the images of x and gx
    algebra = acting_algebra(reg)
    width = reg.dim * reg.dim
    flats = [b.flatten() for b in algebra]
    cols = Matrix(QQ, width, len(algebra), [[f[i] for f in flats] for i in range(width)])
    for r in report.radical_basis:
        # each certificate element is nilpotent ...
        assert r.power(reg.dim).is_zero()
        # ... lies inside the acting algebra ...
        solve_linear(cols, Matrix.column(QQ, r.flatten()))
        # ... and its right multiples stay in the trace-form kernel
        for b in algebra:
            rb = r * b
            for c in algebra:
                assert (rb * c).trace() == QQ.zero()


def test_membership_failure_detected():
    reg = lookup("kC2/Q/regular").payload
    algebra = acting_algebra(reg)
    width = reg.dim * reg.dim
    flats = [b.flatten() for b in algebra]
    cols = Matrix(QQ, width, len(algebra), [[f[i] for f in flats] for i in range(width)])
    outside = Matrix.from_rows(QQ, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(NoSolutionError):
        solve_linear(cols, Matrix.column(QQ, outside.flatten()))


def test_brute_force_spec_values():
    assert brute_force_semisimple(lookup("kC2/F2/regular").payload) is False
    assert brute_force_semisimple(lookup("kC2/F3/regular").payload) is True
    assert brute_force_semisimple(lookup("kC2/F2/trivial").payload) is True


def test_brute_force_bound_refusal():
    reg = lookup("kS3/F5/regular").payload  # 5^6 vectors
    with pytest.raises(BoundExceededError):
        brute_force_semisimple(reg)
    with pytest.raises(BoundExceededError):
        brute_force_semisimple(lookup("kC2/Q/regular").payload)


def test_oracle_agreement_on_catalog_sample():
    ids = [
        "kC2/F2/regular",
        "kC2/F2/unipotent2",
        "kC3/F3/regular",
        "kC3/F3/unipotent2",
        "kC4/F2/regular",
        "kS3/F2/regular",
        "kS3/F2/std2",
        "kS3/F3/perm",
        "kS3/F5/std2",
        "H4/F5/h4mod2",
    ]
    for mid in ids:
        m = lookup(mid).payload
        assert is_semisimple(m).verdict == brute_force_semisimple(m), mid


def test_maschke_for_group_algebras():
    orders = {"kC2": 2, "kC3": 3, "kC4": 4, "kS3": 6}
    for entry in catalog_entries():
        if entry.kind != "module" or not entry.id.endswith("/regular"):
            continue
        head = entry.id.split("/")[0]
        if head not in orders:
            continue
        m = entry.payload
        p = m.field.characteristic
        expected = p == 0 or orders[head] % p != 0
        assert is_semisimple(m).verdict == expected, entry.id


def test_direct_sum_semisimplicity():
    cases = [
        ("kC2/F2/trivial", "kC2/F2/regular", False),
        ("kC2/F2/trivial", "kC2/F2/trivial", True),
        ("kS3/F3/perm", "kS3/F3/sign", False),  # perm contains a non-split line in char 3
        ("kC3/F5/regular", "kC3/F5/trivial", True),
    ]
    for a, b, _ in cases:
        ma, mb = lookup(a).payload, lookup(b).payload
        s = direct_sum_modules(ma, mb)
        assert (
            is_semisimple(s).verdict
            == (is_semisimple(ma).verdict and is_semisimple(mb).verdict)
        ), (a, b)


def test_direct_sum_verdicts_match_oracle():
    a = lookup("kC2/F2/trivial").payload
    b = lookup("kC2/F2/regular").payload
    s = direct_sum_modules(a, b)
    assert is_semisimple(s).verdict == brute_force_semisimple(s)


def test_cosemisimple_spec_values():
    assert is_cosemisimple(lookup("kC2/F2/cotrivial").payload).verdict
    assert is_cosemisimple(lookup("kC2/F2/coregular").payload).verdict
    report = is_cosemisimple(lookup("kdC2/F2/cononsplit2").payload)
    assert not report.verdict
    assert report.radical_dim >= 1
    assert brute_force_semisimple(lookup("kdC2/F2/cononsplit2").payload) is False


def test_larson_radford_in_characteristic_zero():
    # H semisimple <=> H cosemisimple <=> S^2 = id (Larson & Radford, 1988)
    verdicts = {}
    for entry in hopf_entries(("Q",)):
        h = entry.payload
        verdicts[entry.id] = (
            is_semisimple(regular_module(h)).verdict,
            is_cosemisimple(regular_comodule(h)).verdict,
            h.is_involutory(),
        )
    assert verdicts.pop("H4/Q") == (False, False, False)
    assert len(verdicts) == 7
    assert all(v == (True, True, True) for v in verdicts.values()), verdicts


def test_yd_semisimplicity():
    assert is_yd_semisimple(lookup("kC2/Q/ydtrivial").payload).verdict
    nonsplit = lookup("kC2/F2/ydnonsplit2").payload
    assert not is_yd_semisimple(nonsplit).verdict
    assert brute_force_semisimple(nonsplit) is False


def _yd_direct_sum(a, b):
    return YDModuleRep(
        direct_sum_modules(a.module, b.module),
        ComoduleRep.over_dual(a.hopf, direct_sum_modules(a.comodule.star_module, b.comodule.star_module)),
        name=f"{a.name} + {b.name}",
    )


def _valid_yd_objects(hopf_id):
    return [e.payload for e in objects_over(hopf_id, "yd") if e.expected_failure is None]


def test_yd_direct_sum_of_distinct_lines_is_semisimple():
    a = lookup("kC2/Q/ydline_g_sign").payload
    b = lookup("kC2/Q/ydline_e_sign").payload
    assert is_yd_semisimple(_yd_direct_sum(a, b)).verdict


def test_a_yd_direct_sum_is_semisimple_exactly_when_both_summands_are():
    """M (+) N is semisimple exactly when M and N are, for every pair of
    valid YD objects over one Hopf algebra with dim M + dim N <= 6, and the
    socle oracle agrees on every sum within its cap."""
    sums = oracle_checked = 0
    verdicts = set()
    for hopf_entry in hopf_entries():
        valid = _valid_yd_objects(hopf_entry.id)
        for m, n in combinations_with_replacement(valid, 2):
            if m.dim + n.dim > 6:
                continue
            s = _yd_direct_sum(m, n)
            verdict = is_yd_semisimple(s).verdict
            assert verdict == (is_yd_semisimple(m).verdict and is_yd_semisimple(n).verdict), s.name
            sums += 1
            verdicts.add(verdict)
            p = s.field.characteristic
            if p and p**s.dim <= semisimple.DEFAULT_ORACLE_BOUND:
                assert brute_force_semisimple(s) == verdict, s.name
                oracle_checked += 1
    assert (sums, oracle_checked) == (147, 116)
    assert verdicts == {True, False}


def test_a_yd_radical_in_v_is_the_radical_in_the_regular_representation():
    """The image A of D(H) acts faithfully on V and on itself, so both give
    Rad(A), for every valid YD object and every same-kind YD tensor pair.
    Only this route runs the characteristic-p chain in V, where it stops
    once p^k > dim V, not p^k > dim A.  The engine reads A as the echelon
    basis of its operators' span, closed under products because the laws
    make V a D(H)-module; ``image_module`` checks every product of two
    basis elements against that span, and its table gives A's regular
    representation."""
    images = []
    for hopf_entry in hopf_entries():
        valid = _valid_yd_objects(hopf_entry.id)
        objects = valid + [tensor_in_category(m, n) for m, n in combinations_with_replacement(valid, 2)]
        images += [image_module(o.field, o.dim, o.operators) for o in objects]
    assert len(images) == 225

    def mapped(face, coordinates):
        return _span_rows(face.field, [face.action_of_vector(z) for z in coordinates])

    larger = radicals = 0
    for face in images:
        in_v = mapped(face, semisimple._radical_coordinates(face.field, face.action))
        regular = face.algebra.regular_action_matrices()
        assert in_v == mapped(face, semisimple._radical_coordinates(face.field, regular)), face
        larger += face.algebra.dim > face.dim
        radicals += bool(in_v)
    assert larger == 20
    assert radicals > 0


def test_yd_oracle_agreement_sample():
    for yid in ("kC2/F2/ydnonsplit2", "kC2/F2/ydline_g_triv", "kS3/F2/ydconj3", "kS3/F3/ydconj3"):
        y = lookup(yid).payload
        assert is_yd_semisimple(y).verdict == brute_force_semisimple(y), yid


def test_oracle_agrees_with_the_reference_complement_search():
    objects = [
        e.payload
        for e in catalog_entries()
        if e.kind != "hopf" and e.id.split("/")[1] in ("F2", "F3")
    ]
    objects = [o for o in objects if o.field.characteristic**o.dim <= 729]
    for a, b in (
        ("kC2/F2/regular", "kC2/F2/unipotent2"),
        ("kS3/F2/std2", "kS3/F2/std2"),
        ("kC3/F3/rot2", "kC3/F3/unipotent2"),
        ("kC2/F2/coregular", "kC2/F2/coline_g"),
        ("kC2/F2/ydnonsplit2", "kC2/F2/ydline_g_sign"),
    ):
        objects.append(tensor_in_category(lookup(a).payload, lookup(b).payload))
    # the verdict depends only on the field, the dimension and the set of
    # operators, which many catalog objects share (kS3 coregular = kdS3 regular)
    inputs = {(o.field, o.dim, frozenset(o.operators)): o for o in objects}
    verdicts = set()
    for o in inputs.values():
        verdict = brute_force_semisimple(o)
        assert verdict == semisimple_by_complements(o.field, o.dim, o.operators), o
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_radical_basis_elements_are_nilpotent_across_catalog():
    for mid in ("kC2/F2/regular", "kC3/F3/regular", "kC4/F2/regular", "kS3/F2/regular", "kS3/F3/regular", "H4/Q/regular"):
        m = lookup(mid).payload
        report = is_semisimple(m)
        for r in report.radical_basis:
            assert r.power(m.dim).is_zero(), mid


def test_report_serialization_shape():
    doc = is_semisimple(lookup("kC2/F2/regular").payload).to_doc()
    assert set(doc) == {"verdict", "radical_dim", "method", "radical_basis"}
    assert doc["verdict"] is False
    assert doc["radical_dim"] == 1
    assert doc["radical_basis"] == [[[1, 1], [1, 1]]]
    assert doc["method"] == "IteratedTraceForm"


def test_scalar_algebra_with_even_multiplicity_is_semisimple():
    # two copies of the trivial module over F2: the acting algebra is the
    # scalars, which is semisimple even though every operator on the module
    # has trace zero; the verdict must not be fooled by the multiplicity
    a = lookup("kC2/F2/trivial").payload
    s = direct_sum_modules(a, a)
    assert is_semisimple(s).verdict
    assert brute_force_semisimple(s) is True


def test_radical_dimensions_match_hand_computed_values():
    # classical values: k[C_{p^k}] in char p is local with maximal ideal of
    # codimension one; F2[S3] has simple quotients of dims 1 and 2, F3[S3]
    # of dims 1 and 1; the quaternary algebra over Q splits off k[C2]
    expected = {
        "kC2/F2/regular": 1,
        "kC4/F2/regular": 3,
        "kC3/F3/regular": 2,
        "kS3/F2/regular": 1,
        "kS3/F3/regular": 4,
        "kC2/F2/unipotent2": 1,
        "H4/Q/regular": 2,
        "kS3/F2/perm": 0,  # the all-ones line splits off: 3 is odd
    }
    for mid, dim in expected.items():
        report = is_semisimple(lookup(mid).payload)
        assert report.radical_dim == dim, (mid, report.radical_dim)


def test_rotation_plane_across_characteristics():
    # the generator acts by the companion matrix of x^2+x+1: simple with
    # field endomorphisms over F2 (so every operator trace can vanish on a
    # semisimple module), split over F7, and a Jordan block in char 3
    expectations = {"Q": True, "F2": True, "F3": False, "F5": True, "F7": True}
    for field_name, want in expectations.items():
        m = lookup(f"kC3/{field_name}/rot2").payload
        assert is_semisimple(m).verdict == want, field_name
    assert brute_force_semisimple(lookup("kC3/F2/rot2").payload) is True
    assert brute_force_semisimple(lookup("kC3/F3/rot2").payload) is False
    for field_name, want in expectations.items():
        c = lookup(f"kdC3/{field_name}/corot2").payload
        assert is_cosemisimple(c).verdict == want, field_name


def test_tensor_module_verdicts_match_oracle():
    pairs = [
        ("kC2/F2/regular", "kC2/F2/regular"),
        ("kS3/F2/perm", "kS3/F2/std2"),
        ("kS3/F2/std2", "kS3/F2/std2"),
        ("kS3/F3/perm", "kS3/F3/std2"),
        ("kS3/F3/std2", "kS3/F3/std2"),
        ("kC3/F3/regular", "kC3/F3/unipotent2"),
    ]
    for a, b in pairs:
        t = tensor_modules(lookup(a).payload, lookup(b).payload)
        assert is_semisimple(t).verdict == brute_force_semisimple(t), (a, b)
