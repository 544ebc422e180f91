from fractions import Fraction

import pytest

from hopf_reference import antipode_violation, comult_multiplicative_on_square
from matrix_reference import is_invertible
from hopfcheck.catalog import catalog_entries, group_algebra, hopf_entries, lookup
from hopfcheck.errors import AxiomError
from hopfcheck.fields import GF, QQ
from hopfcheck.hopf import AlgebraData, HopfAlgebraData
from hopfcheck.matrix import EchelonSpan, Matrix
from hopfcheck.modules import require_laws, trivial_module


def kc2():
    return lookup("kC2/Q").payload


def test_group_algebra_axioms_pass():
    assert kc2().check_hopf_axioms().ok


def test_sweedler_axioms_pass():
    assert lookup("H4/Q").payload.check_hopf_axioms().ok


def test_zero_antipode_fails_only_antipode_axioms():
    h = kc2()
    broken = HopfAlgebraData(
        h.field,
        h.dim,
        h.mult,
        h.unit,
        h.comult,
        h.counit,
        Matrix.zeros(h.field, 2, 2),
        name="broken",
    )
    report = broken.check_hopf_axioms()
    failed = {c.name: c.first_violation for c in report.failures()}
    # ev and coev of the regular module already fail to intertwine b_0 = e
    assert failed == {"antipode_left": (0,), "antipode_right": (0,)}


def _with_comult_term(h, i, x, y):
    """h with x (x) y added to comult(b_i); x and y map basis index -> coefficient."""
    comult = [[list(row) for row in slab] for slab in h.comult]
    for j, a in x.items():
        for t, b in y.items():
            comult[i][j][t] += a * b
    return HopfAlgebraData(h.field, h.dim, h.mult, h.unit, comult, h.counit, h.antipode)


def test_each_antipode_law_fails_on_its_own():
    # in kS3 take transpositions s != t; with x = 1 - s and y = t + st,
    # S(x) y = 0 while x S(y) = t + ts - st - sts != 0, so adding x (x) y to
    # comult(b_1) keeps the left law S(b_(1)) b_(2) = eps(b) 1 and breaks the
    # right one; adding y' (x) x with y' = t + ts does the opposite
    h = lookup("kS3/Q").payload
    prod = [[row.index(1) for row in h.mult[a]] for a in range(h.dim)]
    s, t = [a for a in range(1, h.dim) if prod[a][a] == 0][:2]
    one_minus_s = {0: 1, s: -1}
    for broken, (left, right) in (
        (_with_comult_term(h, 1, one_minus_s, {t: 1, prod[s][t]: 1}), (None, (1,))),
        (_with_comult_term(h, 1, {t: 1, prod[t][s]: 1}, one_minus_s), ((1,), None)),
    ):
        checks = {c.name: c.first_violation for c in broken.check_hopf_axioms().checks}
        assert checks["associativity"] is None and checks["unit"] is None
        assert (checks["antipode_left"], checks["antipode_right"]) == (left, right)
        assert (antipode_violation(broken, True) is None, antipode_violation(broken, False) is None) == (
            left is None,
            right is None,
        )


def _comult_multiplicative(h):
    (check,) = [c for c in h.check_hopf_axioms().checks if c.name == "comult_multiplicative"]
    return check.first_violation


def test_comult_multiplicative_equals_the_square_route():
    # every catalog Hopf algebra, then every single-constant corruption of
    # the comultiplication of a few: H stays associative and unital, so the
    # square R (x) R is faithful and both routes give the same first (i, j)
    entries = [e for e in catalog_entries() if e.kind == "hopf"]
    assert len(entries) == 37
    for entry in entries:
        assert _comult_multiplicative(entry.payload) is None, entry.id
        assert comult_multiplicative_on_square(entry.payload) is None, entry.id
    failures = corruptions = 0
    for hid in ("kC2/Q", "kC2/F2", "kC3/F3", "kC4/F2", "H4/Q", "H4/F5", "kdC2/F3", "kdC3/F2", "kS3/F2"):
        h = lookup(hid).payload
        field = h.field
        for i, slab in enumerate(h.comult):
            for j, row in enumerate(slab):
                for t in range(len(row)):
                    comult = [[list(r) for r in s] for s in h.comult]
                    comult[i][j][t] = field.add(comult[i][j][t], field.one())
                    broken = HopfAlgebraData(field, h.dim, h.mult, h.unit, comult, h.counit, h.antipode)
                    violation = _comult_multiplicative(broken)
                    assert violation == comult_multiplicative_on_square(broken), (hid, i, j, t)
                    failures += violation is not None
                    corruptions += 1
    assert corruptions == 2 * 8 + 27 + 3 * 64 + 8 + 27 + 216
    assert failures == 477


def test_bad_data_is_built_and_refused_by_the_guard():
    # no constructor checks: a zero antipode is built without error, its
    # report names both antipode laws, and the one guard refuses it, and a
    # module over it, with the AxiomError carrying that report
    h = kc2()
    broken = HopfAlgebraData(h.field, h.dim, h.mult, h.unit, h.comult, h.counit, Matrix.zeros(h.field, 2, 2), name="broken")
    report = broken.check_hopf_axioms()
    assert [(c.name, c.first_violation) for c in report.failures()] == [("antipode_left", (0,)), ("antipode_right", (0,))]
    for subject in (broken, trivial_module(broken)):
        with pytest.raises(AxiomError) as refused:
            require_laws(subject)
        assert refused.value.report == report


def test_involutory_flags():
    assert lookup("kS3/Q").payload.is_involutory()
    assert lookup("kdC3/Q").payload.is_involutory()
    assert not lookup("H4/Q").payload.is_involutory()
    # on H4, S^2 fixes 1 and g and sends x (index 2) and gx to -x and -gx
    assert [lookup(h).payload.involution_violation for h in ("kS3/Q", "H4/Q", "H4/F5")] == [None, 2, 2]


def test_sweedler_antipode_squares_to_minus_one_on_x():
    h = lookup("H4/Q").payload
    s2 = h.antipode * h.antipode
    # basis order 1, g, x, gx: the square fixes the group part and negates x
    assert s2.entries[2][2] == Fraction(-1)
    assert s2.entries[0][0] == Fraction(1)
    assert s2.entries[1][1] == Fraction(1)


def test_dual_algebra_of_group_algebra_is_function_algebra():
    dual = kc2().dual_algebra()
    one, zero = QQ.one(), QQ.zero()
    for i in range(2):
        for j in range(2):
            for t in range(2):
                want = one if i == j == t else zero
                assert dual.mult[i][j][t] == want
    assert dual.unit == [one, one]


def test_dual_algebra_of_one_dimensional_hopf_is_base_field():
    one = QQ.one()
    h = HopfAlgebraData(
        QQ, 1, [[[one]]], [one], [[[one]]], [one], Matrix.identity(QQ, 1), name="unit"
    )
    dual = h.dual_algebra()
    assert dual.dim == 1
    assert dual.mult == [[[one]]]
    assert dual.unit == [one]


def test_dual_algebra_f2_pointwise_idempotents():
    dual = lookup("kC2/F2").payload.dual_algebra()
    for i in range(2):
        assert dual.mult[i][i][i] == 1
        assert dual.mult[i][1 - i] == [0, 0]


def test_dual_hopf_algebra_passes_the_full_axiom_check():
    entries = [e for e in catalog_entries() if e.kind == "hopf"]
    assert len(entries) == 37
    for entry in entries:
        h = entry.payload
        dual = h.dual_algebra()
        assert isinstance(dual, HopfAlgebraData), entry.id
        assert dual.check_hopf_axioms().ok, entry.id
        # S* = S^T, so H* is involutory exactly when H is
        assert dual.is_involutory() == h.is_involutory(), entry.id
        assert h.dual_algebra() is dual, entry.id  # memoized


def test_dual_of_dual_recovers_the_structure_constants():
    for hid in ("kS3/Q", "kdC3/F3", "H4/F5"):
        h = lookup(hid).payload
        dd = h.dual_algebra().dual_algebra()
        assert (dd.mult, dd.comult, dd.unit, dd.counit) == (h.mult, h.comult, h.unit, h.counit), hid
        assert dd.antipode == h.antipode, hid


def test_dual_algebra_commutative_iff_cocommutative():
    for hid in ("kC2/Q", "kS3/Q", "kdS3/Q"):
        h = lookup(hid).payload
        dual = h.dual_algebra()
        cocommutative = all(
            h.comult[i][a][b] == h.comult[i][b][a]
            for i in range(h.dim)
            for a in range(h.dim)
            for b in range(h.dim)
        )
        commutative = all(
            dual.mult[i][j] == dual.mult[j][i] for i in range(h.dim) for j in range(h.dim)
        )
        assert commutative == cocommutative


def test_antipode_invertible_for_all_catalog_entries():
    for entry in catalog_entries():
        if entry.kind == "hopf":
            assert is_invertible(entry.payload.antipode), entry.id


def test_involutory_antipode_identities():
    for entry in catalog_entries():
        if entry.kind != "hopf":
            continue
        h = entry.payload
        if not h.is_involutory():
            continue
        field = h.field
        # counit composed with the antipode is the counit
        for i in range(h.dim):
            image = [h.antipode.entries[t][i] for t in range(h.dim)]
            got = field.zero()
            for t, c in enumerate(image):
                if c:
                    got = field.add(got, field.mul(c, h.counit[t]))
            assert got == h.counit[i], entry.id
        # the antipode fixes the unit
        unit_image = h.antipode * Matrix.column(field, h.unit)
        assert unit_image.flatten() == list(h.unit), entry.id


def test_bad_algebra_rejected():
    one, zero = QQ.one(), QQ.zero()
    # "multiplication" that drops everything to zero has no unit: 1 b_0 is 0
    report = AlgebraData(QQ, 1, [[[zero]]], [one]).check_algebra_axioms()
    assert [(c.name, c.first_violation) for c in report.failures()] == [("unit", ("left", 0, 0))]


def test_regular_action_matrices_multiply_like_the_table():
    h = group_algebra(GF(3), "S3", "tmp")
    mats = h.regular_action_matrices()
    for i in range(h.dim):
        for j in range(h.dim):
            prod = mats[i] * mats[j]
            combo = Matrix.zeros(h.field, h.dim, h.dim)
            for t, c in enumerate(h.mult[i][j]):
                if c:
                    combo = combo + mats[t].scale(c)
            assert prod == combo


def test_generating_sets_are_read_greedily_in_index_order():
    # kS3 is generated by a transposition and a 3-cycle; its dual k^{S3}
    # (kdS3, and kS3's H*) by five of its six idempotents; H4 by g and x
    for hid in ("kS3/Q", "kS3/F3", "H4/Q", "H4/F5"):
        assert lookup(hid).payload.generators() == [1, 2], hid
    for h in (lookup("kdS3/Q").payload, lookup("kdS3/F2").payload, lookup("kS3/Q").payload.dual_algebra()):
        assert h.generators() == [0, 1, 2, 3, 4], h.name
    for hid in ("kC2/Q", "kC3/F2", "kC4/F3", "kC4/Q"):
        assert lookup(hid).payload.generators() == [1], hid


def _generated_dimension(algebra, generators) -> int:
    """Dimension of the algebra that I and the left multiplications L_g,
    g in ``generators``, generate in End(H), by matrix products.  For a
    unital associative H, x -> L_x is an injective algebra map, so this is
    the dimension of the subalgebra that 1 and the b_g generate."""
    field, n = algebra.field, algebra.dim
    lmats = algebra.regular_action_matrices()
    span = EchelonSpan(field, n * n)
    words = [Matrix.identity(field, n)]
    span.add(words[0].flatten())
    for word in words:
        for g in generators:
            product = word * lmats[g]
            if span.add(product.flatten()):
                words.append(product)
    return span.dim


def test_one_and_the_generating_set_generate_every_catalog_algebra():
    algebras = [a for entry in hopf_entries() for a in (entry.payload, entry.payload.dual_algebra())]
    assert len(algebras) == 74
    for algebra in algebras:
        assert _generated_dimension(algebra, algebra.generators()) == algebra.dim, algebra.name
        # without its last generator the set generates less
        assert _generated_dimension(algebra, algebra.generators()[:-1]) < algebra.dim, algebra.name
