import weakref
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest

from duality_reference import hom_reference, in_hom_span, on_fresh_faces, unit_in_category
from semisimple_reference import direct_sum_modules
from yd_reference import adjoint_yd, compat_violation_reference, e2_algebra
from hopfcheck import duality, modules, semisimple
from hopfcheck.campaign import run_campaign
from hopfcheck.catalog import (
    catalog_entries,
    group_algebra,
    hopf_entries,
    lookup,
    s3_permutation_module,
    s3_sign_module,
    s3_standard_module,
    yd_group_line,
    yd_s3_conjugation,
)
from hopfcheck.comodules import ComoduleRep, trivial_comodule
from hopfcheck.documents import object_to_doc
from hopfcheck.duality import (
    build_strong_dual_certificates,
    coevaluation,
    dual_in_category,
    evaluation,
    hom_in_category,
    hs_rank,
    is_morphism,
    morphism_violation,
    pairing_violation,
    split_retraction,
    tensor_in_category,
    verify_serre,
)
from hopfcheck.errors import (
    AxiomError,
    CertificateError,
    NotAMorphismError,
    NotInjectiveError,
    NotInvolutoryError,
    NotSplitError,
    RankNotInvertibleError,
)
from hopfcheck.fields import GF, QQ
from hopfcheck.matrix import Matrix, solve_linear
from hopfcheck.hopf import AlgebraData, HopfAlgebraData
from hopfcheck.modules import ModuleRep, check_module_axioms, dual_module, laws_hold, regular_module, tensor_modules, trivial_module
from hopfcheck.semisimple import brute_force_semisimple, cached_verdict, is_semisimple, tensor_semisimplicity
from hopfcheck.yd import YDModuleRep, trivial_yd


def test_hs_rank_values():
    assert hs_rank(2, QQ).value == Fraction(2) and hs_rank(2, QQ).invertible
    r = hs_rank(2, GF(2))
    assert r.value == 0 and not r.invertible
    r = hs_rank(3, GF(2))
    assert r.value == 1 and r.invertible


def test_coevaluation_and_evaluation_vectors():
    triv = lookup("kC2/Q/trivial").payload
    assert coevaluation(triv).flatten() == [Fraction(1)]
    reg = lookup("kC2/Q/regular").payload
    assert coevaluation(reg).flatten() == [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    assert evaluation(reg).flatten() == coevaluation(reg).flatten()


def test_pairing_composition_equals_rank():
    for oid, want in (
        ("kC2/Q/regular", Fraction(2)),
        ("kC2/F2/regular", 0),
        ("kS3/F2/perm", 1),
        ("kS3/Q/perm", Fraction(3)),
    ):
        obj = lookup(oid).payload
        got = (evaluation(obj) * coevaluation(obj)).entries[0][0]
        assert got == want, oid


def _coev_is_morphism(obj):
    square = tensor_in_category(obj, dual_in_category(obj))
    return is_morphism(coevaluation(obj), unit_in_category(obj), square)


def _ev_is_morphism(obj):
    square = tensor_in_category(obj, dual_in_category(obj))
    return is_morphism(evaluation(obj), square, unit_in_category(obj))


def test_coevaluation_equivariance_holds_for_all_hopfs():
    # this only needs the antipode axiom, so it must hold on the
    # non-involutory entries too
    for mid in ("kC2/Q/regular", "kS3/F3/perm", "H4/Q/regular", "H4/F5/h4mod2"):
        assert _coev_is_morphism(lookup(mid).payload), mid


def test_evaluation_equivariance_dichotomy():
    for mid in ("kC2/Q/regular", "kS3/F2/std2", "kdC3/F5/regular"):
        assert _ev_is_morphism(lookup(mid).payload), mid
    assert not _ev_is_morphism(lookup("H4/Q/regular").payload)
    assert not _ev_is_morphism(lookup("H4/Q/h4mod2").payload)


def test_trivial_module_evaluation_always_equivariant():
    for hid in ("kC2/Q", "H4/Q", "H4/F5"):
        assert _ev_is_morphism(lookup(f"{hid}/trivial").payload), hid


# a morphism of comodules is a colinear map
def test_coevaluation_colinearity_holds_for_all_hopfs():
    for cid in ("kC2/Q/coregular", "kS3/F3/coline_t", "H4/Q/coregular", "H4/F5/coregular"):
        assert _coev_is_morphism(lookup(cid).payload), cid


def test_evaluation_colinearity_dichotomy():
    for cid in ("kC2/Q/coregular", "kS3/F5/coline_c", "kdC2/F2/cononsplit2"):
        assert _ev_is_morphism(lookup(cid).payload), cid
    assert not _ev_is_morphism(lookup("H4/Q/coregular").payload)


def test_trivial_comodule_evaluation_always_colinear():
    # on one dimension the pairing reduces to 1 (x) unit, antipode regardless
    for hid in ("kC2/Q", "H4/Q", "H4/F5"):
        assert _ev_is_morphism(lookup(f"{hid}/cotrivial").payload), hid


def test_canonical_element_reconstructs_the_identity():
    # the canonical element, reshaped over the tensor-square basis, is the
    # identity matrix: pairing its halves against any vector reconstructs it
    for oid in ("kC2/Q/regular", "kS3/F3/perm"):
        obj = lookup(oid).payload
        flat = coevaluation(obj).flatten()
        reshaped = Matrix.from_flat(obj.field, obj.dim, obj.dim, flat)
        assert reshaped.is_identity(), oid


def test_certificates_for_regular_c2():
    right, left = build_strong_dual_certificates(lookup("kC2/Q/regular").payload)
    half = Fraction(1, 2)
    assert right.retraction.entries == [[half, Fraction(0), Fraction(0), half]]
    assert (right.retraction * right.mono).is_identity()
    assert (left.retraction * left.mono).is_identity()


def test_certificates_refused_without_invertible_rank():
    with pytest.raises(RankNotInvertibleError):
        build_strong_dual_certificates(lookup("kC2/F2/regular").payload)


def test_certificates_refused_for_non_involutory():
    with pytest.raises(NotInvolutoryError):
        build_strong_dual_certificates(lookup("H4/Q/regular").payload)


def test_certificates_recheck_both_maps(monkeypatch):
    # with the involutory gate forced open, ev out of N (x) N* and coev into
    # N* (x) N fail over H4 and the builder must refuse
    monkeypatch.setattr(HopfAlgebraData, "is_involutory", lambda self: True)
    for oid in ("H4/Q/regular", "H4/Q/coregular", "H4/F5/h4mod2"):
        with pytest.raises(CertificateError):
            build_strong_dual_certificates(lookup(oid).payload)


def test_certificate_builders_refuse_an_unlawful_object_with_the_guards_error():
    # the guard comes before any involutivity, rank or re-verification
    # refusal; on a kC2/Q line where g acts by 2, g g = e fails at (1, 1)
    identity = Matrix.identity(QQ, 1)
    g2 = ModuleRep(lookup("kC2/Q").payload, 1, [identity, Matrix.from_rows(QQ, [[2]])], "g2")
    unlawful = ((lookup("kS3/Q/ydbadline").payload, "yd_compatibility at (2, 4)"), (g2, "action_multiplicative at (1, 1)"))
    for obj, law in unlawful:
        with pytest.raises(AxiomError) as alone:
            is_semisimple(obj)
        assert law in str(alone.value)
        for build in (lambda: build_strong_dual_certificates(obj), lambda: split_retraction(identity, obj, obj)):
            with pytest.raises(AxiomError) as raised:
                build()
            assert str(raised.value) == str(alone.value)
            assert raised.value.report == alone.value.report


def test_certificates_for_comodule_and_yd():
    right, left = build_strong_dual_certificates(lookup("kS3/Q/coregular").payload)
    assert right.category == "comodule" and left.category == "comodule"
    right, left = build_strong_dual_certificates(lookup("kS3/F5/ydconj3").payload)
    assert right.category == "yd" and left.category == "yd"


def test_is_morphism_agrees_with_hom_span_on_canonical_maps():
    """The identity vector as a map 1 -> square and square -> 1, for both
    squares N (x) N* and N* (x) N of every valid catalog object.  It fails
    only where S^2 != id: ev out of N (x) N* and coev into N* (x) N over H4."""
    rejected = {}
    checked = 0
    for entry in catalog_entries():
        if entry.kind == "hopf" or entry.expected_failure:
            continue
        obj = entry.payload
        unit, dual = unit_in_category(obj), dual_in_category(obj)
        coev, ev = coevaluation(obj), evaluation(obj)
        for order, square in (("right", tensor_in_category(obj, dual)), ("left", tensor_in_category(dual, obj))):
            for name, g, source, target in (("coev", coev, unit, square), ("ev", ev, square, unit)):
                direct = is_morphism(g, source, target)
                assert direct == in_hom_span(g, source, target), (entry.id, order, name)
                if not direct:
                    rejected.setdefault((order, name), set()).add(entry.id)
        checked += 1
    assert checked == 281
    # the six objects the campaign counts as non-involutory evaluation failures
    h4 = {f"H4/{f}/{name}" for f in ("Q", "F5") for name in ("regular", "h4mod2", "coregular")}
    assert rejected == {("right", "ev"): h4, ("left", "coev"): h4}


@pytest.fixture
def pairing_kernel_runs(monkeypatch):
    """Runs of the per-face pairing kernel, counted by face id."""
    runs = Counter()
    kernel = modules._pairing_kernel

    def counted(face, coev, dual_first):
        runs[id(face)] += 1
        return kernel(face, coev, dual_first)

    monkeypatch.setattr(modules, "_pairing_kernel", counted)
    return runs


def test_each_face_decides_each_pairing_map_once(pairing_kernel_runs):
    # the dichotomy asks for coev and ev into N (x) N*, both certificate
    # orders for all four maps: four kernel runs per face, asked twice
    for entry_id in ("kS3/Q/std2", "kS3/Q/coregular", "kS3/Q/ydconj3", "kC2/F3/regular"):
        pairing_kernel_runs.clear()
        obj = on_fresh_faces(lookup(entry_id).payload)
        for _ in range(2):
            assert pairing_violation(obj, True, False) is None
            assert pairing_violation(obj, False, False) is None
            build_strong_dual_certificates(obj)
        assert [pairing_kernel_runs[id(face)] for face in obj.faces] == [4] * len(obj.faces), entry_id


def test_a_second_campaign_runs_no_pairing_kernel(pairing_kernel_runs):
    # catalog faces keep their pairing violations across runs
    run_campaign()
    pairing_kernel_runs.clear()
    assert run_campaign().ok
    assert not pairing_kernel_runs


def _same_kind_catalog_pairs():
    """Every pair (a, b) of catalog entries of one kind over one Hopf
    algebra, in both orders, ydbadline's included."""
    groups = {}
    for entry in catalog_entries():
        if entry.kind != "hopf":
            groups.setdefault((entry.id.rsplit("/", 1)[0], entry.kind), []).append(entry)
    return [(a, b) for group in groups.values() for a in group for b in group]


def test_the_hom_solver_equals_the_system_written_out_entry_by_entry():
    """On every same-kind catalog pair whose dimensions multiply to at most
    16, the Hom basis solved from the Kronecker-built system is the one
    solved from the system written out one coefficient at a time."""
    pairs = [(a, b) for a, b in _same_kind_catalog_pairs() if a.payload.dim * b.payload.dim <= 16]
    nonzero = 0
    for a, b in pairs:
        got = hom_in_category(a.payload, b.payload)
        assert got == hom_reference(a.payload, b.payload), (a.id, b.id)
        nonzero += bool(got)
    assert (len(pairs), nonzero) == (806, 562)


def test_a_product_computes_the_law_table_of_fresh_faces():
    """On every same-kind catalog product in both orders, the product's law
    table equals the one computed on fresh faces with the same actions.
    The products of lawful factors pass, as ``tensor_in_category`` proves;
    of ydbadline's seven products, the six with another factor are
    refused."""
    refused = []
    pairs = _same_kind_catalog_pairs()
    for a, b in pairs:
        product = tensor_in_category(a.payload, b.payload)
        report = check_module_axioms(product)
        assert report == check_module_axioms(on_fresh_faces(product)), (a.id, b.id)
        if not report.ok:
            refused.append((a.id, b.id))
    assert len(pairs) == 836 and len(refused) == 6
    assert all("kS3/Q/ydbadline" in pair and pair[0] != pair[1] for pair in refused)
    product = tensor_in_category(lookup("kS3/Q/ydbadline").payload, lookup("kS3/Q/ydconj3").payload)
    with pytest.raises(AxiomError, match="yd_compatibility at"):
        is_semisimple(product)


def test_yd_products_and_duals_over_a_non_involutory_h_are_yd_modules():
    """Over H4 and E(2), where S^2 != id and H is neither commutative nor
    cocommutative, the four products of the adjoint YD module and the sign
    line of degree c (g in H4), and both duals, pass their laws on fresh
    faces and the coefficient loop, and are decided: the H*-face over
    (H^op)* gives the left-right coaction n_<1> m_<1> and the dual through
    S^-1 over every H.  Each product's report is the one
    ``tensor_semisimplicity`` gives its factors."""
    algebras = [lookup("H4/Q").payload, lookup("H4/F5").payload] + [e2_algebra(f) for f in (QQ, GF(3), GF(5))]
    for h in algebras:
        adjoint = adjoint_yd(h)
        line = yd_group_line(h, 1, [1, -1] + [0] * (h.dim - 2), "ydline_c_sign")
        assert laws_hold(h) and not h.is_involutory() and laws_hold(adjoint) and laws_hold(line)
        pairs = ((adjoint, line), (line, adjoint), (adjoint, adjoint), (line, line))
        products = [tensor_in_category(a, b) for a, b in pairs]
        reports = []
        for obj in products + [dual_in_category(adjoint), dual_in_category(line)]:
            assert check_module_axioms(on_fresh_faces(obj)).ok, (h.name, obj.name)
            assert compat_violation_reference(obj) is None, (h.name, obj.name)
            reports.append(is_semisimple(obj))
        for (a, b), want in zip(pairs, reports):
            _unbuilt_matches_built(a, b, want)


def test_a_yd_object_over_a_singular_antipode_reports_its_laws_and_refuses_constructions():
    """S is invertible over every H whose laws hold, so a singular S is a
    law failure of H: a YD object over kC2 with S = 0 still reports its own
    laws, and its tensor product and dual, which need S^-1 for the
    (H^op)*-face, raise the ``AxiomError`` naming H's failing law."""
    h = lookup("kC2/Q").payload
    broken = HopfAlgebraData(
        h.field, h.dim, h.mult, h.unit, h.comult, h.counit, Matrix.zeros(h.field, h.dim, h.dim)
    )
    y = trivial_yd(broken)
    assert check_module_axioms(y).ok
    for build in (lambda: tensor_in_category(y, y), lambda: dual_in_category(y)):
        with pytest.raises(AxiomError, match="antipode_left at"):
            build()


def test_a_product_over_a_lawless_h_computes_its_table():
    """Adding b_0 (x) b_0 to Delta(g) in kC2 breaks H's laws but no law of a
    kC2-module, which reads only H's product; the product of two lawful
    modules then breaks the module law, and its table, computed, says so."""
    h = lookup("kC2/Q").payload
    comult = [[list(row) for row in slab] for slab in h.comult]
    comult[1][0][0] += 1
    broken = HopfAlgebraData(h.field, h.dim, h.mult, h.unit, comult, h.counit, h.antipode)
    regular = regular_module(broken)
    assert laws_hold(regular) and not laws_hold(broken)
    product = tensor_in_category(regular, regular)
    report = check_module_axioms(product)
    assert report == check_module_axioms(on_fresh_faces(product))
    assert [c.name for c in report.failures()] == ["action_multiplicative"]


def test_a_second_campaign_runs_no_law_kernel(monkeypatch):
    """Catalog objects keep their law tables and every product the campaign
    decides passes its factors' guard, never its own, so a second campaign
    in one process runs neither the module-law kernel nor the straightening
    kernel, and the first runs at most 464 and 79 of them (722 and 112 when
    every product computed its table)."""
    runs = Counter()
    for owner, kernel in ((AlgebraData, "multiplicativity_violation"), (YDModuleRep, "_straightening_violation")):

        def counted(*args, _run=getattr(owner, kernel), _kernel=kernel):
            runs[_kernel] += 1
            return _run(*args)

        monkeypatch.setattr(owner, kernel, counted)
    run_campaign()
    assert runs["multiplicativity_violation"] <= 464 and runs["_straightening_violation"] <= 79, runs
    runs.clear()
    assert run_campaign().ok
    assert not runs


def _conjugator(field, dim):
    """P.(.).P^-1 for the fixed P = L U, L unit lower triangular with ones
    below the diagonal, U upper with ones above it and diagonal 1, 2, 1, 2;
    over Q, P^-1 carries fractions."""
    lower = [[1 if r >= c else 0 for c in range(dim)] for r in range(dim)]
    upper = [[(1, 2)[r % 2] if r == c else 1 if r < c else 0 for c in range(dim)] for r in range(dim)]
    p = Matrix.from_rows(field, lower) * Matrix.from_rows(field, upper)
    pinv = solve_linear(p, Matrix.identity(field, dim))
    return lambda a: p * a * pinv


@pytest.mark.parametrize("field_name", ["Q", "F3"])
def test_a_change_of_basis_keeps_hom_dimensions_verdicts_and_radicals(field_name):
    # P.N.P^-1 is isomorphic to N, so it has the same Hom dimension with
    # every same-kind object over the same H, in both directions, the same
    # verdict and the same radical dimension
    field = {"Q": QQ, "F3": GF(3)}[field_name]
    groups: dict = {}
    for entry in catalog_entries():
        hopf_name, entry_field = entry.id.split("/")[:2]
        if entry.kind != "hopf" and entry.expected_failure is None and entry_field == field_name and entry.payload.dim <= 4:
            groups.setdefault((hopf_name, entry.kind), []).append(entry.payload)
    checked = 0
    for group in groups.values():
        for obj in group:
            conj = _conjugator(field, obj.dim)
            faces = tuple(ModuleRep(f.algebra, f.dim, [conj(a) for a in f.action], f.name) for f in obj.faces)
            moved = obj.with_faces(faces, f"P.{obj.name}.P^-1")
            want, got = semisimple.is_semisimple(obj), semisimple.is_semisimple(moved)
            assert (got.verdict, got.radical_dim) == (want.verdict, want.radical_dim), obj.name
            for other in group:
                assert len(hom_in_category(moved, other)) == len(hom_in_category(obj, other)), (obj.name, other.name)
                assert len(hom_in_category(other, moved)) == len(hom_in_category(other, obj)), (obj.name, other.name)
            checked += 1
    assert checked >= 40


def test_is_morphism_rejects_a_map_of_the_wrong_shape():
    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    assert is_morphism(Matrix.column(QQ, [1, 1]), triv, reg)
    assert not is_morphism(Matrix.column(QQ, [1, 1, 1]), triv, reg)
    assert not is_morphism(Matrix.zeros(QQ, 1, 2), triv, reg)
    assert morphism_violation(Matrix.zeros(QQ, 1, 2), triv, reg) == ()
    assert morphism_violation(Matrix.column(QQ, [1, 0]), triv, reg) == (1,)


def _pairing_and_square_violations(obj):
    """Each of coev into and ev out of N (x) N* and N* (x) N, as
    ``pairing_violation`` reads it off one vector and as
    ``morphism_violation`` reads it off the built square."""
    unit, dual = unit_in_category(obj), dual_in_category(obj)
    coev, ev = coevaluation(obj), evaluation(obj)
    out = []
    for dual_first, square in ((False, tensor_in_category(obj, dual)), (True, tensor_in_category(dual, obj))):
        out.append((pairing_violation(obj, True, dual_first), morphism_violation(coev, unit, square)))
        out.append((pairing_violation(obj, False, dual_first), morphism_violation(ev, square, unit)))
    return out


def test_pairing_violations_equal_the_squares_on_every_face():
    # all four canonical maps of every valid catalog object; they fail only
    # where S^2 != id: ev out of N (x) N* and coev into N* (x) N over H4
    checked = 0
    failing = set()
    for entry in catalog_entries():
        if entry.kind == "hopf" or entry.expected_failure:
            continue
        for got, want in _pairing_and_square_violations(entry.payload):
            assert got == want, entry.id
            if got is not None:
                failing.add(entry.id)
        checked += 1
    assert checked == 281
    assert failing == {f"H4/{f}/{name}" for f in ("Q", "F5") for name in ("regular", "h4mod2", "coregular")}
    # with S = id the laws fail at the first b_i whose square is not 1
    seen = set()
    for entry in hopf_entries():
        h = entry.payload
        bad = HopfAlgebraData(
            h.field, h.dim, h.mult, h.unit, h.comult, h.counit, Matrix.identity(h.field, h.dim)
        )
        for module in (regular_module(bad), trivial_module(bad)):
            for got, want in _pairing_and_square_violations(module):
                assert got == want, entry.id
                seen.add(got)
    assert {None, (1,), (2,)} <= seen


def test_split_retraction_for_invariant_line_in_regular_c2():
    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    mono = Matrix.column(QQ, [Fraction(1), Fraction(1)])
    cert = split_retraction(mono, triv, reg)
    assert cert.retraction.entries == [[Fraction(1, 2), Fraction(1, 2)]]
    assert (cert.retraction * mono).is_identity()


def test_split_retraction_not_split_in_characteristic_two():
    reg = lookup("kC2/F2/regular").payload
    triv = lookup("kC2/F2/trivial").payload
    mono = Matrix.column(GF(2), [1, 1])
    with pytest.raises(NotSplitError):
        split_retraction(mono, triv, reg)


def test_split_retraction_identity_mono():
    reg = lookup("kS3/Q/std2").payload
    cert = split_retraction(Matrix.identity(QQ, 2), reg, reg)
    assert cert.retraction.is_identity()


def test_split_retraction_rejects_non_morphism():
    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    not_a_morphism = Matrix.column(QQ, [Fraction(1), Fraction(0)])
    with pytest.raises(NotAMorphismError):
        split_retraction(not_a_morphism, triv, reg)


def test_split_retraction_refuses_a_retraction_that_is_no_morphism(monkeypatch):
    # [1, 0] retracts the invariant line but does not commute with the swap;
    # a solved retraction must be re-checked as a morphism, not only as a
    # left inverse
    import hopfcheck.duality

    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    monkeypatch.setattr(hopfcheck.duality, "hom_in_category", lambda a, b: [Matrix(QQ, 1, 2, [[1, 0]])])
    with pytest.raises(CertificateError):
        split_retraction(Matrix.column(QQ, [1, 1]), triv, reg)


def test_split_retraction_rejects_non_injective():
    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    zero = Matrix.zeros(QQ, 2, 1)
    with pytest.raises(NotInjectiveError):
        split_retraction(zero, triv, reg)


def test_serre_verdict_rational_case():
    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    v = verify_serre(reg, triv)
    assert v.hypothesis_holds and v.rank_invertible_m and v.rank_invertible_n
    assert v.conclusion_m and v.conclusion_n and v.consistent


def test_serre_verdict_vacuous_when_hypothesis_fails():
    reg = lookup("kC2/F2/regular").payload
    triv = lookup("kC2/F2/trivial").payload
    v = verify_serre(reg, triv)
    # the tensor product is the regular module again: not semisimple
    assert not v.hypothesis_holds
    assert v.rank_invertible_n  # dim 1
    assert not v.conclusion_m
    assert v.consistent


def test_serre_verdict_zero_ranks_record_tensor_status():
    reg = lookup("kC2/F2/regular").payload
    v = verify_serre(reg, reg)
    assert not v.rank_invertible_m and not v.rank_invertible_n
    assert v.consistent
    square = tensor_modules(reg, reg)
    assert is_semisimple(square).verdict == brute_force_semisimple(square)
    assert v.hypothesis_holds == is_semisimple(square).verdict


def test_serre_cache_is_not_fooled_by_transient_objects():
    # each tensor object dies before the next is built, and CPython usually
    # gives the next one the same address; a cache keyed by id() then returns
    # the dead object's verdict, alternately semisimple and not
    triv = lookup("kC2/F2/trivial").payload
    reg = lookup("kC2/F2/regular").payload  # not semisimple in characteristic 2
    plane = direct_sum_modules(triv, triv)  # semisimple, same dimension
    cache: dict = {}
    for i in range(40):
        m = tensor_modules(triv, reg if i % 2 else plane)
        assert verify_serre(m, triv, cache=cache) == verify_serre(m, triv), i
        del m


def test_serre_decides_each_distinct_face_key_once(monkeypatch):
    # with one shared cache, every pair of kS3/F3 YD objects decides each
    # (face algebras, actions) key once: N (x) ydtrivial is N, and the sign
    # line of degree e on either side of N carries the same matrices.  The
    # module pairs decide only their factors, and build no product.  Every
    # decision of one object, a factor or a built product, is counted
    h = group_algebra(GF(3), "S3", "kS3/F3")
    modules = [
        regular_module(h),
        trivial_module(h),
        s3_permutation_module(h),
        s3_sign_module(h),
        s3_standard_module(h),
    ]
    signs = [a.entries[0][0] for a in s3_sign_module(h).action]
    yd_objects = [trivial_yd(h), yd_group_line(h, 0, signs, "ydline_e_sign"), yd_s3_conjugation(h)]
    decided, built = [], []
    decide, tensor = semisimple._lawful_semisimplicity, duality.tensor_modules

    def counted(obj):
        decided.append(tuple(obj.operators))
        return decide(obj)

    def counted_tensor(m, n, name=""):
        built.append((m, n))
        return tensor(m, n, name)

    monkeypatch.setattr(semisimple, "_lawful_semisimplicity", counted)
    monkeypatch.setattr(duality, "tensor_modules", counted_tensor)
    cache: dict = {}
    for m in modules:
        for n in modules:
            verify_serre(m, n, cache=cache)
    assert not built
    assert len(decided) == len(set(decided)) == len(modules)
    decided.clear()
    for m in yd_objects:
        for n in yd_objects:
            verify_serre(m, n, cache=cache)
    assert len(built) == 2 * len(yd_objects) ** 2
    objects = yd_objects + [tensor_in_category(m, n) for m in yd_objects for n in yd_objects]
    assert len(decided) == len(set(decided)) == len({tuple(o.operators) for o in objects}) < len(objects)


def test_a_warm_campaign_builds_and_keys_yd_products_only(monkeypatch):
    # a module or comodule pair is decided from its factors, and so is a YD
    # pair over a semisimple double, where Rad(H) = Rad(H*) = 0: a warm
    # campaign builds one product per other YD pair, two faces each, and
    # computes a verdict key on those faces only; every catalog face kept
    # its key
    run_campaign()
    kinds, faces, keyed = [], [], []
    product, tensor = semisimple.tensor_in_category, duality.tensor_modules
    key = ModuleRep.__dict__["verdict_key"]

    def counted_product(a, b):
        kinds.append(a.kind)
        return product(a, b)

    def counted_tensor(m, n, name=""):
        faces.append(tensor(m, n, name))
        return faces[-1]

    def counted_key(face):
        keyed.append(face)
        return key.func(face)

    counted = cached_property(counted_key)
    counted.__set_name__(ModuleRep, "verdict_key")
    monkeypatch.setattr(semisimple, "tensor_in_category", counted_product)
    monkeypatch.setattr(duality, "tensor_modules", counted_tensor)
    monkeypatch.setattr(ModuleRep, "verdict_key", counted)
    report = run_campaign()
    yd_hopfs = [lookup(v.hopf_name).payload for v in report.serre_verdicts if v.category == "yd"]
    radical = semisimple._algebra_radical
    built_pairs = sum(bool(radical(h) or radical(h.dual_algebra())) for h in yd_hopfs)
    assert len(yd_hopfs) == 147 and built_pairs == 42 and kinds == ["yd"] * built_pairs
    assert len(faces) == 2 * built_pairs
    built = {id(face) for face in faces}
    assert keyed and all(id(face) in built for face in keyed)


def test_a_cached_verdict_does_not_skip_the_guard_of_another_algebra():
    # kC2/Q/regular's [I, swap] over kdC2/Q is no action: its unit e + g
    # acts as I + swap.  The same matrices' verdict over kC2/Q is cached
    reg = lookup("kC2/Q/regular").payload
    cache: dict = {}
    assert cached_verdict(reg, cache)
    impostor = ModuleRep(lookup("kdC2/Q").payload, 2, reg.action)
    with pytest.raises(ValueError, match="unit_acts_as_identity at \\(0,\\)"):
        cached_verdict(impostor, cache)


def test_a_verdict_cache_keeps_no_tensor_product_alive(monkeypatch):
    # the cache keys on each face's algebra and entry text, so once a pair is
    # decided nothing holds its product's action matrices
    class Tracked(Matrix):
        """A ``Matrix`` that takes weak references: it has no ``__slots__``."""

    refs = []
    real = semisimple.tensor_in_category

    def tracked(a, b):
        product = real(a, b)
        faces = tuple(
            ModuleRep(f.algebra, f.dim, [Tracked(x.field, x.rows, x.cols, x.entries) for x in f.action], f.name)
            for f in product.faces
        )
        refs.extend(weakref.ref(x) for f in faces for x in f.action)
        return product.with_faces(faces, product.name)

    monkeypatch.setattr(semisimple, "tensor_in_category", tracked)
    cache: dict = {}
    for m, n in (("kS3/Q/std2", "kS3/Q/perm"), ("kS3/F3/ydconj3", "kS3/F3/ydconj3")):
        verify_serre(lookup(m).payload, lookup(n).payload, cache)
    # the module pair builds no product; the YD pair one of two faces
    assert len(refs) == 2 * 6 and len(cache) == 4
    assert all(ref() is None for ref in refs)


def test_verdict_keys_read_the_algebra_object_and_every_entry():
    reg = lookup("kC2/Q/regular").payload
    copied = [Matrix.from_rows(QQ, [row[:] for row in a.entries]) for a in reg.action]
    assert ModuleRep(reg.algebra, 2, copied).verdict_key == reg.verdict_key
    # an integral Fraction and its int are equal entries, so one key
    fractions = [Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in a.entries]) for a in reg.action]
    assert all(type(x) is Fraction for a in fractions for row in a.entries for x in row)
    assert ModuleRep(reg.algebra, 2, fractions).verdict_key == reg.verdict_key
    assert ModuleRep(lookup("kdC2/Q").payload, 2, reg.action).verdict_key != reg.verdict_key
    changed = [row[:] for row in reg.action[1].entries]
    changed[1][1] = 2
    moved = ModuleRep(reg.algebra, 2, [reg.action[0], Matrix.from_rows(QQ, changed)])
    assert moved.verdict_key != reg.verdict_key


def test_serre_hypothesis_taken_from_a_factor_equals_the_products_verdict():
    # verify_serre's cache is keyed by the faces, so a product that carries
    # a factor's operators (N (x) trivial) reads that factor's verdict; every
    # pair must still read the product's own verdict
    groups: dict = {}
    for entry in catalog_entries():
        prefix = entry.id.rsplit("/", 1)[0]
        if entry.kind != "hopf" and (prefix in ("kC2/F2", "kS3/F3") or (prefix, entry.kind) == ("kS3/F2", "yd")):
            groups.setdefault((prefix, entry.kind), []).append(entry.payload)
    reused = 0
    for objects in groups.values():
        for m in objects:
            for n in objects:
                product = tensor_in_category(m, n)
                assert verify_serre(m, n).hypothesis_holds == is_semisimple(product).verdict, (m, n)
                reused += product.operators in (m.operators, n.operators)
    assert reused > 0


def _unbuilt_matches_built(m, n, want=None):
    """``tensor_semisimplicity(m, n)``, asserted to give ``want``, the built
    product's report (decided here when not given)."""
    if want is None:
        want = is_semisimple(tensor_in_category(m, n))
    got = tensor_semisimplicity(m, n)
    assert (got.verdict, got.radical_dim, got.radical_basis) == (want.verdict, want.radical_dim, want.radical_basis)
    return got


def test_an_unbuilt_product_has_the_built_products_report():
    # every ordered same-kind module, comodule and YD pair over all five
    # fields; a YD pair is built, and decided without a guard of its own
    groups: dict = {}
    for entry in catalog_entries():
        if entry.kind != "hopf" and laws_hold(entry.payload) and laws_hold(entry.payload.hopf):
            groups.setdefault((entry.id.rsplit("/", 1)[0], entry.kind), []).append(entry.payload)
    pairs, not_semisimple = Counter(), Counter()
    for (_, kind), objects in groups.items():
        for m in objects:
            for n in objects:
                not_semisimple[kind] += not _unbuilt_matches_built(m, n).verdict
                pairs[kind] += 1
    assert (pairs["module"] + pairs["comodule"], not_semisimple["module"] + not_semisimple["comodule"]) == (613, 104)
    assert (pairs["yd"], not_semisimple["yd"]) == (216, 10)


def test_an_unbuilt_product_of_conjugated_rational_faces_has_the_built_products_report():
    # std2 in the basis P = [[2, 1], [0, 1]] (rational entries), and H4/Q,
    # whose products have a nonzero radical over Q, conjugated alike
    p = Matrix.from_rows(QQ, [[2, 1], [0, 1]])
    pinv = solve_linear(p, Matrix.identity(QQ, 2))
    radicals = 0
    for hopf_name, name in (("kS3/Q", "std2"), ("H4/Q", "h4mod2")):
        obj = lookup(f"{hopf_name}/{name}").payload
        moved = ModuleRep(obj.algebra, 2, [p * a * pinv for a in obj.action], f"P.{name}.P^-1")
        assert any(type(x) is Fraction for a in moved.action for row in a.entries for x in row)
        others = [e.payload for e in catalog_entries() if e.kind == "module" and e.id.startswith(hopf_name + "/")]
        for other in others + [moved]:
            radicals += _unbuilt_matches_built(moved, other).radical_dim
            radicals += _unbuilt_matches_built(other, moved).radical_dim
    assert radicals > 0


def test_an_unbuilt_product_refuses_an_unlawful_factor_as_before():
    # the factor is decided first, so the pair raises the factor's own
    # AxiomError, whichever side it is on
    std2 = lookup("kS3/Q/std2").payload
    broken = [Matrix.from_rows(QQ, [row[:] for row in a.entries]) for a in std2.action]
    broken[1].entries[0][0] += 1
    bad = ModuleRep(std2.algebra, 2, broken, "bad")
    h = std2.hopf
    # every f_t acting by 2 fails the counit law
    star = ModuleRep(h.dual_algebra(), 1, [Matrix.from_rows(QQ, [[2]])] * h.dim, "badco")
    bad_comodule = ComoduleRep.over_dual(h, star, "badco")
    cotrivial = lookup("kS3/Q/cotrivial").payload
    for unlawful, lawful in ((bad, std2), (bad_comodule, cotrivial)):
        with pytest.raises(AxiomError) as alone:
            is_semisimple(unlawful)
        for m, n in ((unlawful, lawful), (lawful, unlawful)):
            for decide in (verify_serre, tensor_semisimplicity):
                with pytest.raises(AxiomError) as raised:
                    decide(m, n)
                assert str(raised.value) == str(alone.value)
                assert raised.value.report == alone.value.report
    # a pair across kinds, or of Hopf algebras, is refused as verify_serre
    # refuses it; a YD pair is decided
    for m, n in ((std2, cotrivial), (h, h)):
        for decide in (verify_serre, tensor_semisimplicity):
            with pytest.raises(TypeError):
                decide(m, n)
    ydconj3 = lookup("kS3/F3/ydconj3").payload
    assert not tensor_semisimplicity(ydconj3, ydconj3).verdict
    # with no cache, an unlawful YD factor is refused on either side
    bad, trivial = lookup("kS3/Q/ydbadline").payload, lookup("kS3/Q/ydtrivial").payload
    for m, n in ((bad, trivial), (trivial, bad)):
        with pytest.raises(AxiomError, match=r"yd_compatibility at \(2, 4\)"):
            tensor_semisimplicity(m, n)


def test_serre_verdict_involutory_flag():
    h4mod = lookup("H4/Q/h4mod2").payload
    v = verify_serre(h4mod, h4mod)
    assert not v.involutory


def test_dual_objects_feed_back_into_serre():
    reg = lookup("kS3/F5/regular").payload
    v = verify_serre(dual_module(reg), reg)
    assert v.consistent


def test_certificate_serialization_shape():
    right, _ = build_strong_dual_certificates(lookup("kC2/Q/regular").payload)
    doc = right.to_doc()
    assert set(doc) == {"category", "context", "mono", "retraction"}
    assert doc["category"] == "module"
    assert doc["retraction"] == [["1/2", "0", "0", "1/2"]]


def test_campaign_counts_only_certificate_errors_as_certificate_failures(monkeypatch):
    import hopfcheck.campaign
    from hopfcheck.campaign import run_campaign

    def failing_builder(exc):
        def build(obj):
            raise exc("raised inside the certificate builder")

        return build

    # a failed re-verification is a counterexample of its own type ...
    target = (hopfcheck.campaign, "build_strong_dual_certificates")
    monkeypatch.setattr(*target, failing_builder(CertificateError))
    report = run_campaign(categories=("module",), fields=["F2"])
    types = {c["type"] for c in report.counterexamples}
    assert types == {"certificate_reverification"}
    assert report.certificates["failures"] and not report.ok

    # ... while an unrelated assertion is a bug and surfaces
    monkeypatch.setattr(*target, failing_builder(AssertionError))
    with pytest.raises(AssertionError, match="raised inside the certificate builder"):
        run_campaign(categories=("module",), fields=["F2"])


def test_operations_on_a_module_and_a_comodule_are_refused():
    module = lookup("kC2/Q/regular").payload
    comodule = lookup("kC2/Q/coregular").payload
    identity = Matrix.identity(QQ, 2)
    for a, b in ((module, comodule), (comodule, module)):
        with pytest.raises(TypeError):
            tensor_in_category(a, b)
        with pytest.raises(TypeError):
            hom_in_category(a, b)
        with pytest.raises(TypeError):
            verify_serre(a, b)
        with pytest.raises(TypeError):
            split_retraction(identity, a, b)


def test_unit_object_from_the_faces_is_the_trivial_object():
    for hopf_entry in hopf_entries():
        h = hopf_entry.payload
        module, comodule, yd = (lookup(f"{hopf_entry.id}/{n}").payload for n in ("trivial", "cotrivial", "ydtrivial"))
        assert unit_in_category(module).action == trivial_module(h).action, hopf_entry.id
        assert unit_in_category(comodule).coaction == trivial_comodule(h).coaction, hopf_entry.id
        unit = unit_in_category(yd)
        assert unit.module.action == trivial_yd(h).module.action, hopf_entry.id
        assert unit.comodule.coaction == trivial_yd(h).comodule.coaction, hopf_entry.id


def test_rebuilding_an_object_from_its_faces_changes_no_document():
    checked = 0
    for entry in catalog_entries():
        if entry.kind != "hopf":
            obj = entry.payload
            assert object_to_doc(obj.with_faces(obj.faces, obj.name)) == object_to_doc(obj), entry.id
            checked += 1
    assert checked > 250
