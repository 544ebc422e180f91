from fractions import Fraction

import pytest

from hopfcheck.catalog import lookup
from comodule_reference import colinear_hom
from duality_reference import on_fresh_faces
from hopfcheck.comodules import ComoduleRep, check_comodule_axioms, trivial_comodule
from hopfcheck.duality import dual_in_category, hom_in_category, tensor_in_category
from hopfcheck.errors import HopfMismatchError
from hopfcheck.fields import QQ
from hopfcheck.modules import check_module_axioms, regular_module


def test_trivial_comodule_axioms():
    for hid in ("kC2/Q", "kdS3/F2", "H4/F5"):
        assert check_comodule_axioms(trivial_comodule(lookup(hid).payload)).ok


def test_regular_comodule_axioms():
    assert check_comodule_axioms(lookup("kC2/Q/coregular").payload).ok


def test_corrupted_counit_row_fails():
    c = lookup("kC2/Q/coregular").payload
    bad_coaction = [[cell[:] for cell in row] for row in c.coaction]
    bad_coaction[0][0][0] = Fraction(0)
    bad = ComoduleRep(c.hopf, c.dim, bad_coaction, name="bad")
    report = check_comodule_axioms(bad)
    assert not report.ok
    assert "counit_law" in {x.name for x in report.failures()}


def test_check_names_are_the_comodule_axioms():
    report = check_comodule_axioms(lookup("kS3/F2/coregular").payload)
    assert [c.name for c in report.checks] == ["counit_law", "coassociativity"]
    assert report.subject == "coregular"


def test_coaction_view_round_trips():
    for cid in ("kS3/Q/coregular", "kdC3/F3/corot2", "H4/F5/coregular"):
        c = lookup(cid).payload
        again = ComoduleRep(c.hopf, c.dim, c.coaction, name=c.name)
        assert again.star_module.action == c.star_module.action, cid
        assert again.coaction == c.coaction, cid


def test_over_dual_rejects_a_module_over_h_itself():
    h = lookup("kS3/Q").payload  # not isomorphic to its dual as an algebra
    with pytest.raises(HopfMismatchError):
        ComoduleRep.over_dual(h, regular_module(h))


def test_tensor_with_trivial_keeps_coaction():
    c = lookup("kS3/Q/coregular").payload
    t = tensor_in_category(trivial_comodule(c.hopf), c)
    assert t.coaction == c.coaction


def test_graded_lines_multiply_degrees():
    line = lookup("kC2/Q/coline_g").payload
    square = tensor_in_category(line, line)
    # degree g * g = e: the H-leg of the coaction is the basis element e
    assert square.dim == 1
    assert square.coaction[0][0] == [Fraction(1), Fraction(0)]


def test_tensor_dimensions_multiply():
    a = lookup("kS3/Q/coregular").payload
    b = lookup("kS3/Q/coline_t").payload
    assert tensor_in_category(a, b).dim == 6


def test_tensor_comodules_axioms():
    pairs = [
        ("kC2/F2/coregular", "kC2/F2/coline_g"),
        ("kS3/F3/coregular", "kS3/F3/coline_c"),
        ("H4/Q/coregular", "H4/Q/cotrivial"),
        ("kdC2/F2/cononsplit2", "kdC2/F2/coregular"),
    ]
    for a, b in pairs:
        t = tensor_in_category(lookup(a).payload, lookup(b).payload)
        assert check_comodule_axioms(on_fresh_faces(t)).ok, (a, b)


def test_tensor_comodule_associativity_exact():
    a = lookup("kC2/Q/coline_g").payload
    b = lookup("kC2/Q/coregular").payload
    left = tensor_in_category(tensor_in_category(a, b), b)
    right = tensor_in_category(a, tensor_in_category(b, b))
    assert left.coaction == right.coaction


def test_tensor_rejects_mismatched_hopfs():
    with pytest.raises(HopfMismatchError):
        tensor_in_category(lookup("kC2/Q/coregular").payload, lookup("kC3/Q/coregular").payload)


def test_dual_of_trivial_comodule_is_trivial():
    for hid in ("kC2/Q", "kS3/F2", "H4/Q"):
        c = trivial_comodule(lookup(hid).payload)
        assert dual_in_category(c).coaction == c.coaction, hid


def test_dual_of_degree_line_is_inverse_degree():
    line = lookup("kC2/Q/coline_g").payload
    dual = dual_in_category(line)
    # S(g) = g^-1 = g for an involution
    assert dual.coaction == line.coaction


def test_dual_comodule_axioms_hold_even_for_sweedler():
    for cid in ("H4/Q/coregular", "H4/F5/coregular", "kS3/F2/coregular"):
        assert check_comodule_axioms(dual_in_category(lookup(cid).payload)).ok, cid


def test_double_dual_comodule_for_involutory():
    for cid in ("kC2/Q/coline_g", "kS3/F3/coregular", "kdC2/F2/cononsplit2"):
        c = lookup(cid).payload
        assert dual_in_category(dual_in_category(c)).coaction == c.coaction, cid


def test_trivial_comodule_converts_to_counit_of_dual():
    h = lookup("kC2/Q").payload
    converted = trivial_comodule(h).star_module
    # the t-th dual basis functional acts by its value on the unit
    for t in range(h.dim):
        assert converted.action[t].entries == [[h.unit[t]]]


def test_regular_comodule_converts_to_regular_dual_module():
    h = lookup("kC2/Q").payload
    converted = lookup("kC2/Q/coregular").payload.star_module
    dual = h.dual_algebra()
    assert converted.action == dual.regular_action_matrices()


def test_converted_modules_pass_axioms():
    for cid in ("kC2/F2/coregular", "kS3/Q/coline_t", "kdC2/F2/cononsplit2", "H4/Q/coregular"):
        converted = lookup(cid).payload.star_module
        assert check_module_axioms(converted).ok, cid


def test_colinear_hom_trivial_to_trivial():
    triv = lookup("kC2/Q/cotrivial").payload
    assert len(hom_in_category(triv, triv)) == 1


def test_colinear_hom_between_distinct_degrees_is_zero():
    triv = lookup("kC2/Q/cotrivial").payload
    line = lookup("kC2/Q/coline_g").payload
    assert hom_in_category(triv, line) == []


def test_colinear_hom_matches_converted_module_hom():
    pairs = [
        ("kC2/Q/cotrivial", "kC2/Q/coregular"),
        ("kS3/F2/coline_t", "kS3/F2/coregular"),
        ("kdC2/F2/cononsplit2", "kdC2/F2/coregular"),
        ("H4/Q/coregular", "H4/Q/coregular"),
    ]
    for a, b in pairs:
        ca, cb = lookup(a).payload, lookup(b).payload
        direct = colinear_hom(ca.hopf, ca.coaction, cb.coaction)
        assert hom_in_category(ca, cb) == direct, (a, b)


def test_colinearity_defining_equation():
    a = lookup("kS3/Q/coline_t").payload
    b = lookup("kS3/Q/coregular").payload
    h = a.hopf
    for g in hom_in_category(a, b):
        for aa in range(a.dim):
            for c in range(b.dim):
                for t in range(h.dim):
                    lhs = sum(
                        (b.coaction[bb][c][t] * g.entries[bb][aa] for bb in range(b.dim)),
                        start=QQ.zero(),
                    )
                    rhs = sum(
                        (a.coaction[aa][b2][t] * g.entries[c][b2] for b2 in range(a.dim)),
                        start=QQ.zero(),
                    )
                    assert lhs == rhs
