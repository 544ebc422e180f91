from fractions import Fraction

import pytest

from hopfcheck.catalog import lookup, yd_group_line
from hopfcheck.duality import dual_in_category, hom_in_category, tensor_in_category
from hopfcheck.errors import HopfMismatchError
from hopfcheck.modules import tensor_modules
from hopfcheck.yd import check_yd_compat, trivial_yd


def test_trivial_yd_passes_over_every_hopf():
    for hid in ("kC2/Q", "kC4/F2", "kdS3/F3", "H4/Q", "H4/F5"):
        assert check_yd_compat(trivial_yd(lookup(hid).payload)).ok, hid


def test_line_with_sign_action_passes():
    assert check_yd_compat(lookup("kC2/Q/ydline_g_sign").payload).ok


def test_incompatible_line_fails_compatibility_only():
    report = check_yd_compat(lookup("kS3/Q/ydbadline").payload)
    failed = {c.name for c in report.failures()}
    assert failed == {"yd_compatibility"}


def test_noncentral_degree_with_trivial_character_fails_on_any_symmetric_group_entry():
    h = lookup("kS3/F5").payload
    bad = yd_group_line(h, 1, [1] * h.dim, "tmp")
    assert not check_yd_compat(bad).ok


def test_tensor_with_trivial_preserves_everything():
    y = lookup("kC2/Q/ydline_g_sign").payload
    t = tensor_in_category(trivial_yd(y.hopf), y)
    assert t.module.action == y.module.action
    assert t.comodule.coaction == y.comodule.coaction


def test_tensor_of_two_sign_lines_squares_away():
    y = lookup("kC2/Q/ydline_g_sign").payload
    t = tensor_in_category(y, y)
    # degrees multiply to e and the scalars multiply to +1
    assert t.comodule.coaction[0][0] == [Fraction(1), Fraction(0)]
    assert [a.entries[0][0] for a in t.module.action] == [1, 1]


def test_tensor_compat_for_catalog_pairs():
    pairs = [
        ("kC2/F2/ydnonsplit2", "kC2/F2/ydline_g_triv"),
        ("kS3/F3/ydconj3", "kS3/F3/ydline_e_sign"),
        ("kC4/Q/ydline_g_chi2", "kC4/Q/ydline_g_triv"),
        ("kS3/Q/ydconj3", "kS3/Q/ydconj3"),
    ]
    for a, b in pairs:
        assert check_yd_compat(tensor_in_category(lookup(a).payload, lookup(b).payload)).ok, (a, b)


def test_tensor_rejects_mismatched_hopfs():
    with pytest.raises(HopfMismatchError):
        tensor_in_category(lookup("kC2/Q/ydtrivial").payload, lookup("kC3/Q/ydtrivial").payload)


def test_forgetting_commutes_with_tensoring():
    a = lookup("kS3/Q/ydconj3").payload
    b = lookup("kS3/Q/ydline_e_sign").payload
    t = tensor_in_category(a, b)
    assert t.module.action == tensor_modules(a.module, b.module).action
    assert t.comodule.coaction == tensor_in_category(a.comodule, b.comodule).coaction


def test_dual_of_trivial_yd_is_trivial():
    y = trivial_yd(lookup("kS3/Q").payload)
    d = dual_in_category(y)
    assert d.module.action == y.module.action
    assert d.comodule.coaction == y.comodule.coaction


def test_dual_of_sign_line_is_itself():
    y = lookup("kC2/Q/ydline_g_sign").payload
    d = dual_in_category(y)
    assert d.module.action == y.module.action
    assert d.comodule.coaction == y.comodule.coaction


def test_dual_compat_on_involutory_catalog():
    for yid in (
        "kC2/Q/ydline_g_sign",
        "kC2/F2/ydnonsplit2",
        "kS3/F2/ydconj3",
        "kC4/F5/ydline_g_chi2",
    ):
        assert check_yd_compat(dual_in_category(lookup(yid).payload)).ok, yid


def test_double_dual_yd_for_involutory():
    y = lookup("kS3/Q/ydconj3").payload
    dd = dual_in_category(dual_in_category(y))
    assert dd.module.action == y.module.action
    assert dd.comodule.coaction == y.comodule.coaction


def test_yd_hom_line_with_itself():
    y = lookup("kC2/Q/ydline_g_sign").payload
    assert len(hom_in_category(y, y)) == 1


def test_yd_hom_between_different_degrees_is_zero():
    a = lookup("kC2/Q/ydline_g_sign").payload
    b = lookup("kC2/Q/ydline_e_sign").payload
    assert hom_in_category(a, b) == []


def test_yd_hom_is_intersection_of_the_two_hom_spaces():
    from comodule_reference import colinear_hom
    from hopfcheck.modules import hom_space

    pairs = [
        ("kS3/Q/ydconj3", "kS3/Q/ydconj3"),
        ("kC2/F2/ydnonsplit2", "kC2/F2/ydnonsplit2"),
        ("kC2/Q/ydline_g_triv", "kC2/Q/ydline_g_sign"),
    ]
    for a, b in pairs:
        ya, yb = lookup(a).payload, lookup(b).payload
        joint = len(hom_in_category(ya, yb))
        mod = len(hom_space(ya.module, yb.module))
        comod = len(colinear_hom(ya.hopf, ya.comodule.coaction, yb.comodule.coaction))
        assert joint <= min(mod, comod), (a, b)
