from fractions import Fraction

import pytest

from duality_reference import on_fresh_faces
from yd_reference import compat_violation_reference
from hopfcheck.catalog import catalog_entries, lookup, yd_group_line
from hopfcheck.comodules import ComoduleRep
from hopfcheck.duality import dual_in_category, hom_in_category, tensor_in_category
from hopfcheck.errors import HopfMismatchError
from hopfcheck.matrix import Matrix
from hopfcheck.modules import ModuleRep, tensor_modules
from hopfcheck.yd import YDModuleRep, check_yd_compat, trivial_yd


def test_trivial_yd_passes_over_every_hopf():
    for hid in ("kC2/Q", "kC4/F2", "kdS3/F3", "H4/Q", "H4/F5"):
        assert check_yd_compat(trivial_yd(lookup(hid).payload)).ok, hid


def test_line_with_sign_action_passes():
    assert check_yd_compat(lookup("kC2/Q/ydline_g_sign").payload).ok


def test_incompatible_line_fails_compatibility_only():
    report = check_yd_compat(lookup("kS3/Q/ydbadline").payload)
    failed = {c.name for c in report.failures()}
    assert failed == {"yd_compatibility"}
    # (b_2, f_4): the first algebra basis element and dual functional at
    # which the straightening identity fails
    assert report.failures()[0].first_violation == (2, 4)


def _first_i(y):
    """The b_i of the first violation of the compatibility law, or None."""
    (check,) = [c for c in check_yd_compat(y).checks if c.name == "yd_compatibility"]
    return check.first_violation and check.first_violation[0]


def _reference_first_i(y):
    # the law fails at b_i for some (i, a) exactly when it fails for some
    # (i, t), so both checks stop at the same i
    violation = compat_violation_reference(y)
    return violation and violation[0]


def _yd_objects():
    return [entry for entry in catalog_entries() if entry.kind == "yd"]


def test_straightening_check_agrees_with_the_coefficient_loop_on_the_catalog():
    entries = _yd_objects()
    assert len(entries) == 79
    for entry in entries:
        assert _first_i(entry.payload) == _reference_first_i(entry.payload), entry.id


def _single_entry_corruptions(y):
    """y with one action or coaction entry raised by 1, every such entry."""
    h, field, dim = y.hopf, y.field, y.dim
    for k in range(h.dim):
        for r in range(dim):
            for c in range(dim):
                action = [Matrix(field, dim, dim, [row[:] for row in a.entries]) for a in y.module.action]
                action[k].entries[r][c] = field.add(action[k].entries[r][c], field.one())
                yield YDModuleRep(ModuleRep(h, dim, action), y.comodule)
    coaction = y.comodule.coaction
    for a in range(dim):
        for b in range(dim):
            for t in range(h.dim):
                cells = [[cell[:] for cell in row] for row in coaction]
                cells[a][b][t] = field.add(cells[a][b][t], field.one())
                yield YDModuleRep(y.module, ComoduleRep(h, dim, cells))


def test_straightening_check_agrees_with_the_coefficient_loop_on_corruptions():
    checked = failing = 0
    for entry in _yd_objects():
        for bad in _single_entry_corruptions(entry.payload):
            want = _reference_first_i(bad)
            assert _first_i(bad) == want, entry.id
            checked += 1
            failing += want is not None
    assert (checked, failing) == (1074, 557)


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
        assert check_yd_compat(on_fresh_faces(tensor_in_category(lookup(a).payload, lookup(b).payload))).ok, (a, b)


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

    pairs = [
        ("kS3/Q/ydconj3", "kS3/Q/ydconj3"),
        ("kC2/F2/ydnonsplit2", "kC2/F2/ydnonsplit2"),
        ("kC2/Q/ydline_g_triv", "kC2/Q/ydline_g_sign"),
    ]
    for a, b in pairs:
        ya, yb = lookup(a).payload, lookup(b).payload
        joint = len(hom_in_category(ya, yb))
        mod = len(hom_in_category(ya.module, yb.module))
        comod = len(colinear_hom(ya.hopf, ya.comodule.coaction, yb.comodule.coaction))
        assert joint <= min(mod, comod), (a, b)
