"""Exhaustive sweeps over the catalog: every same-entry pair, not samples.

These are the heavyweight structural invariants; they take a few tens of
seconds together, so they live in their own module.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import comodule_reference as ref
from duality_reference import on_fresh_faces
from semisimple_reference import acting_algebra, spin_algebra
from yd_reference import yd_dual_coaction, yd_tensor_coaction
from hopfcheck.catalog import catalog_entries, hopf_entries, lookup, objects_over, yd_group_line
from hopfcheck.comodules import ComoduleRep, check_comodule_axioms
from hopfcheck.duality import (
    build_strong_dual_certificates,
    coevaluation,
    dual_in_category,
    evaluation,
    hom_in_category,
    tensor_in_category,
    verify_serre,
)
from hopfcheck.hopf import HopfAlgebraData
from hopfcheck.matrix import Matrix
from hopfcheck.modules import ModuleRep, check_module_axioms, dual_module, tensor_modules
from hopfcheck.semisimple import _image_basis, is_semisimple
from hopfcheck.yd import YDModuleRep, check_yd_compat


def _valid_objects(hopf_id, kind):
    return [e for e in objects_over(hopf_id, kind) if e.expected_failure is None]


def test_every_module_tensor_pair_passes_axioms():
    for hopf_entry in hopf_entries():
        for em, en in combinations_with_replacement(_valid_objects(hopf_entry.id, "module"), 2):
            t = tensor_modules(em.payload, en.payload)
            assert check_module_axioms(t).ok, (em.id, en.id)


def test_every_comodule_tensor_pair_passes_axioms():
    for hopf_entry in hopf_entries():
        for em, en in combinations_with_replacement(_valid_objects(hopf_entry.id, "comodule"), 2):
            t = tensor_in_category(em.payload, en.payload)
            assert check_comodule_axioms(on_fresh_faces(t)).ok, (em.id, en.id)


def test_every_yd_tensor_pair_passes_compatibility():
    for hopf_entry in hopf_entries():
        for em, en in combinations_with_replacement(_valid_objects(hopf_entry.id, "yd"), 2):
            t = tensor_in_category(em.payload, en.payload)
            assert check_yd_compat(on_fresh_faces(t)).ok, (em.id, en.id)


def test_every_dual_module_passes_axioms():
    for entry in catalog_entries():
        if entry.kind == "module":
            assert check_module_axioms(dual_module(entry.payload)).ok, entry.id


def test_every_dual_comodule_passes_axioms():
    # the dual coaction is a comodule structure for arbitrary antipodes,
    # involutory or not; this sweep is the executed form of that statement
    for entry in catalog_entries():
        if entry.kind == "comodule":
            assert check_comodule_axioms(dual_in_category(entry.payload)).ok, entry.id


def test_conversion_preserves_hom_dimensions_for_all_pairs():
    for hopf_entry in hopf_entries():
        comodules = _valid_objects(hopf_entry.id, "comodule")
        for em, en in combinations_with_replacement(comodules, 2):
            h = em.payload.hopf
            direct = len(ref.colinear_hom(h, em.payload.coaction, en.payload.coaction))
            converted = len(hom_in_category(em.payload.star_module, en.payload.star_module))
            assert direct == converted, (em.id, en.id)
            # Hom dimension is direction-sensitive in general; check both
            direct_rev = len(ref.colinear_hom(h, en.payload.coaction, em.payload.coaction))
            converted_rev = len(hom_in_category(en.payload.star_module, em.payload.star_module))
            assert direct_rev == converted_rev, (en.id, em.id)


def _comodule_parts():
    """(hopf id, label, comodule) for every catalog comodule and YD comodule part."""
    for hopf_entry in hopf_entries():
        for entry in _valid_objects(hopf_entry.id, "comodule"):
            yield hopf_entry.id, entry.id, entry.payload
        for entry in _valid_objects(hopf_entry.id, "yd"):
            yield hopf_entry.id, entry.id, entry.payload.comodule


def _reference_verdicts(c: ComoduleRep) -> dict:
    return {
        "counit_law": ref.counit_violation(c.hopf, c.coaction) is None,
        "coassociativity": ref.coassociativity_violation(c.hopf, c.coaction) is None,
    }


def test_h_star_route_matches_the_coaction_reference_on_every_comodule():
    # duals, axiom verdicts on the object and on every one-entry corruption
    checked = 0
    for _, label, c in _comodule_parts():
        h = c.hopf
        assert dual_in_category(c).coaction == ref.dual_coaction(h, c.coaction), label
        assert {x.name: x.passed for x in check_comodule_axioms(c).checks} == _reference_verdicts(c), label
        for t in range(h.dim):
            bad = c.coaction
            bad[0][0][t] = h.field.add(bad[0][0][t], h.field.one())
            broken = ComoduleRep(h, c.dim, bad, name="broken")
            verdicts = {x.name: x.passed for x in check_comodule_axioms(broken).checks}
            assert verdicts == _reference_verdicts(broken), (label, t)
            checked += 1
    assert checked > 300


def test_h_star_route_matches_the_coaction_reference_on_every_pair():
    # tensor coactions and Hom bases in both directions, equal entry for entry
    pairs = 0
    by_hopf: dict = {}
    for hid, label, c in _comodule_parts():
        by_hopf.setdefault(hid, []).append((label, c))
    for members in by_hopf.values():
        for (la, a), (lb, b) in combinations_with_replacement(members, 2):
            h = a.hopf
            assert tensor_in_category(a, b).coaction == ref.tensor_coaction(h, a.coaction, b.coaction), (la, lb)
            assert hom_in_category(a, b) == ref.colinear_hom(h, a.coaction, b.coaction), (la, lb)
            assert hom_in_category(b, a) == ref.colinear_hom(h, b.coaction, a.coaction), (lb, la)
            pairs += 1
    assert pairs > 300


def test_yd_constructions_match_the_coaction_reference():
    for hopf_entry in hopf_entries():
        yds = _valid_objects(hopf_entry.id, "yd")
        for entry in yds:
            y = entry.payload
            assert dual_in_category(y).comodule.coaction == yd_dual_coaction(y.hopf, y.comodule.coaction), entry.id
        for em, en in combinations_with_replacement(yds, 2):
            a, b = em.payload.comodule, en.payload.comodule
            got = tensor_in_category(em.payload, en.payload).comodule.coaction
            assert got == yd_tensor_coaction(a.hopf, a.coaction, b.coaction), (em.id, en.id)


def test_rank_one_yd_lines_match_the_conjugation_criterion():
    # over a group algebra a line of degree g with a character action is a
    # valid YD object exactly when g is fixed by conjugation, i.e. central
    centers = {"kC2": {0, 1}, "kC3": {0, 1, 2}, "kC4": {0, 1, 2, 3}, "kS3": {0}}
    characters = {
        "kC2": [[1, 1], [1, -1]],
        "kC3": [[1, 1, 1]],
        "kC4": [[1, 1, 1, 1], [1, -1, 1, -1]],
        "kS3": [[1] * 6, None],  # the sign character is filled in below
    }
    sign = [1 if i in (0, 4, 5) else -1 for i in range(6)]  # identity and the 3-cycles are even
    characters["kS3"][1] = sign
    for group, center in centers.items():
        for field_name in ("Q", "F3"):
            h = lookup(f"{group}/{field_name}").payload
            for degree in range(h.dim):
                for chi in characters[group]:
                    line = yd_group_line(h, degree, chi, f"sweep_{degree}")
                    verdict = check_yd_compat(line).ok
                    assert verdict == (degree in center), (group, field_name, degree, chi)


def test_pairing_identity_for_yd_objects():
    for entry in catalog_entries():
        if entry.kind != "yd" or entry.expected_failure:
            continue
        obj = entry.payload
        got = (evaluation(obj) * coevaluation(obj)).entries[0][0]
        assert got == obj.field.from_int(obj.dim), entry.id


def test_radical_certificates_trace_orthogonal_in_every_characteristic():
    for mid in ("kC2/F2/regular", "kC3/F3/regular", "kS3/F2/regular", "H4/Q/regular", "H4/F5/regular"):
        m = lookup(mid).payload
        report = is_semisimple(m)
        algebra = acting_algebra(m)
        zero = m.field.zero()
        for r in report.radical_basis:
            for b in algebra:
                assert (r * b).power(m.dim).is_zero(), mid  # two-sided nil products
                for c in algebra:
                    assert ((r * b) * c).trace() == zero, mid

def _engine_and_spin(obj, kind):
    """The engine's image basis and the reference spin of the same object."""
    if kind == "module":
        return acting_algebra(obj), spin_algebra(obj.field, obj.dim, obj.action)
    if kind == "comodule":
        star = obj.star_module
        return acting_algebra(star), spin_algebra(obj.field, obj.dim, star.action)
    both = list(obj.module.action) + obj.comodule.star_module.action
    return _image_basis(obj.field, obj.dim, obj.double_action), spin_algebra(obj.field, obj.dim, both)


def test_image_basis_equals_the_spin_on_every_object_and_campaign_pair():
    # the span of a module's operators (H, H* or D(H)) is already closed
    # under products, so the engine's plain span must equal the closure
    compared = 0
    for hopf_entry in hopf_entries():
        for kind in ("module", "comodule", "yd"):
            valid = _valid_objects(hopf_entry.id, kind)
            objects = [(e.id, e.payload) for e in valid]
            objects += [
                (f"{a.id} (x) {b.id}", tensor_in_category(a.payload, b.payload))
                for a, b in combinations_with_replacement(valid, 2)
            ]
            for label, obj in objects:
                engine, spin = _engine_and_spin(obj, kind)
                assert engine == spin, label
                compared += 1
    assert compared > 500  # not vacuous: 836 objects and pairs today


# Q scalars: ints when integral, Fractions otherwise, never floats --------------------

KINDS = ("module", "comodule", "yd")


def _stored_matrices(obj) -> list[Matrix]:
    """The matrices an object keeps: its H-action, its H*-action, or both."""
    if isinstance(obj, YDModuleRep):
        return obj.module.action + obj.comodule.star_module.action
    if isinstance(obj, ComoduleRep):
        return obj.star_module.action
    return obj.action


def test_no_rational_scalar_is_a_float():
    # an int / int anywhere in the Q path would leave a float in one of these;
    # built from integer constants by products alone, objects, duals and
    # tensor squares must stay all-int
    types = set()
    for hopf_entry in hopf_entries(("Q",)):
        h = hopf_entry.payload
        for kind in KINDS:
            for entry in _valid_objects(hopf_entry.id, kind):
                obj = entry.payload
                mats = _stored_matrices(obj) + _stored_matrices(dual_in_category(obj))
                mats += _stored_matrices(tensor_in_category(obj, obj))
                assert {type(x) for m in mats for x in m.flatten()} == {int}, entry.id
                mats += is_semisimple(obj).radical_basis
                if h.is_involutory():
                    for cert in build_strong_dual_certificates(obj):
                        mats += [cert.mono, cert.retraction]
                found = {type(x) for m in mats for x in m.flatten()}
                assert found <= {int, Fraction}, (entry.id, found)
                types |= found
    assert types == {int, Fraction}  # not vacuous: retractions carry 1/dim


def _as_fractions(m: Matrix) -> Matrix:
    return Matrix(m.field, m.rows, m.cols, [[Fraction(x) for x in row] for row in m.entries])


def _hopf_as_fractions(h: HopfAlgebraData) -> HopfAlgebraData:
    def tensor(t):
        return [[[Fraction(x) for x in cell] for cell in slab] for slab in t]

    return HopfAlgebraData(
        h.field,
        h.dim,
        tensor(h.mult),
        [Fraction(x) for x in h.unit],
        tensor(h.comult),
        [Fraction(x) for x in h.counit],
        _as_fractions(h.antipode),
        name=h.name,
    )


def _object_as_fractions(obj, h: HopfAlgebraData):
    """The same object over ``h`` with every stored scalar a ``Fraction``."""
    if isinstance(obj, YDModuleRep):
        return YDModuleRep(_object_as_fractions(obj.module, h), _object_as_fractions(obj.comodule, h), name=obj.name)
    if isinstance(obj, ComoduleRep):
        star = ModuleRep(h.dual_algebra(), obj.dim, [_as_fractions(a) for a in obj.star_module.action], name=obj.name)
        return ComoduleRep.over_dual(h, star, name=obj.name)
    return ModuleRep(h, obj.dim, [_as_fractions(a) for a in obj.action], name=obj.name)


def test_fraction_wrapped_objects_get_the_same_reports_and_verdicts():
    # int and Fraction(int) must be interchangeable everywhere: the same
    # report for every Q object and the same verdict for every same-kind pair,
    # with both factors wrapped and with one of each
    pairs = 0
    for hopf_entry in hopf_entries(("Q",)):
        wrapped_hopf = _hopf_as_fractions(hopf_entry.payload)
        for kind in KINDS:
            objects = [(e.payload, _object_as_fractions(e.payload, wrapped_hopf)) for e in _valid_objects(hopf_entry.id, kind)]
            for obj, wrapped in objects:
                assert type(_stored_matrices(wrapped)[0].entries[0][0]) is Fraction
                assert is_semisimple(wrapped).to_doc() == is_semisimple(obj).to_doc(), obj.name
            for (m, wm), (n, wn) in combinations_with_replacement(objects, 2):
                expected = verify_serre(m, n)
                assert verify_serre(wm, wn) == expected, (m.name, n.name)
                assert verify_serre(wm, n) == expected, (m.name, n.name)
                pairs += 1
    assert pairs > 100
