"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Everything is exact arithmetic, so every comparison
is equality; runtime ceilings are asserted where stated.
"""

import hashlib
import os
import time
from fractions import Fraction

import pytest

from duality_reference import unit_in_category
from hopf_reference import (
    antipode_violation,
    associativity_violation,
    coassociativity_violation,
    comult_multiplicative_violation,
    comult_unit_violation,
    counit_multiplicative_violation,
    counit_unit_violation,
    counit_violation,
)
from hopfcheck.campaign import run_campaign
from hopfcheck.catalog import catalog_entries, lookup
from hopfcheck.documents import canonical_json, hopf_from_doc, hopf_to_doc
from hopfcheck.duality import (
    build_strong_dual_certificates,
    coevaluation,
    dual_in_category,
    evaluation,
    is_morphism,
    tensor_in_category,
)
from hopfcheck.errors import RankNotInvertibleError
from hopfcheck.modules import dual_module
from hopfcheck.semisimple import brute_force_semisimple, is_semisimple


def _report(number: int, message: str):
    print(f"ACCEPTANCE {number} PASS: {message}")


def _hopf_entries():
    return [e for e in catalog_entries() if e.kind == "hopf"]


def test_criterion_1_axiom_suite_and_involutory_flags():
    start = time.time()
    for entry in _hopf_entries():
        assert entry.payload.check_hopf_axioms().ok, entry.id
        expected_involutory = not entry.id.startswith("H4/")
        assert entry.payload.is_involutory() == expected_involutory, entry.id
    # the square of the antipode negates x on the Sweedler entries
    for hid in ("H4/Q", "H4/F5"):
        h = lookup(hid).payload
        s2 = h.antipode * h.antipode
        minus_one = h.field.neg(h.field.one())
        assert s2.entries[2][2] == minus_one, hid
    elapsed = time.time() - start
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    _report(1, f"{len(_hopf_entries())} Hopf entries, all axioms pass, involutory flags exact, {elapsed:.2f}s")


def test_criterion_2_pairing_identity_everywhere():
    instances = 0
    for entry in catalog_entries():
        if entry.kind not in ("module", "comodule") or entry.expected_failure:
            continue
        obj = entry.payload
        got = (evaluation(obj) * coevaluation(obj)).entries[0][0]
        assert got == obj.field.from_int(obj.dim), entry.id
        instances += 1
    assert instances >= 40
    _report(2, f"pairing composition equals dim*1 exactly on {instances} (co)modules")


# the frozen non-involutory witnesses: the canonical maps stop being
# equivariant exactly on these fixtures
EXPECTED_EV_WITNESSES = {
    "H4/F5/coregular",
    "H4/F5/h4mod2",
    "H4/F5/regular",
    "H4/Q/coregular",
    "H4/Q/h4mod2",
    "H4/Q/regular",
}


def test_criterion_3_equivariance_dichotomy():
    coev_checked = 0
    ev_failures = set()
    for entry in catalog_entries():
        if entry.expected_failure:
            continue
        involutory = not entry.id.startswith("H4/")
        if entry.kind not in ("module", "comodule"):
            continue
        # for a comodule, a morphism is a colinear map
        obj = entry.payload
        unit = unit_in_category(obj)
        square = tensor_in_category(obj, dual_in_category(obj))
        assert is_morphism(coevaluation(obj), unit, square), entry.id
        coev_checked += 1
        if is_morphism(evaluation(obj), square, unit):
            continue
        assert not involutory, f"evaluation equivariance failed on involutory {entry.id}"
        ev_failures.add(entry.id)
    assert ev_failures == EXPECTED_EV_WITNESSES
    _report(
        3,
        f"coevaluation side exact on {coev_checked} objects incl. the non-involutory entries; "
        f"evaluation side fails exactly on {sorted(ev_failures)}",
    )


def test_criterion_4_strong_dual_certificates():
    built = 0
    refused = 0
    for entry in catalog_entries():
        if entry.kind == "hopf" or entry.expected_failure:
            continue
        hopf_id = "/".join(entry.id.split("/")[:2])
        if entry.id.startswith("H4/"):
            continue  # non-involutory entries are covered by their own error test
        obj = entry.payload
        field = obj.field
        divides = field.characteristic != 0 and obj.dim % field.characteristic == 0
        if divides:
            with pytest.raises(RankNotInvertibleError):
                build_strong_dual_certificates(obj)
            refused += 1
        else:
            right, left = build_strong_dual_certificates(obj)
            # construction checks coev and ev on one vector; re-check both
            # certificates from scratch on the built squares
            unit, dual = unit_in_category(obj), dual_in_category(obj)
            assert right.verify(unit, tensor_in_category(obj, dual)), entry.id
            assert left.verify(unit, tensor_in_category(dual, obj)), entry.id
            built += 1
    assert built > 0 and refused > 0
    _report(4, f"{built} certificate pairs built and re-verified on the squares; {refused} refusals with non-invertible rank")


def test_criterion_5_engine_matches_oracle():
    start = time.time()
    agreements = 0
    for entry in catalog_entries():
        if entry.kind != "module":
            continue
        field_name = entry.id.split("/")[1]
        if field_name not in ("F2", "F3", "F5"):
            continue
        m = entry.payload
        if m.field.characteristic ** m.dim > 6561:
            continue
        assert is_semisimple(m).verdict == brute_force_semisimple(m), entry.id
        agreements += 1
    elapsed = time.time() - start
    assert agreements >= 25
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.2f}s"
    _report(5, f"radical engine agrees with the brute-force oracle on {agreements}/{agreements} modules in {elapsed:.1f}s")


def test_criterion_6_maschke_consistency():
    orders = {"kC2": 2, "kC3": 3, "kC4": 4, "kS3": 6}
    checked = 0
    for entry in catalog_entries():
        if entry.kind != "module" or not entry.id.endswith("/regular"):
            continue
        group = entry.id.split("/")[0]
        if group not in orders:
            continue
        p = entry.payload.field.characteristic
        expected = p == 0 or orders[group] % p != 0
        assert is_semisimple(entry.payload).verdict == expected, entry.id
        checked += 1
    assert checked == 20  # four groups over five fields
    _report(6, f"regular k[G] semisimple iff char does not divide |G|: {checked} instances, 0 mismatches")


# sha256 of the canonical default campaign report minus wall_time: code
# under the campaign may be restructured, the report may not change
EXPECTED_REPORT_SHA256 = os.path.join(os.path.dirname(__file__), "campaign_report.sha256")


def test_criterion_7_serre_campaign():
    start = time.time()
    report = run_campaign()
    elapsed = time.time() - start
    assert report.pairs_checked >= 200
    assert report.counterexamples == []
    assert report.axiom_failures == []
    for verdict in report.serre_verdicts:
        if verdict.involutory:
            assert verdict.consistent, verdict.to_doc()
    assert elapsed < 600.0
    # determinism: a second run produces the identical report, wall time aside
    second = run_campaign()
    doc_a, doc_b = report.to_doc(), second.to_doc()
    doc_a.pop("wall_time")
    doc_b.pop("wall_time")
    assert doc_a == doc_b
    with open(EXPECTED_REPORT_SHA256, encoding="utf-8") as fh:
        expected = fh.read().strip()
    assert hashlib.sha256(canonical_json(doc_a).encode("utf-8")).hexdigest() == expected
    _report(
        7,
        f"{report.pairs_checked} tensor pairs over {len(report.field_list)} fields in {elapsed:.1f}s, "
        f"0 counterexamples, deterministic report equal to the recorded one",
    )


# the same pin for the oracle campaign over the four prime fields
EXPECTED_ORACLE_REPORT_SHA256 = os.path.join(os.path.dirname(__file__), "campaign_oracle_report.sha256")


def test_oracle_campaign_report_equals_the_recorded_one():
    start = time.time()
    report = run_campaign(fields=["F2", "F3", "F5", "F7"], oracle=True)
    elapsed = time.time() - start
    doc = report.to_doc()
    doc.pop("wall_time")
    with open(EXPECTED_ORACLE_REPORT_SHA256, encoding="utf-8") as fh:
        expected = fh.read().strip()
    assert hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest() == expected
    print(
        f"oracle campaign: {report.oracle['checked']} oracle agreements, "
        f"{len(report.oracle['skipped_bound_exceeded'])} skipped, report equal to the recorded one in {elapsed:.1f}s"
    )


def test_criterion_8_double_dual_is_identity_for_involutory():
    checked = 0
    for entry in catalog_entries():
        if entry.kind == "hopf" or entry.expected_failure or entry.id.startswith("H4/"):
            continue
        obj = entry.payload
        if entry.kind == "module":
            assert dual_module(dual_module(obj)).action == obj.action, entry.id
        elif entry.kind == "comodule":
            assert dual_in_category(dual_in_category(obj)).coaction == obj.coaction, entry.id
        else:
            dd = dual_in_category(dual_in_category(obj))
            assert dd.module.action == obj.module.action, entry.id
            assert dd.comodule.coaction == obj.comodule.coaction, entry.id
        checked += 1
    _report(8, f"double dual is the exact identity on {checked} objects over involutory entries")


def _corrupted_copies(doc):
    """Every single-structure-constant corruption of a Hopf document."""
    import json

    base = json.dumps(doc)
    for part, dims in (("mult", 3), ("comult", 3), ("unit", 1), ("counit", 1), ("antipode", 2)):
        if dims == 3:
            for i, slab in enumerate(doc[part]):
                for j, row in enumerate(slab):
                    for t in range(len(row)):
                        copy = json.loads(base)
                        copy[part][i][j][t] = _bump(copy[part][i][j][t])
                        yield f"{part}[{i}][{j}][{t}]", copy
        elif dims == 2:
            for i, row in enumerate(doc[part]):
                for j in range(len(row)):
                    copy = json.loads(base)
                    copy[part][i][j] = _bump(copy[part][i][j])
                    yield f"{part}[{i}][{j}]", copy
        else:
            for i in range(len(doc[part])):
                copy = json.loads(base)
                copy[part][i] = _bump(copy[part][i])
                yield f"{part}[{i}]", copy


def _bump(value):
    if isinstance(value, str):
        return str(Fraction(value) + 1)
    return value + 1


# the direct loops on the structure constants that the H*-side and module
# checks replace; H's unit law is checked by such a loop in the package itself
REFERENCE_CHECKS = {
    "associativity": associativity_violation,
    "coassociativity": coassociativity_violation,
    "counit": counit_violation,
    "comult_multiplicative": comult_multiplicative_violation,
    "comult_unit": comult_unit_violation,
    "counit_multiplicative": counit_multiplicative_violation,
    "counit_unit": counit_unit_violation,
    "antipode_left": lambda h: antipode_violation(h, left=True),
    "antipode_right": lambda h: antipode_violation(h, left=False),
}
# read off R, which is faithful once H is associative and unital
FAITHFUL_LAWS = ("antipode_left", "antipode_right")
# exact restatements that keep the reference's index
SAME_INDEX = ("associativity", "comult_unit", "counit_multiplicative", "counit_unit")
# exact restatements whose index is the (i, j) leading the reference's
PAIR_INDEX = ("comult_multiplicative",)


def test_criterion_9_fault_injection(serre_fault):
    corruptions = 0
    # kS3/F3 is generated by b_1 and b_2, so its laws closed under products
    # are checked on those rows first and fall back to the full scan
    for hid in ("kC2/Q", "kC2/F2", "H4/Q", "kdC3/F2", "H4/F5", "kC4/F3", "kS3/F3"):
        doc = hopf_to_doc(lookup(hid).payload)
        for position, bad_doc in _corrupted_copies(doc):
            damaged = hopf_from_doc(bad_doc)
            report = damaged.check_hopf_axioms()
            assert not report.ok, f"{hid} corruption at {position} not caught"
            checks = {c.name: c for c in report.checks}
            want = {name: reference(damaged) for name, reference in REFERENCE_CHECKS.items()}
            assert report.ok == (checks["unit"].passed and all(v is None for v in want.values())), position
            faithful = checks["unit"].passed and want["associativity"] is None
            for name, violation in want.items():
                if faithful or name not in FAITHFUL_LAWS:
                    assert checks[name].passed == (violation is None), f"{hid} corruption at {position}: {name}"
            for name in SAME_INDEX:
                assert checks[name].first_violation == want[name], f"{hid} corruption at {position}: {name}"
            for name in PAIR_INDEX:
                pair = want[name] and want[name][:2]
                assert checks[name].first_violation == pair, f"{hid} corruption at {position}: {name}"
            corruptions += 1

    # a corrupted semisimplicity verdict must surface as a campaign failure
    faulted = run_campaign(categories=("module",), fields=("F2",))
    assert len(serre_fault) == 1
    assert not faulted.ok
    assert any(c["type"] == "serre_inconsistency" for c in faulted.counterexamples)
    _report(9, f"all {corruptions} single-constant corruptions caught; injected verdict fault fails the campaign")
