import hashlib
import os

import pytest

from hopfcheck import catalog, cli
from hopfcheck.campaign import run_campaign
from hopfcheck.catalog import HOPF_IDS, catalog_entries, hopf_entries, lookup, objects_over
from hopfcheck.comodules import check_comodule_axioms
from hopfcheck.documents import canonical_json, object_to_doc
from hopfcheck.duality import axioms_in_category
from hopfcheck.fields import GF, QQ
from hopfcheck.hopf import AlgebraData, HopfAlgebraData
from hopfcheck.modules import check_module_axioms
from hopfcheck.semisimple import brute_force_semisimple, is_semisimple
from hopfcheck.yd import check_yd_compat


def test_minimum_hopf_coverage():
    ids = {e.id for e in catalog_entries() if e.kind == "hopf"}
    for group in ("kC2", "kC3", "kC4", "kS3"):
        for f in ("Q", "F2", "F3", "F5", "F7"):
            assert f"{group}/{f}" in ids
    for dual in ("kdC2", "kdC3", "kdS3"):
        for f in ("Q", "F2", "F3", "F5", "F7"):
            assert f"{dual}/{f}" in ids
    assert "H4/Q" in ids and "H4/F5" in ids


def test_every_hopf_entry_passes_axioms():
    for entry in catalog_entries():
        if entry.kind == "hopf":
            assert entry.payload.check_hopf_axioms().ok, entry.id


def test_involutory_matches_expectation():
    for entry in catalog_entries():
        if entry.kind != "hopf":
            continue
        expected = not entry.id.startswith("H4/")
        assert entry.payload.is_involutory() == expected, entry.id


def test_every_object_passes_or_is_tagged():
    checkers = {
        "module": check_module_axioms,
        "comodule": check_comodule_axioms,
        "yd": check_yd_compat,
    }
    for entry in catalog_entries():
        if entry.kind == "hopf":
            continue
        report = checkers[entry.kind](entry.payload)
        if entry.expected_failure is None:
            assert report.ok, entry.id
        else:
            assert entry.expected_failure in {c.name for c in report.failures()}, entry.id


_MODULE_LAWS = ["unit_acts_as_identity", "action_multiplicative"]
_COMODULE_LAWS = ["counit_law", "coassociativity"]
_LAW_NAMES = {
    "module": _MODULE_LAWS,
    "comodule": _COMODULE_LAWS,
    "yd": _MODULE_LAWS + _COMODULE_LAWS + ["yd_compatibility"],
    "hopf": [
        "associativity", "unit", "coassociativity", "counit", "comult_multiplicative",
        "comult_unit", "counit_multiplicative", "counit_unit", "antipode_left", "antipode_right",
    ],
}


def test_each_kind_reports_its_one_law_table_in_order():
    # one report function for every kind, Hopf entries and negative fixtures
    # included, reading the kind's named table in its order
    assert check_module_axioms is check_comodule_axioms is check_yd_compat is axioms_in_category
    for entry in catalog_entries():
        obj = entry.payload
        report = axioms_in_category(obj)
        assert [name for name, _ in obj.laws] == [c.name for c in report.checks] == _LAW_NAMES[entry.kind], entry.id
        assert report.subject == obj.name and report.ok == (entry.expected_failure is None), entry.id
        if entry.kind == "hopf":
            assert [c.name for c in obj.check_algebra_axioms().checks] == ["associativity", "unit"], entry.id
            assert obj.check_hopf_axioms() == report, entry.id
    h = lookup("kS3/F3").payload
    assert [name for name, _ in AlgebraData(h.field, h.dim, h.mult, h.unit).laws] == ["associativity", "unit"]


def test_exactly_one_yd_negative_fixture():
    tagged = [e for e in catalog_entries() if e.expected_failure]
    assert [e.id for e in tagged] == ["kS3/Q/ydbadline"]


def test_lookup_regular_c2():
    entry = lookup("kC2/Q/regular")
    assert entry.kind == "module"
    assert entry.payload.dim == 2
    assert check_module_axioms(entry.payload).ok


def test_lookup_sweedler_presentation():
    h = lookup("H4/Q").payload
    one = QQ.one()
    zero = QQ.zero()
    # g*g = 1
    assert h.mult[1][1][0] == one
    # x*x = 0
    assert all(c == zero for c in h.mult[2][2])
    # x*g = -g*x
    assert h.mult[2][1][3] == -h.mult[1][2][3]
    # coproduct of x is x (x) 1 + g (x) x
    assert h.comult[2][2][0] == one and h.comult[2][1][2] == one
    # antipode sends x to -gx
    assert h.antipode.entries[3][2] == -one


def test_lookup_regular_s3_mod_three():
    m = lookup("kS3/F3/regular").payload
    report = is_semisimple(m)
    assert not report.verdict
    assert brute_force_semisimple(m) is False


def test_unknown_id_raises():
    for entry_id in ("kC5/Q", "kC9/Q", "kC2/Q/nope", "kC2", "kC2/Q/regular/x", ""):
        with pytest.raises(KeyError, match="no catalog entry"):
            lookup(entry_id)


def test_provenance_notes_everywhere():
    for entry in catalog_entries():
        assert entry.provenance_note.strip(), entry.id


def test_objects_over_selects_by_kind():
    modules = objects_over("kS3/Q", "module")
    names = {e.id.rsplit("/", 1)[1] for e in modules}
    assert {"trivial", "regular", "perm", "sign", "std2"} <= names
    comodules = objects_over("kS3/Q", "comodule")
    assert {e.id.rsplit("/", 1)[1] for e in comodules} >= {"cotrivial", "coregular", "coline_t", "coline_c"}


def test_ids_are_well_formed_and_sorted():
    ids = [e.id for e in catalog_entries()]
    assert ids == sorted(ids)
    for entry_id in ids:
        parts = entry_id.split("/")
        assert len(parts) in (2, 3)
        assert parts[1] in ("Q", "F2", "F3", "F5", "F7")


def test_bad_characteristic_fixtures_present():
    assert lookup("kC2/F2/unipotent2").payload.dim == 2
    assert lookup("kC3/F3/unipotent2").payload.dim == 2
    assert not is_semisimple(lookup("kC2/F2/unipotent2").payload).verdict
    assert not is_semisimple(lookup("kC3/F3/unipotent2").payload).verdict


# sha256 of every entry's id, kind, tag, note and document: the report
# hashes pin verdicts only, so a changed table that keeps them would pass
CATALOG_DOCUMENTS_SHA256 = os.path.join(os.path.dirname(__file__), "catalog_documents.sha256")


def test_catalog_tables_equal_the_recorded_ones():
    rows = [
        {
            "id": e.id,
            "kind": e.kind,
            "expected_failure": e.expected_failure,
            "provenance_note": e.provenance_note,
            "document": object_to_doc(e.payload),
        }
        for e in catalog_entries()
    ]
    assert len(rows) == 319
    with open(CATALOG_DOCUMENTS_SHA256, encoding="utf-8") as fh:
        expected = fh.read().strip()
    assert hashlib.sha256(canonical_json({"entries": rows}).encode("utf-8")).hexdigest() == expected


# the catalog is built one Hopf algebra's group at a time ---------------------


def _clear_catalog():
    catalog._group.cache_clear()
    catalog._catalog.cache_clear()
    catalog._shared_group_algebra.cache_clear()


@pytest.fixture
def unbuilt_catalog():
    _clear_catalog()
    yield
    _clear_catalog()


def _built_groups() -> int:
    return catalog._group.cache_info().currsize


def test_lookup_builds_only_its_group(unbuilt_catalog):
    assert lookup("kC2/F2/regular").payload.dim == 2
    assert _built_groups() == 1
    assert catalog._catalog.cache_info().currsize == 0
    lookup("kC2/F2")
    lookup("kC2/F2/unipotent2")
    assert _built_groups() == 1


def test_cli_request_builds_only_its_group(unbuilt_catalog, capsys):
    assert cli.main(["semisimple", "kS3/F3/std2"]) == 0
    assert capsys.readouterr().out.startswith("false")
    assert _built_groups() == 1
    assert catalog._catalog.cache_info().currsize == 0


def test_unknown_ids_build_at_most_the_group_they_name(unbuilt_catalog):
    for entry_id in ("kC9/Q", "kC2/Q/nope", "kC2"):
        with pytest.raises(KeyError):
            lookup(entry_id)
    # "kC2/Q/nope" names a real group, which is built to look for it
    assert _built_groups() == 1


def test_campaign_over_some_fields_builds_only_their_groups(unbuilt_catalog):
    with pytest.raises(ValueError, match="no catalog entries over F11"):
        run_campaign(fields=["F11"])
    assert _built_groups() == 0
    assert run_campaign(categories=("module",), fields=["F2"]).ok
    assert _built_groups() == sum(hid.endswith("/F2") for hid in HOPF_IDS) == 7
    assert catalog._catalog.cache_info().currsize == 0


def test_campaign_over_no_known_category_is_refused(unbuilt_catalog):
    # a misspelt kind would select nothing and report a green, empty run
    for categories in (("modules",), (), ("module", "yd-module")):
        with pytest.raises(ValueError, match="categories must be drawn from"):
            run_campaign(categories=categories, fields=["F2"])
    assert _built_groups() == 0


def test_campaign_with_an_oracle_bound_below_one_is_refused(unbuilt_catalog):
    # no object meets such a bound, so the oracle would skip all and pass
    for bound in (0, -1):
        with pytest.raises(ValueError, match="oracle bound must be at least 1"):
            run_campaign(fields=["F2"], oracle=True, bound=bound)
    assert _built_groups() == 0


def test_campaign_with_an_oracle_over_no_finite_field_is_refused(unbuilt_catalog):
    # the oracle runs over F_p only, so over Q alone it would skip all and pass
    with pytest.raises(ValueError, match="oracle checks finite fields only"):
        run_campaign(fields=["Q"], oracle=True)
    assert _built_groups() == 0
    # next to a finite field, Q's objects are listed as skipped, as before
    report = run_campaign(categories=("module",), fields=["Q", "F2"], oracle=True)
    assert report.ok and report.oracle["checked"] > 0
    assert any(i.split("/")[1] == "Q" for i in report.oracle["skipped_bound_exceeded"])


def test_each_hopf_algebra_is_built_once_and_checked_once(unbuilt_catalog, monkeypatch):
    # comult_multiplicative runs once per Hopf law table
    real = HopfAlgebraData._comult_multiplicative_violation
    tables = []

    def counted(self):
        tables.append(self.name)
        return real(self)

    monkeypatch.setattr(HopfAlgebraData, "_comult_multiplicative_violation", counted)
    catalog_entries()
    # the 20 kG and 2 H4; each k^G is checked as the kG it shares
    assert len(tables) == 22 and len(set(tables)) == 22
    assert not any(name.startswith("kd") for name in tables)
    run_campaign()
    # the campaign reports every k^G's laws, derived from the kG it shares
    assert len(tables) == 22
    run_campaign()
    assert len(tables) == 22


def test_each_derived_dual_group_table_equals_a_computed_one():
    # kG passes all ten laws, and each law of k^G is one of kG's read
    # backwards: a fresh unchecked copy of each k^G computes the same table
    derived = [e.payload for e in hopf_entries() if e.id.startswith("kd")]
    assert len(derived) == 15
    for h in derived:
        copy = HopfAlgebraData(h.field, h.dim, h.mult, h.unit, h.comult, h.counit, h.antipode, unchecked=True)
        assert h.laws == copy.laws, h.name
        assert h.law_violations == copy.law_violations, h.name


def test_lookup_of_a_dual_group_entry_builds_only_its_group(unbuilt_catalog):
    lookup("kdS3/F3/regular")
    assert _built_groups() == 1
    assert lookup("kS3/F3").payload is catalog._shared_group_algebra(GF(3), "S3")
    assert _built_groups() == 2 and catalog._shared_group_algebra.cache_info().currsize == 1


def test_catalog_is_the_union_of_its_groups_in_id_order(unbuilt_catalog):
    union = [e for hid in HOPF_IDS for e in catalog._group(hid).values()]
    entries = catalog_entries()
    assert [e.id for e in entries] == sorted(e.id for e in union)
    assert len(entries) == 319 and len(HOPF_IDS) == 37
    by_id = {e.id: e for e in union}
    assert all(by_id[e.id] is e for e in entries)


def test_hopf_entries_and_objects_over_filter_the_catalog():
    everything = catalog_entries()
    for fields in (None, ("Q",), ("F2", "F7"), ("F5", "Q"), ()):
        expected = [e for e in everything if e.kind == "hopf" and (fields is None or e.id.split("/")[1] in fields)]
        assert hopf_entries(fields) == expected, fields
    for hid in HOPF_IDS + ("kC9/Q", "kC2/Q/regular"):
        for kind in ("hopf", "module", "comodule", "yd"):
            expected = [e for e in everything if e.kind == kind and e.id.startswith(hid + "/")]
            assert objects_over(hid, kind) == expected, (hid, kind)
