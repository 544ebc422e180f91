"""The lazy package namespace and the records the decisions return."""

import sys

import pytest

import hopfcheck
from hopfcheck.catalog import CatalogEntry, lookup
from hopfcheck.duality import HSRank, SerreVerdict, hs_rank, verify_serre
from hopfcheck.fields import QQ
from hopfcheck.hopf import AxiomCheck, AxiomReport
from hopfcheck.semisimple import is_semisimple

ALL = [
    "AlgebraData", "AxiomReport", "CampaignReport", "CatalogEntry", "ComoduleRep", "EchelonSpan", "Field", "GF",
    "HSRank", "HopfAlgebraData", "Matrix", "ModuleRep", "NoSolutionError", "PrimeField", "QQ", "Rationals",
    "SemisimplicityReport", "SerreVerdict", "SplitMonoCertificate", "YDModuleRep", "brute_force_semisimple",
    "build_strong_dual_certificates", "campaign", "catalog", "catalog_entries", "check_comodule_axioms",
    "check_module_axioms", "check_yd_compat", "coevaluation", "comodules", "dual_in_category", "dual_module",
    "duality", "errors", "evaluation", "fields", "hom_in_category", "hopf", "hs_rank", "is_cosemisimple",
    "is_morphism", "is_semisimple", "is_yd_semisimple", "kernel_basis", "lookup", "matrix", "modules",
    "regular_comodule", "regular_module", "run_campaign", "semisimple", "solve_linear", "split_retraction",
    "tensor_in_category", "tensor_modules", "trivial_comodule", "trivial_module", "trivial_yd", "verify_serre",
    "yd",
]  # fmt: skip
SUBMODULES = ["campaign", "catalog", "comodules", "duality", "errors", "fields", "hopf", "matrix", "modules", "semisimple", "yd"]  # fmt: skip


def test_all_lists_the_exported_names():
    assert hopfcheck.__all__ == ALL
    assert set(ALL) <= set(dir(hopfcheck))


def test_every_name_resolves_to_its_defining_modules_object():
    assert hopfcheck.verify_serre is hopfcheck.duality.verify_serre
    assert hopfcheck.check_comodule_axioms is hopfcheck.comodules.check_comodule_axioms
    assert hopfcheck.errors is sys.modules["hopfcheck.errors"]
    modules = {name: getattr(hopfcheck, name) for name in SUBMODULES}
    for name, module in modules.items():
        assert module is sys.modules[f"hopfcheck.{name}"], name
    for name in set(ALL) - set(SUBMODULES):
        owners = [vars(m) for m in modules.values() if name in vars(m)]
        assert owners, name
        for owner in owners:
            assert getattr(hopfcheck, name) is owner[name], name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hopfcheck.no_such_name  # noqa: B018
    assert not hasattr(hopfcheck, "no_such_name")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hopfcheck import *", namespace)
    for name in ALL:
        assert namespace[name] is getattr(hopfcheck, name), name


def test_records_keep_value_equality_and_repr():
    assert AxiomCheck("unit", True) == AxiomCheck("unit", True, None)
    assert repr(AxiomCheck("unit", False, (1, 2))) == "AxiomCheck(name='unit', passed=False, first_violation=(1, 2))"
    report = AxiomReport.of("x", [("unit", None), ("associativity", (0, 1))])
    assert report == AxiomReport("x", [AxiomCheck("unit", True), AxiomCheck("associativity", False, (0, 1))])
    assert not report.ok and report.failures() == [AxiomCheck("associativity", False, (0, 1))]
    assert hs_rank(3, QQ) == HSRank(3, True)
    assert repr(HSRank(3, True)) == "HSRank(value=3, invertible=True)"
    std2 = lookup("kS3/Q/std2")
    assert std2 == CatalogEntry(std2.id, std2.payload, std2.provenance_note)
    assert std2.kind == "module" and std2.expected_failure is None
    assert is_semisimple(std2.payload) == is_semisimple(lookup("kS3/Q/std2").payload)
    assert repr(is_semisimple(std2.payload)) == (
        "SemisimplicityReport(verdict=True, radical_dim=0, radical_basis=[], method='TraceForm')"
    )


def test_replacing_a_conclusion_recomputes_consistent():
    m = lookup("kS3/Q/std2").payload
    verdict = verify_serre(m, m)
    assert verdict.hypothesis_holds and verdict.rank_invertible_n and verdict.consistent
    broken = verdict._replace(conclusion_m=False)
    assert isinstance(broken, SerreVerdict)
    assert not broken.consistent and broken.to_doc()["consistent"] is False
    assert broken._replace(conclusion_m=True) == verdict
