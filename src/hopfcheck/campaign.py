"""Full verification campaign over the built-in catalog.

For every Hopf entry in the selected fields the campaign re-runs axiom
checks, verifies the pairing identities and the equivariance dichotomy,
builds strong-dual certificates wherever their hypotheses hold, and scans
all same-kind object pairs for the semisimplicity implication.  Any
inconsistency on an involutory entry is a counterexample and forces a
nonzero exit status.

Results are assembled in id order, so two runs over the same catalog
produce identical machine-readable reports (wall time aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, fields as dataclass_fields
from itertools import combinations_with_replacement

from . import __version__
from .catalog import CATEGORIES, HOPF_IDS, hopf_entries, objects_over
from .duality import (
    SerreVerdict,
    axioms_in_category,
    build_strong_dual_certificates,
    coevaluation,
    evaluation,
    hs_rank,
    pairing_violation,
    verify_serre,
)
from .errors import DEFAULT_ORACLE_BOUND, BoundExceededError, CertificateError, NotInvolutoryError, RankNotInvertibleError
from .fields import field_by_name
from .semisimple import brute_force_semisimple, cached_verdict


@dataclass
class CampaignReport:
    tool_version: str
    field_list: list[str]
    categories: list[str]
    entries_checked: int = 0
    pairs_checked: int = 0
    axiom_failures: list[dict] = dc_field(default_factory=list)
    negative_fixtures: list[dict] = dc_field(default_factory=list)
    eq_pairing: dict = dc_field(default_factory=dict)
    equivariance_dichotomy: dict = dc_field(default_factory=dict)
    certificates: dict = dc_field(default_factory=dict)
    serre_verdicts: list[SerreVerdict] = dc_field(default_factory=list)
    chevalley_observation: dict = dc_field(default_factory=dict)
    oracle: dict = dc_field(default_factory=dict)
    counterexamples: list[dict] = dc_field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.axiom_failures

    def to_doc(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        doc["serre_verdicts"] = [v.to_doc() for v in self.serre_verdicts]
        doc["ok"] = self.ok
        doc["wall_time"] = doc.pop("wall_time")  # last, after ok
        return doc


def run_campaign(
    categories=CATEGORIES,
    fields=None,
    oracle: bool = False,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> CampaignReport:
    start = time.time()
    catalog_fields = {hid.split("/")[1] for hid in HOPF_IDS}
    field_list = sorted(set(fields) if fields else catalog_fields)
    missing = sorted(set(field_list) - catalog_fields)
    if missing:
        # a campaign over a field without entries would check nothing and pass
        raise ValueError(f"no catalog entries over {', '.join(missing)}")
    if not categories or set(categories) - set(CATEGORIES):
        # nor would one over no category it knows
        raise ValueError(f"categories must be drawn from {', '.join(CATEGORIES)}, got {list(categories)}")
    if bound < 1:
        # nor would an oracle whose bound no object meets
        raise ValueError(f"the oracle bound must be at least 1, got {bound}")
    if oracle and not any(field_by_name(f).characteristic for f in field_list):
        # nor would an oracle over no finite field: it checks nothing over Q
        raise ValueError(f"the oracle checks finite fields only, and none is selected: {', '.join(field_list)}")
    report = CampaignReport(
        tool_version=__version__,
        field_list=field_list,
        categories=[c for c in CATEGORIES if c in categories],
        eq_pairing={"instances": 0, "failures": []},
        equivariance_dichotomy={
            "coevaluation_failures": [],
            "evaluation_passes": 0,
            "evaluation_failures_involutory": [],
            "evaluation_failures_noninvolutory": [],
        },
        certificates={"built_and_verified": 0, "rank_not_invertible": [], "not_involutory": [], "failures": []},
        oracle={"enabled": oracle, "checked": 0, "skipped_bound_exceeded": []},
    )
    dichotomy, certificates = report.equivariance_dichotomy, report.certificates

    def counterexample(type_: str, entry_id: str, *failure_lists: list):
        for ids in failure_lists:
            ids.append(entry_id)
        report.counterexamples.append({"type": type_, "id": entry_id})

    for hopf_entry in hopf_entries(tuple(field_list)):
        hopf = hopf_entry.payload
        involutory = hopf.is_involutory()
        hopf_report = hopf.check_hopf_axioms()
        report.entries_checked += 1
        if not hopf_report.ok:
            report.axiom_failures.append(
                {"id": hopf_entry.id, "failed": [c.name for c in hopf_report.failures()]}
            )
            continue

        for kind in report.categories:
            entries = objects_over(hopf_entry.id, kind)
            valid = []
            for entry in entries:
                obj_report = axioms_in_category(entry.payload)
                report.entries_checked += 1
                if entry.expected_failure is not None:
                    confirmed = entry.expected_failure in {c.name for c in obj_report.failures()}
                    report.negative_fixtures.append(
                        {"id": entry.id, "expected_failure": entry.expected_failure, "confirmed": confirmed}
                    )
                    if not confirmed:
                        counterexample("negative_fixture_passed", entry.id)
                    continue
                if not obj_report.ok:
                    report.axiom_failures.append(
                        {"id": entry.id, "failed": [c.name for c in obj_report.failures()]}
                    )
                    continue
                valid.append(entry)

            # one verdict per object, shared by the oracle and the pairs
            verdict_cache: dict = {}
            for entry in valid:
                obj = entry.payload

                # exact pairing identity: evaluation after coevaluation is dim * 1
                report.eq_pairing["instances"] += 1
                if (evaluation(obj) * coevaluation(obj)).entries[0][0] != obj.field.from_int(obj.dim):
                    counterexample("pairing_identity", entry.id, report.eq_pairing["failures"])

                # equivariance dichotomy: are coev: 1 -> N (x) N* and ev back
                # morphisms?  For a comodule a morphism is a colinear map
                if kind != "yd":
                    law = "equivariance" if kind == "module" else "colinearity"
                    if pairing_violation(obj, coev=True, dual_first=False) is not None:
                        counterexample(f"coevaluation_{law}", entry.id, dichotomy["coevaluation_failures"])
                    if pairing_violation(obj, coev=False, dual_first=False) is None:
                        dichotomy["evaluation_passes"] += 1
                    elif involutory:
                        counterexample(f"evaluation_{law}", entry.id, dichotomy["evaluation_failures_involutory"])
                    else:
                        dichotomy["evaluation_failures_noninvolutory"].append(entry.id)

                # strong-dual certificates wherever the hypotheses hold
                rank = hs_rank(obj.dim, obj.field)
                try:
                    build_strong_dual_certificates(obj)
                    certificates["built_and_verified"] += 1
                    if not involutory or not rank.invertible:
                        counterexample("certificate_without_hypotheses", entry.id, certificates["failures"])
                except NotInvolutoryError:
                    certificates["not_involutory"].append(entry.id)
                    if involutory:
                        counterexample("certificate_refused", entry.id, certificates["failures"])
                except RankNotInvertibleError:
                    certificates["rank_not_invertible"].append(entry.id)
                    if rank.invertible:
                        counterexample("certificate_refused", entry.id, certificates["failures"])
                except CertificateError:
                    counterexample("certificate_reverification", entry.id, certificates["failures"])

                # independent oracle for finite fields, on request
                if oracle:
                    try:
                        brute = brute_force_semisimple(obj, bound)
                        engine = cached_verdict(obj, verdict_cache)
                        report.oracle["checked"] += 1
                        if brute != engine:
                            counterexample("oracle_disagreement", entry.id)
                    except BoundExceededError:
                        report.oracle["skipped_bound_exceeded"].append(entry.id)

            # the semisimplicity implication over all same-kind pairs
            for em, en in combinations_with_replacement(valid, 2):
                verdict = verify_serre(em.payload, en.payload, cache=verdict_cache)
                report.serre_verdicts.append(verdict)
                report.pairs_checked += 1
                if verdict.involutory and not verdict.consistent:
                    report.counterexamples.append(
                        {
                            "type": "serre_inconsistency",
                            "hopf": verdict.hopf_name,
                            "category": verdict.category,
                            "m": verdict.m_name,
                            "n": verdict.n_name,
                        }
                    )

    for section in (report.eq_pairing, dichotomy, certificates, report.oracle):
        for value in section.values():
            if isinstance(value, list):
                value.sort()
    # the converse direction is not a theorem here; report what the catalog shows
    both_ss = [
        v for v in report.serre_verdicts if v.involutory and v.conclusion_m and v.conclusion_n
    ]
    report.chevalley_observation = {
        "label": "observation, not theorem",
        "pairs_with_both_factors_semisimple": len(both_ss),
        "of_those_tensor_semisimple": sum(1 for v in both_ss if v.hypothesis_holds),
        "of_those_tensor_not_semisimple": sum(1 for v in both_ss if not v.hypothesis_holds),
    }
    report.counterexamples.sort(key=lambda c: (c["type"], str(sorted(c.items()))))
    report.wall_time = time.time() - start
    return report
