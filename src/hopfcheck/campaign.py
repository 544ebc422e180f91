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
from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement

from . import __version__
from .catalog import HOPF_IDS, hopf_entries, objects_over
from .duality import (
    SerreVerdict,
    axioms_in_category,
    build_strong_dual_certificates,
    cached_verdict,
    coevaluation,
    evaluation,
    hs_rank,
    pairing_violation,
    verify_serre,
)
from .errors import BoundExceededError, CertificateError, NotInvolutoryError, RankNotInvertibleError
from .semisimple import DEFAULT_ORACLE_BOUND, brute_force_semisimple

CATEGORIES = ("module", "comodule", "yd")


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
        return {
            "tool_version": self.tool_version,
            "field_list": self.field_list,
            "categories": self.categories,
            "entries_checked": self.entries_checked,
            "pairs_checked": self.pairs_checked,
            "axiom_failures": self.axiom_failures,
            "negative_fixtures": self.negative_fixtures,
            "eq_pairing": self.eq_pairing,
            "equivariance_dichotomy": self.equivariance_dichotomy,
            "certificates": self.certificates,
            "serre_verdicts": [v.to_doc() for v in self.serre_verdicts],
            "chevalley_observation": self.chevalley_observation,
            "oracle": self.oracle,
            "counterexamples": self.counterexamples,
            "ok": self.ok,
            "wall_time": self.wall_time,
        }


def _pairing_identity_holds(obj) -> bool:
    field = obj.field
    got = (evaluation(obj) * coevaluation(obj)).entries[0][0]
    return got == field.from_int(obj.dim)


def run_campaign(
    categories=CATEGORIES,
    fields=None,
    oracle: bool = False,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> CampaignReport:
    start = time.time()
    catalog_fields = {hid.split("/")[1] for hid in HOPF_IDS}
    field_list = list(fields) if fields else sorted(catalog_fields)
    missing = sorted(set(field_list) - catalog_fields)
    if missing:
        # a campaign over a field without entries would check nothing and pass
        raise ValueError(f"no catalog entries over {', '.join(missing)}")
    if not categories or set(categories) - set(CATEGORIES):
        # nor would one over no category it knows
        raise ValueError(f"categories must be drawn from {', '.join(CATEGORIES)}, got {list(categories)}")
    report = CampaignReport(
        tool_version=__version__,
        field_list=sorted(field_list),
        categories=[c for c in CATEGORIES if c in categories],
    )
    eq_failures: list[str] = []
    eq_instances = 0
    coev_fail: list[str] = []
    ev_fail_involutory: list[str] = []
    ev_fail_noninvolutory: list[str] = []
    ev_pass = 0
    certs_built = 0
    rank_not_invertible: list[str] = []
    not_involutory: list[str] = []
    cert_failures: list[str] = []
    oracle_checked = 0
    oracle_skipped: list[str] = []

    for hopf_entry in hopf_entries(tuple(report.field_list)):
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
                    failed = {c.name for c in obj_report.failures()}
                    report.negative_fixtures.append(
                        {
                            "id": entry.id,
                            "expected_failure": entry.expected_failure,
                            "confirmed": entry.expected_failure in failed,
                        }
                    )
                    if entry.expected_failure not in failed:
                        report.counterexamples.append(
                            {"type": "negative_fixture_passed", "id": entry.id}
                        )
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
                eq_instances += 1
                if not _pairing_identity_holds(obj):
                    eq_failures.append(entry.id)
                    report.counterexamples.append({"type": "pairing_identity", "id": entry.id})

                # equivariance dichotomy: are coev: 1 -> N (x) N* and ev back
                # morphisms?  For a comodule a morphism is a colinear map
                if kind != "yd":
                    law = "equivariance" if kind == "module" else "colinearity"
                    if pairing_violation(obj, coev=True, dual_first=False) is not None:
                        coev_fail.append(entry.id)
                        report.counterexamples.append({"type": f"coevaluation_{law}", "id": entry.id})
                    if pairing_violation(obj, coev=False, dual_first=False) is None:
                        ev_pass += 1
                    elif involutory:
                        ev_fail_involutory.append(entry.id)
                        report.counterexamples.append({"type": f"evaluation_{law}", "id": entry.id})
                    else:
                        ev_fail_noninvolutory.append(entry.id)

                # strong-dual certificates wherever the hypotheses hold
                rank = hs_rank(obj.dim, obj.field)
                try:
                    build_strong_dual_certificates(obj)
                    certs_built += 1
                    if not involutory or not rank.invertible:
                        cert_failures.append(entry.id)
                        report.counterexamples.append(
                            {"type": "certificate_without_hypotheses", "id": entry.id}
                        )
                except NotInvolutoryError:
                    not_involutory.append(entry.id)
                    if involutory:
                        cert_failures.append(entry.id)
                        report.counterexamples.append({"type": "certificate_refused", "id": entry.id})
                except RankNotInvertibleError:
                    rank_not_invertible.append(entry.id)
                    if rank.invertible:
                        cert_failures.append(entry.id)
                        report.counterexamples.append({"type": "certificate_refused", "id": entry.id})
                except CertificateError:
                    cert_failures.append(entry.id)
                    report.counterexamples.append({"type": "certificate_reverification", "id": entry.id})

                # independent oracle for finite fields, on request
                if oracle:
                    try:
                        brute = brute_force_semisimple(obj, bound)
                        engine = cached_verdict(obj, verdict_cache)
                        oracle_checked += 1
                        if brute != engine:
                            report.counterexamples.append(
                                {"type": "oracle_disagreement", "id": entry.id}
                            )
                    except BoundExceededError:
                        oracle_skipped.append(entry.id)

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

    report.eq_pairing = {"instances": eq_instances, "failures": sorted(eq_failures)}
    report.equivariance_dichotomy = {
        "coevaluation_failures": sorted(coev_fail),
        "evaluation_passes": ev_pass,
        "evaluation_failures_involutory": sorted(ev_fail_involutory),
        "evaluation_failures_noninvolutory": sorted(ev_fail_noninvolutory),
    }
    report.certificates = {
        "built_and_verified": certs_built,
        "rank_not_invertible": sorted(rank_not_invertible),
        "not_involutory": sorted(not_involutory),
        "failures": sorted(cert_failures),
    }
    report.oracle = {
        "enabled": oracle,
        "checked": oracle_checked,
        "skipped_bound_exceeded": sorted(oracle_skipped),
    }
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
