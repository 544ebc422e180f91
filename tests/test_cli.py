import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfcheck
from hopfcheck.cli import main
from hopfcheck.documents import canonical_json, hopf_to_doc, object_to_doc
from hopfcheck.catalog import lookup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_catalog_hopf(capsys):
    code, out, _ = run(capsys, "check", "kC2/Q")
    assert code == 0
    assert "hopf axioms: PASS" in out and "involutory: yes" in out


def test_check_reports_non_involutory(capsys):
    code, out, _ = run(capsys, "check", "H4/Q")
    assert code == 0
    # the witness is the first b_i with S^2(b_i) != b_i: S^2(x) = -x
    assert out == "hopf axioms: PASS, involutory: NO (S^2 != id on basis element 2)\n"


def test_check_module(capsys):
    code, out, _ = run(capsys, "check", "kS3/F3/regular")
    assert code == 0
    assert "module axioms: PASS" in out


def test_check_broken_document_exits_one(tmp_path, capsys):
    doc = hopf_to_doc(lookup("kC2/Q").payload)
    doc["antipode"] = [["0", "0"], ["0", "0"]]
    path = tmp_path / "broken.json"
    path.write_text(canonical_json(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "antipode" in out  # names the violated identity


def test_check_flags_laws_read_on_a_non_faithful_regular_module(tmp_path, capsys):
    doc = hopf_to_doc(lookup("kC2/Q").payload)
    doc["mult"][0][1] = ["0", "0"]  # 1 * g = 0 breaks the unit law
    path = tmp_path / "broken.json"
    path.write_text(canonical_json(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "unit: FAIL" in out
    assert "not meaningful until associativity and unit pass" in out


def test_check_does_not_flag_laws_when_the_algebra_is_sound(tmp_path, capsys):
    doc = hopf_to_doc(lookup("kC2/Q").payload)
    doc["antipode"] = [["0", "0"], ["0", "0"]]
    path = tmp_path / "broken.json"
    path.write_text(canonical_json(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "not meaningful" not in out


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "parse error" in err


def test_oversized_hopf_document_exits_two(tmp_path, capsys):
    # refused on its dim alone, before any tensor is read
    doc = {"name": "big", "field": "Q", "dim": 17, "mult": [], "comult": [], "unit": [], "counit": [], "antipode": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "limit of 16" in err


def test_unknown_id_exits_two(tmp_path, capsys):
    for target in ("kC9/Q", "kC9/Q/x"):
        assert run(capsys, "check", target) == (2, "", f"parse error: no catalog entry '{target}'\n")
    # an unknown Hopf reference in a document is the same parse error
    doc = object_to_doc(lookup("kC2/Q/regular").payload)
    doc["hopf"] = "kC9/Q"
    path = tmp_path / "unknown_hopf.json"
    path.write_text(canonical_json(doc))
    for command in ("check", "semisimple"):
        assert run(capsys, command, str(path)) == (2, "", "parse error: no catalog entry 'kC9/Q'\n"), command


def test_semisimple_with_oracle(capsys):
    code, out, _ = run(capsys, "semisimple", "kC2/F2/regular", "--oracle")
    assert code == 0
    assert "false (radical dim 1" in out
    assert "oracle: agrees" in out


def test_semisimple_char_zero(capsys):
    code, out, _ = run(capsys, "semisimple", "kS3/Q/regular")
    assert code == 0
    assert out.startswith("true")


def test_semisimple_oracle_bound_warns_not_fails(capsys):
    code, out, _ = run(capsys, "semisimple", "kS3/F5/regular", "--oracle")
    assert code == 0
    assert "oracle: skipped" in out


def test_semisimple_bound_flag_tightens_the_oracle(capsys):
    code, out, _ = run(capsys, "semisimple", "kC2/F2/regular", "--oracle", "--bound", "3")
    assert code == 0
    assert "oracle: skipped" in out  # 2^2 = 4 exceeds the tightened cap


def test_dual_document_roundtrips_through_check(tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    code, _, _ = run(capsys, "dual", "kC2/Q/regular", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0
    assert "PASS" in out


def test_tensor_document_roundtrips_through_check(tmp_path, capsys):
    out_path = tmp_path / "tensor.json"
    code, _, _ = run(capsys, "tensor", "kC2/Q/regular", "kC2/Q/regular", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["dim"] == 4
    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0


def test_tensor_mismatch_exits_two(capsys):
    code, _, err = run(capsys, "tensor", "kC2/Q/regular", "kC3/Q/trivial")
    assert code == 2
    assert "different algebras" in err


def test_tensor_across_kinds_or_with_a_hopf_id_exits_two(capsys):
    for argv in (["tensor", "kC2/Q/regular", "kC2/Q/coregular"], ["tensor", "kC2/Q", "kC2/Q/regular"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error" in err, argv


def test_tensor_above_the_size_limit_exits_two_before_building(tmp_path, capsys):
    # a valid dim-17 module: 17 * 17 exceeds 16^2, so its square is refused
    doc = object_to_doc(lookup("kC2/Q/trivial").payload)
    identity = [["1" if r == c else "0" for c in range(17)] for r in range(17)]
    doc.update(name="big", dim=17, action=[identity, identity])
    path, out_path = tmp_path / "big.json", tmp_path / "big-sq.json"
    path.write_text(canonical_json(doc))
    assert run(capsys, "check", str(path))[0] == 0
    code, out, err = run(capsys, "tensor", str(path), str(path), "--out", str(out_path))
    assert code == 2
    assert out == "" and "error: a tensor product of dimension 17 x 17 exceeds the limit of 256" in err
    assert not out_path.exists()
    # the cap is on the product of the dimensions, not on either factor
    code, _, _ = run(capsys, "tensor", str(path), "kC2/Q/trivial", "--out", str(out_path))
    assert code == 0 and json.loads(out_path.read_text())["dim"] == 17


def test_non_integer_prime_in_a_document_is_a_parse_error(tmp_path, capsys):
    doc = hopf_to_doc(lookup("kC2/F3").payload)
    for p in (11.5, 11.0, 3.0, True, "7"):
        doc["field"] = {"Fp": p}
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2, p
        assert out == "" and "parse error" in err, p


def test_export_emits_canonical_document(tmp_path, capsys):
    out_path = tmp_path / "kc2.json"
    code, _, _ = run(capsys, "export", "kC2/Q", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert canonical_json(json.loads(text)) == text


def test_list_filters_by_kind(capsys):
    code, out, _ = run(capsys, "list", "--kind", "hopf")
    assert code == 0
    assert "kC2/Q" in out
    assert "regular" not in out


def test_campaign_on_one_field(capsys):
    code, out, _ = run(capsys, "campaign", "--field", "Q", "--category", "module")
    assert code == 0
    assert "CONSISTENT" in out


def test_campaign_machine_format_is_deterministic(tmp_path, capsys):
    args = ["campaign", "--field", "F3", "--category", "comodule", "--format", "machine"]
    docs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, *args, "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["counterexamples"] == []
    assert docs[0]["ok"] is True


def test_campaign_fault_injection_exits_nonzero(capsys, serre_fault):
    code, out, _ = run(capsys, "campaign", "--field", "F2", "--category", "module")
    assert len(serre_fault) == 1
    assert code == 1
    assert "FAILED" in out
    assert "serre_inconsistency" in out


def test_campaign_over_a_field_without_entries_is_a_usage_error(capsys):
    # alone it would check nothing and print CONSISTENT; next to F2 it would
    # silently drop out of the report
    for fields in (["--field", "F11"], ["--field", "F2", "--field", "F11"]):
        code, out, err = run(capsys, "campaign", *fields, "--category", "module")
        assert code == 2, fields
        assert "no catalog entries over F11" in err and out == "", fields


def test_campaign_lists_a_repeated_field_once(capsys):
    # Fp:2 names F2, and the campaign checks F2 once however it is named
    docs = []
    for fields in (["F2"], ["F2", "Fp:2"], ["F2", "F2"]):
        argv = [arg for f in fields for arg in ("--field", f)]
        code, out, _ = run(capsys, "campaign", *argv, "--category", "module", "--format", "machine")
        assert code == 0, fields
        doc = json.loads(out)
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0]["field_list"] == ["F2"]
    assert docs[1] == docs[0] and docs[2] == docs[0]


def test_non_positive_oracle_bound_is_a_usage_error(capsys):
    for bound in ("-5", "0"):
        code, out, err = run(capsys, "campaign", "--field", "F2", "--oracle", "--bound", bound)
        assert code == 2, bound
        assert "positive integer" in err and out == ""
        code, out, err = run(capsys, "semisimple", "kC2/F2/regular", "--oracle", "--bound", bound)
        assert code == 2, bound
        assert "positive integer" in err and out == ""


def test_campaign_oracle_over_no_finite_field_is_a_usage_error(capsys):
    # it would check no object, skip all 59 and print CONSISTENT
    code, out, err = run(capsys, "campaign", "--field", "Q", "--oracle")
    assert code == 2
    assert "oracle checks finite fields only" in err and out == ""


def test_bound_without_oracle_is_a_usage_error(capsys):
    # the bound caps only the oracle, so a request that ignores it checks less than it asks
    for argv in (("semisimple", "kC2/F2/regular"), ("campaign", "--field", "F2")):
        code, out, err = run(capsys, *argv, "--bound", "3")
        assert code == 2, argv
        assert "--bound applies only with --oracle" in err and out == ""


def test_campaign_yd_only(capsys):
    code, out, _ = run(capsys, "campaign", "--field", "Q", "--category", "yd")
    assert code == 0
    assert "CONSISTENT" in out


def test_semisimple_on_a_hopf_id_is_a_usage_error(capsys):
    code, _, err = run(capsys, "semisimple", "kC2/Q")
    assert code == 2
    assert "error" in err


def test_dual_on_a_hopf_id_is_a_usage_error(capsys):
    code, _, err = run(capsys, "dual", "H4/Q")
    assert code == 2


def test_check_negative_fixture_reports_and_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "kS3/Q/ydbadline")
    assert code == 0
    assert "FAIL" in out
    assert "tagged negative fixture" in out


def test_commands_refuse_a_tagged_negative_fixture(capsys):
    # only ``check`` reads a fixture that fails its axioms by design; every
    # other command refuses it as it refuses a failing document
    for argv in (
        ["semisimple", "kS3/Q/ydbadline"],
        ["dual", "kS3/Q/ydbadline"],
        ["export", "kS3/Q/ydbadline"],
        ["tensor", "kS3/Q/ydbadline", "kS3/Q/ydtrivial"],
        ["tensor", "kS3/Q/ydtrivial", "kS3/Q/ydbadline"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("axiom failure:"), argv
        assert "yd_compatibility: FAIL at (2, 4)" in err, argv


def test_commands_refuse_a_document_failing_its_axioms(tmp_path, capsys):
    # g acts by an idempotent, not an involution: g.g = e fails
    doc = json.loads(canonical_json(object_to_doc(lookup("kC2/Q/regular").payload)))
    doc["action"][1] = [["1", "1"], ["0", "0"]]
    path = str(tmp_path / "idempotent.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "action_multiplicative: FAIL" in out
    # every other command checks the document first instead of using it
    for argv in (["semisimple", path], ["dual", path], ["export", path], ["tensor", path, "kC2/Q/regular"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        assert "action_multiplicative: FAIL" in err, argv
    # a Hopf document with a zero antipode: ev and coev of the regular
    # module fail on b_0 = e, and the one guard refuses it for every command
    # but check, which prints its report
    doc = json.loads(canonical_json(hopf_to_doc(lookup("kC2/Q").payload)))
    doc["antipode"] = [["0", "0"], ["0", "0"]]
    path = str(tmp_path / "zero_antipode.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    report = "  antipode_left: FAIL at (0,)\n  antipode_right: FAIL at (0,)\n"
    assert run(capsys, "check", path) == (1, f"hopf axioms: FAIL, involutory: NO (S^2 != id on basis element 0)\n{report}", "")
    refusal = (
        "axiom failure: axiom check failed on kC2/Q: antipode_left at (0,), antipode_right at (0,)\n" + report
    )
    for argv in (["semisimple", path], ["dual", path], ["export", path], ["tensor", path, path]):
        assert run(capsys, *argv) == (1, "", refusal), argv


def test_division_by_zero_literal_is_a_parse_error(tmp_path, capsys):
    doc = json.loads(canonical_json(object_to_doc(lookup("kC2/Q/regular").payload)))
    doc["action"][1][0][0] = "1/0"
    path = tmp_path / "zero_denominator.json"
    path.write_text(canonical_json(doc))
    for command in ("check", "semisimple"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2, command
        assert "parse error" in err and "'1/0'" in err, command


def test_a_document_with_an_unknown_key_exits_two(tmp_path, capsys):
    # a misspelled coaction must not turn a YD document into a module document
    doc = object_to_doc(lookup("kC2/F3/ydline_g_triv").payload)
    doc["coacton"] = doc.pop("coaction")
    path = tmp_path / "coacton.json"
    path.write_text(canonical_json(doc))
    for command in ("check", "semisimple", "dual"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == "", command
        assert "unknown field 'coacton'" in err, command


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "kS3/F3/std2"],
        ["dual", "kS3/F3/std2"],
        ["campaign", "--category", "module", "--field", "F2"],
    ],
)
def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys, argv):
    # exit status 1 is kept for failed laws and theorem checks, which a CI gate
    # reads as a counterexample
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


_LOADED = """
import contextlib, io, json, sys
from hopfcheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hopfcheck.") or m == "dataclasses")]))
"""


def _fresh(*args) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this hopfcheck."""
    src = str(Path(hopfcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path}
    )


def test_each_command_imports_only_what_it_runs():
    # a fresh interpreter per request: pytest itself has imported dataclasses
    requests = [
        ["check", "kS3/F3/std2"],
        ["export", "kS3/F3/std2"],
        ["semisimple", "kS3/Q/std2"],
        ["dual", "kdS3/F3/coregular"],
        ["tensor", "kS3/F3/ydconj3", "kS3/F3/ydline_e_sign"],
        ["list"],
        ["campaign", "--category", "module", "--field", "F2"],
    ]
    loaded = {}
    for argv in requests:
        code, modules = json.loads(_fresh("-c", _LOADED, *argv).stdout)
        assert code == 0, argv
        loaded[argv[0]] = set(modules)
    decision = {"hopfcheck.campaign", "hopfcheck.semisimple", "hopfcheck.duality"}
    for command in ("check", "export", "list"):
        assert not loaded[command] & decision, command
    # a dual or a product is built by duality, which loads the engine only
    # when verify_serre runs
    for command in ("dual", "tensor"):
        assert "hopfcheck.duality" in loaded[command] and "hopfcheck.semisimple" not in loaded[command], command
    for command, modules in loaded.items():
        if command != "campaign":
            assert not modules & {"hopfcheck.campaign", "dataclasses"}, command
    assert "hopfcheck.documents" not in loaded["check"]
    assert {"hopfcheck.campaign", "dataclasses"} <= loaded["campaign"]


def test_a_bare_import_loads_no_submodule():
    script = (
        "import json, sys, hopfcheck\n"
        "before = sorted(m for m in sys.modules if m.startswith('hopfcheck.'))\n"
        "hopfcheck.verify_serre\n"
        "after = sorted(m for m in sys.modules if m.startswith('hopfcheck.'))\n"
        "print(json.dumps([before, 'verify_serre' in vars(hopfcheck), 'hopfcheck.duality' in after]))"
    )
    before, bound, duality = json.loads(_fresh("-c", script).stdout)
    assert before == []
    # the first access imports the defining module and binds the name
    assert bound and duality
