import json

import pytest

from hopfcheck.catalog import catalog_entries, lookup
from hopfcheck.documents import (
    canonical_json,
    detect_kind,
    hopf_from_doc,
    hopf_to_doc,
    module_from_doc,
    module_to_doc,
    object_from_doc,
    object_to_doc,
    yd_from_doc,
    yd_to_doc,
)
from hopfcheck.errors import ParseError
from hopfcheck.hopf import AxiomReport


def _resolve(ref):
    return lookup(ref).payload


@pytest.mark.parametrize(
    "entry_id",
    ["kC2/Q", "kS3/F3", "H4/Q", "kdC2/F2"],
)
def test_hopf_document_roundtrip_bit_for_bit(entry_id):
    h = lookup(entry_id).payload
    doc = hopf_to_doc(h)
    text = canonical_json(doc)
    parsed = hopf_from_doc(json.loads(text))
    assert canonical_json(hopf_to_doc(parsed)) == text
    assert parsed.check_hopf_axioms().ok


@pytest.mark.parametrize(
    "entry_id",
    ["kC2/Q/regular", "kS3/F5/std2", "H4/Q/h4mod2"],
)
def test_module_document_roundtrip(entry_id):
    m = lookup(entry_id).payload
    doc = module_to_doc(m)
    text = canonical_json(doc)
    parsed = module_from_doc(json.loads(text), _resolve(doc["hopf"]))
    assert canonical_json(module_to_doc(parsed)) == text


def test_comodule_and_yd_roundtrip():
    c = lookup("kdC2/F2/cononsplit2").payload
    text = canonical_json(object_to_doc(c))
    parsed = object_from_doc(json.loads(text), _resolve)
    assert canonical_json(object_to_doc(parsed)) == text

    y = lookup("kS3/Q/ydconj3").payload
    text = canonical_json(yd_to_doc(y))
    parsed = yd_from_doc(json.loads(text), _resolve("kS3/Q"))
    assert canonical_json(yd_to_doc(parsed)) == text


def test_every_emitted_rational_document_parses_back():
    # the strict rational grammar still accepts everything the emitter writes
    for entry in catalog_entries():
        if "/Q" not in entry.id or entry.kind == "hopf":
            continue
        text = canonical_json(object_to_doc(entry.payload))
        parsed = object_from_doc(json.loads(text), _resolve)
        assert canonical_json(object_to_doc(parsed)) == text, entry.id


def test_detect_kind():
    assert detect_kind(hopf_to_doc(lookup("kC2/Q").payload)) == "hopf"
    assert detect_kind(module_to_doc(lookup("kC2/Q/regular").payload)) == "module"
    assert detect_kind(object_to_doc(lookup("kC2/Q/coregular").payload)) == "comodule"
    assert detect_kind(yd_to_doc(lookup("kC2/Q/ydtrivial").payload)) == "yd"
    with pytest.raises(ParseError):
        detect_kind({"name": "nothing"})


def test_parse_errors_name_the_offending_field():
    doc = hopf_to_doc(lookup("kC2/Q").payload)
    broken = dict(doc)
    del broken["antipode"]
    with pytest.raises(ParseError, match="antipode"):
        hopf_from_doc(broken)

    broken = dict(doc)
    broken["dim"] = "two"
    with pytest.raises(ParseError, match="dim"):
        hopf_from_doc(broken)

    broken = json.loads(canonical_json(doc))
    broken["mult"][0][0] = [1]  # wrong width
    with pytest.raises(ParseError, match="mult"):
        hopf_from_doc(broken)


def test_yd_parse_errors_name_the_yd_document():
    # the action and coaction are read as a YD document's fields, not as a
    # module's or a comodule's
    hopf = _resolve("kC2/Q")
    doc = json.loads(canonical_json(yd_to_doc(lookup("kC2/Q/ydline_g_sign").payload)))
    doc["name"] = "y"
    missing_dim = {k: v for k, v in doc.items() if k != "dim"}
    with pytest.raises(ParseError, match="^yd document 'y': missing field 'dim'$"):
        yd_from_doc(missing_dim, hopf)
    one_matrix = dict(doc, action=doc["action"][:1])
    with pytest.raises(ParseError, match="^yd document 'y': expected 2 action matrices$"):
        yd_from_doc(one_matrix, hopf)
    short = json.loads(canonical_json(doc))
    short["coaction"][0][0] = short["coaction"][0][0][:1]
    with pytest.raises(ParseError, match="^yd document 'y': coaction\\[0\\]\\[0\\]: expected 2 entries$"):
        yd_from_doc(short, hopf)


def test_scalar_parse_error_is_diagnosed():
    doc = json.loads(canonical_json(module_to_doc(lookup("kC2/F2/regular").payload)))
    doc["action"][0][0][0] = "1/2"  # rationals are not F2 residues
    with pytest.raises(ParseError, match="action"):
        module_from_doc(doc, _resolve("kC2/F2"))


def test_axiom_check_of_parsed_document(tmp_path):
    # a corrupted structure constant must be caught when the document is checked
    doc = json.loads(canonical_json(hopf_to_doc(lookup("kC2/Q").payload)))
    doc["mult"][1][1][0] = "7"
    parsed = hopf_from_doc(doc, unchecked=True)
    report = parsed.check_hopf_axioms()
    assert isinstance(report, AxiomReport)
    assert not report.ok
