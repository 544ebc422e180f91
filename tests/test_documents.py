import json
from fractions import Fraction

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
from hopfcheck.fields import GF, QQ
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
    parsed = hopf_from_doc(doc)
    report = parsed.check_hopf_axioms()
    assert isinstance(report, AxiomReport)
    assert not report.ok


# every array of one document of each kind: (key, shape), outermost level first
_ARRAYS = {
    "H4/Q": [("mult", (4, 4, 4)), ("comult", (4, 4, 4)), ("unit", (4,)), ("counit", (4,)), ("antipode", (4, 4))],
    "kS3/F3/std2": [("action", (6, 2, 2))],
    "kC3/F7/coline_g": [("coaction", (1, 1, 3))],
    "kS3/Q/ydconj3": [("action", (6, 3, 3)), ("coaction", (3, 3, 6))],
}
_LEVEL_NAMES = ("entries", "rows", "slabs")
_BAD_SCALAR = 1.5


def _parse(entry_id, doc):
    entry = lookup(entry_id)
    if entry.kind == "hopf":
        return hopf_from_doc(doc)
    return object_from_doc(doc, _resolve)


def _length_message(context, key, shape, depth):
    if depth == 0 and key == "action":
        return f"{context}: expected {shape[0]} action matrices"
    return f"{context}: {key}{'[0]' * depth}: expected {shape[depth]} {_LEVEL_NAMES[len(shape) - 1 - depth]}"


@pytest.mark.parametrize("entry_id", sorted(_ARRAYS))
def test_every_level_of_every_array_names_its_path(entry_id):
    # at each level of each array, the array on the path [0]...[0] gets one entry
    # too many, is replaced by a non-array, or has its first entry replaced by a
    # bad scalar; the error names the failing level and its index path exactly
    entry = lookup(entry_id)
    text = canonical_json(object_to_doc(entry.payload))
    context = f"{entry.kind} document {entry.payload.name!r}"
    field = entry.payload.field
    try:
        field.scalar_from_doc(_BAD_SCALAR)
    except ValueError as exc:
        scalar_error = str(exc)
    cases = 0
    for key, shape in _ARRAYS[entry_id]:
        for depth in range(len(shape)):
            innermost = depth == len(shape) - 1
            for corruption in ("length", "non-array", "scalar"):
                doc = json.loads(text)
                parent, index = doc, key
                for _ in range(depth):
                    parent, index = parent[index], 0
                array = parent[index]
                if corruption == "length":
                    array.append(array[0])
                    want = _length_message(context, key, shape, depth)
                elif corruption == "non-array":
                    parent[index] = "0"
                    if depth == 0:
                        want = f"{context}: field {key!r} must be an array"
                    else:
                        want = _length_message(context, key, shape, depth)
                else:
                    array[0] = _BAD_SCALAR
                    if innermost:
                        want = f"{context}: {key}{'[0]' * depth}: {scalar_error}"
                    else:
                        want = _length_message(context, key, shape, depth + 1)
                with pytest.raises(ParseError) as info:
                    _parse(entry_id, doc)
                assert str(info.value) == want, (key, depth, corruption)
                cases += 1
    assert cases == 3 * sum(len(shape) for _, shape in _ARRAYS[entry_id])


@pytest.mark.parametrize("entry_id", ["kC2/Q", "kC2/Q/regular", "kC2/Q/coregular", "kC2/Q/ydline_g_sign"])
def test_a_document_with_an_unknown_key_is_refused(entry_id):
    entry = lookup(entry_id)
    doc = dict(object_to_doc(entry.payload), comment="no such field")
    with pytest.raises(ParseError, match=f"^{entry.kind} document '.*': unknown field 'comment'$"):
        _parse(entry_id, doc)


def test_a_misspelled_coaction_is_refused_not_read_as_a_module():
    doc = object_to_doc(lookup("kC2/F3/ydline_g_triv").payload)
    doc["coacton"] = doc.pop("coaction")
    with pytest.raises(ParseError, match="^module document 'ydline_g_triv': unknown field 'coacton'$"):
        object_from_doc(doc, _resolve)


def test_table_to_doc_writes_each_nesting_depth():
    assert QQ.table_to_doc([]) == []
    assert QQ.table_to_doc([1, Fraction(-1, 2)]) == ["1", "-1/2"]
    assert QQ.table_to_doc([[], []]) == [[], []]
    assert QQ.table_to_doc([[[], []], [[], []]]) == [[[], []], [[], []]]
    assert QQ.table_to_doc([[1, 2], [Fraction(1, 3), 0]]) == [["1", "2"], ["1/3", "0"]]
    assert GF(3).table_to_doc([[[4, 2]], [[0, 1]]]) == [[[1, 2]], [[0, 1]]]
