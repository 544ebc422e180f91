"""JSON document format for structure-constant data.

One document per object:

* Hopf algebra: ``{name, field, dim, mult, comult, unit, counit, antipode}``
* module:       ``{name, hopf, dim, action}``   (hopf is a name reference)
* comodule:     ``{name, hopf, dim, coaction}``
* YD module:    ``{name, hopf, dim, action, coaction}``

Rationals are encoded as strings "a/b" or "a"; prime-field residues as
integers in [0, p); the field itself as "Q" or {"Fp": p}.  Emission is
canonical (sorted keys, fixed indentation), so emitted documents re-parse
and re-serialize bit-for-bit.
"""

from __future__ import annotations

import json

from .comodules import ComoduleRep
from .errors import ParseError
from .fields import Field, field_from_doc
from .hopf import HopfAlgebraData
from .matrix import Matrix
from .modules import ModuleRep
from .yd import YDModuleRep

# the largest Hopf document accepted; its check builds no R (x) R any more:
# kC16 checks in about 0.04 s and 18 MiB, kC27 in about 0.2 s and 21 MiB
# (Python 3.11, process time and peak RSS), and the cap stays until a
# measured budget sets a new one
MAX_HOPF_DIM = 16


def _expect(doc: dict, key: str, kind, context: str):
    if key not in doc:
        raise ParseError(f"{context}: missing field {key!r}")
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ParseError(f"{context}: field {key!r} must be an integer")
    if kind is list and not isinstance(value, list):
        raise ParseError(f"{context}: field {key!r} must be an array")
    if kind is str and not isinstance(value, str):
        raise ParseError(f"{context}: field {key!r} must be a string")
    return value


def _scalar_out(field: Field, x):
    return field.scalar_to_doc(x)


def _scalar_in(field: Field, value, context: str):
    try:
        return field.scalar_from_doc(value)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from None


def _tensor_out(field: Field, tensor):
    return [[[_scalar_out(field, x) for x in row] for row in slab] for slab in tensor]


def _tensor_in(field: Field, value, dims: tuple[int, int, int], context: str):
    d0, d1, d2 = dims
    if len(value) != d0:
        raise ParseError(f"{context}: expected {d0} slabs, found {len(value)}")
    out = []
    for i, slab in enumerate(value):
        if not isinstance(slab, list) or len(slab) != d1:
            raise ParseError(f"{context}[{i}]: expected {d1} rows")
        rows = []
        for j, row in enumerate(slab):
            if not isinstance(row, list) or len(row) != d2:
                raise ParseError(f"{context}[{i}][{j}]: expected {d2} entries")
            rows.append([_scalar_in(field, x, f"{context}[{i}][{j}]") for x in row])
        out.append(rows)
    return out


def _matrix_out(m: Matrix):
    return [[_scalar_out(m.field, x) for x in row] for row in m.entries]


def _matrix_in(field: Field, value, rows: int, cols: int, context: str) -> Matrix:
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"{context}: expected {rows} rows")
    data = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{context}[{i}]: expected {cols} entries")
        data.append([_scalar_in(field, x, f"{context}[{i}]") for x in row])
    return Matrix(field, rows, cols, data)


def _vector_out(field: Field, v):
    return [_scalar_out(field, x) for x in v]


def _vector_in(field: Field, value, length: int, context: str):
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"{context}: expected {length} entries")
    return [_scalar_in(field, x, context) for x in value]


# Hopf documents ---------------------------------------------------------------


def hopf_to_doc(h: HopfAlgebraData) -> dict:
    return {
        "name": h.name,
        "field": h.field.spec_to_doc(),
        "dim": h.dim,
        "mult": _tensor_out(h.field, h.mult),
        "comult": _tensor_out(h.field, h.comult),
        "unit": _vector_out(h.field, h.unit),
        "counit": _vector_out(h.field, h.counit),
        "antipode": _matrix_out(h.antipode),
    }


def hopf_from_doc(doc: dict, unchecked: bool = False) -> HopfAlgebraData:
    name = _expect(doc, "name", str, "hopf document")
    context = f"hopf document {name!r}"
    if "field" not in doc:
        raise ParseError(f"{context}: missing field 'field'")
    try:
        field = field_from_doc(doc["field"])
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from None
    dim = _expect(doc, "dim", int, context)
    if dim < 1:
        raise ParseError(f"{context}: dim must be at least 1")
    if dim > MAX_HOPF_DIM:
        raise ParseError(f"{context}: dim {dim} exceeds the limit of {MAX_HOPF_DIM}")
    mult = _tensor_in(field, _expect(doc, "mult", list, context), (dim, dim, dim), f"{context}: mult")
    comult = _tensor_in(field, _expect(doc, "comult", list, context), (dim, dim, dim), f"{context}: comult")
    unit = _vector_in(field, _expect(doc, "unit", list, context), dim, f"{context}: unit")
    counit = _vector_in(field, _expect(doc, "counit", list, context), dim, f"{context}: counit")
    antipode = _matrix_in(field, _expect(doc, "antipode", list, context), dim, dim, f"{context}: antipode")
    return HopfAlgebraData(
        field, dim, mult, unit, comult, counit, antipode, name=name, unchecked=unchecked
    )


# module/comodule/YD documents ---------------------------------------------------


def module_to_doc(m: ModuleRep) -> dict:
    return {
        "name": m.name,
        "hopf": m.algebra.name,
        "dim": m.dim,
        "action": [_matrix_out(a) for a in m.action],
    }


def _object_header(doc: dict, kind: str):
    """The name, the error context and the dim of a ``kind`` document."""
    name = _expect(doc, "name", str, f"{kind} document")
    context = f"{kind} document {name!r}"
    dim = _expect(doc, "dim", int, context)
    if dim < 0:
        raise ParseError(f"{context}: dim must be nonnegative")
    return name, context, dim


def _action_in(doc: dict, hopf: HopfAlgebraData, dim: int, context: str) -> list[Matrix]:
    action_doc = _expect(doc, "action", list, context)
    if len(action_doc) != hopf.dim:
        raise ParseError(f"{context}: expected {hopf.dim} action matrices")
    return [_matrix_in(hopf.field, mat, dim, dim, f"{context}: action[{i}]") for i, mat in enumerate(action_doc)]


def _coaction_in(doc: dict, hopf: HopfAlgebraData, dim: int, context: str):
    coaction_doc = _expect(doc, "coaction", list, context)
    return _tensor_in(hopf.field, coaction_doc, (dim, dim, hopf.dim), f"{context}: coaction")


def module_from_doc(doc: dict, hopf: HopfAlgebraData) -> ModuleRep:
    name, context, dim = _object_header(doc, "module")
    return ModuleRep(hopf, dim, _action_in(doc, hopf, dim, context), name=name)


def comodule_to_doc(c: ComoduleRep) -> dict:
    return {
        "name": c.name,
        "hopf": c.hopf.name,
        "dim": c.dim,
        "coaction": _tensor_out(c.field, c.coaction),
    }


def comodule_from_doc(doc: dict, hopf: HopfAlgebraData) -> ComoduleRep:
    name, context, dim = _object_header(doc, "comodule")
    return ComoduleRep(hopf, dim, _coaction_in(doc, hopf, dim, context), name=name)


def yd_to_doc(y: YDModuleRep) -> dict:
    return {
        "name": y.name,
        "hopf": y.hopf.name,
        "dim": y.dim,
        "action": [_matrix_out(a) for a in y.module.action],
        "coaction": _tensor_out(y.field, y.comodule.coaction),
    }


def yd_from_doc(doc: dict, hopf: HopfAlgebraData) -> YDModuleRep:
    name, context, dim = _object_header(doc, "yd")
    module = ModuleRep(hopf, dim, _action_in(doc, hopf, dim, context), name=name)
    comodule = ComoduleRep(hopf, dim, _coaction_in(doc, hopf, dim, context), name=name)
    return YDModuleRep(module, comodule, name=name)


def object_to_doc(obj) -> dict:
    encode = {"hopf": hopf_to_doc, "module": module_to_doc, "comodule": comodule_to_doc, "yd": yd_to_doc}
    kind = getattr(obj, "kind", None)
    if kind not in encode:
        raise TypeError(f"cannot serialize {obj!r}")
    return encode[kind](obj)


def detect_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "mult" in doc and "comult" in doc:
        return "hopf"
    if "action" in doc and "coaction" in doc:
        return "yd"
    if "action" in doc:
        return "module"
    if "coaction" in doc:
        return "comodule"
    raise ParseError("document has none of the recognized shapes (hopf/module/comodule/yd)")


def object_from_doc(doc: dict, resolve_hopf, unchecked: bool = False):
    """Parse any document; ``resolve_hopf`` maps a name reference to data."""
    kind = detect_kind(doc)
    if kind == "hopf":
        return hopf_from_doc(doc, unchecked=unchecked)
    ref = _expect(doc, "hopf", str, f"{kind} document")
    hopf = resolve_hopf(ref)
    if kind == "module":
        return module_from_doc(doc, hopf)
    if kind == "comodule":
        return comodule_from_doc(doc, hopf)
    return yd_from_doc(doc, hopf)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
