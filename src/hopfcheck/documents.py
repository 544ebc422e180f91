"""JSON document format for structure-constant data.

One document per object, with exactly the keys of its kind (``KEYS``; a
document with any other key is refused):

* Hopf algebra: ``{name, field, dim, mult, comult, unit, counit, antipode}``
* module:       ``{name, hopf, dim, action}``   (hopf is a name reference)
* comodule:     ``{name, hopf, dim, coaction}``
* YD module:    ``{name, hopf, dim, action, coaction}``

Every structure-constant array is read by ``_table_in`` and written by
``Field.table_to_doc``.

Rationals are encoded as strings "a/b" or "a"; prime-field residues as
integers in [0, p); the field itself as "Q" or {"Fp": p}.  Emission is
canonical (sorted keys, fixed indentation), so emitted documents re-parse
and re-serialize bit-for-bit.
"""

from __future__ import annotations

import json

from .comodules import ComoduleRep
from .errors import MAX_HOPF_DIM, ParseError
from .fields import Field, field_from_doc
from .hopf import HopfAlgebraData
from .matrix import Matrix
from .modules import ModuleRep
from .yd import YDModuleRep

# every key of each kind of document; all are required and no other is read
KEYS = {
    "hopf": ("name", "field", "dim", "mult", "comult", "unit", "counit", "antipode"),
    "module": ("name", "hopf", "dim", "action"),
    "comodule": ("name", "hopf", "dim", "coaction"),
    "yd": ("name", "hopf", "dim", "action", "coaction"),
}


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


# a table's levels named from the innermost out, for its length errors
_LEVELS = ("entries", "rows", "slabs")


def _table_in(field: Field, value, shape: tuple[int, ...], context: str) -> list:
    """The nested array ``value`` of the given shape, as scalars of ``field``.

    Every level is checked for being an array of the right length, and an
    error names the level and its index path, e.g. ``mult[1][0]: expected 2
    entries``; a bad scalar is reported on the path of its innermost array.
    """
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ParseError(f"{context}: expected {shape[0]} {_LEVELS[len(shape) - 1]}")
    if len(shape) > 1:
        return [_table_in(field, v, shape[1:], f"{context}[{i}]") for i, v in enumerate(value)]
    try:
        return [field.scalar_from_doc(x) for x in value]
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from None


def _table(doc: dict, key: str, field: Field, shape: tuple[int, ...], context: str) -> list:
    """The array under ``key``, read by ``_table_in``."""
    return _table_in(field, _expect(doc, key, list, context), shape, f"{context}: {key}")


def _refuse_unknown_keys(doc: dict, kind: str, context: str):
    unknown = next((key for key in doc if key not in KEYS[kind]), None)
    if unknown is not None:
        raise ParseError(f"{context}: unknown field {unknown!r}")


# Hopf documents ---------------------------------------------------------------


def hopf_to_doc(h: HopfAlgebraData) -> dict:
    out = h.field.table_to_doc
    return {
        "name": h.name,
        "field": h.field.spec_to_doc(),
        "dim": h.dim,
        "mult": out(h.mult),
        "comult": out(h.comult),
        "unit": out(h.unit),
        "counit": out(h.counit),
        "antipode": out(h.antipode.entries),
    }


def hopf_from_doc(doc: dict) -> HopfAlgebraData:
    name = _expect(doc, "name", str, "hopf document")
    context = f"hopf document {name!r}"
    _refuse_unknown_keys(doc, "hopf", context)
    spec = _expect(doc, "field", None, context)
    try:
        field = field_from_doc(spec)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from None
    dim = _expect(doc, "dim", int, context)
    if dim < 1:
        raise ParseError(f"{context}: dim must be at least 1")
    if dim > MAX_HOPF_DIM:
        raise ParseError(f"{context}: dim {dim} exceeds the limit of {MAX_HOPF_DIM}")
    mult = _table(doc, "mult", field, (dim, dim, dim), context)
    comult = _table(doc, "comult", field, (dim, dim, dim), context)
    unit = _table(doc, "unit", field, (dim,), context)
    counit = _table(doc, "counit", field, (dim,), context)
    antipode = Matrix(field, dim, dim, _table(doc, "antipode", field, (dim, dim), context))
    return HopfAlgebraData(field, dim, mult, unit, comult, counit, antipode, name=name)


# module/comodule/YD documents ---------------------------------------------------


def module_to_doc(m: ModuleRep) -> dict:
    action = m.field.table_to_doc([a.entries for a in m.action])
    return {"name": m.name, "hopf": m.algebra.name, "dim": m.dim, "action": action}


def _object_header(doc: dict, kind: str):
    """The name, the error context and the dim of a ``kind`` document."""
    name = _expect(doc, "name", str, f"{kind} document")
    context = f"{kind} document {name!r}"
    _refuse_unknown_keys(doc, kind, context)
    dim = _expect(doc, "dim", int, context)
    if dim < 0:
        raise ParseError(f"{context}: dim must be nonnegative")
    return name, context, dim


def _action_in(doc: dict, hopf: HopfAlgebraData, dim: int, context: str) -> list[Matrix]:
    action_doc = _expect(doc, "action", list, context)
    if len(action_doc) != hopf.dim:
        raise ParseError(f"{context}: expected {hopf.dim} action matrices")
    action = _table_in(hopf.field, action_doc, (hopf.dim, dim, dim), f"{context}: action")
    return [Matrix(hopf.field, dim, dim, a) for a in action]


def _coaction_in(doc: dict, hopf: HopfAlgebraData, dim: int, context: str) -> list:
    return _table(doc, "coaction", hopf.field, (dim, dim, hopf.dim), context)


def module_from_doc(doc: dict, hopf: HopfAlgebraData) -> ModuleRep:
    name, context, dim = _object_header(doc, "module")
    return ModuleRep(hopf, dim, _action_in(doc, hopf, dim, context), name=name)


def comodule_to_doc(c: ComoduleRep) -> dict:
    return {"name": c.name, "hopf": c.hopf.name, "dim": c.dim, "coaction": c.field.table_to_doc(c.coaction)}


def comodule_from_doc(doc: dict, hopf: HopfAlgebraData) -> ComoduleRep:
    name, context, dim = _object_header(doc, "comodule")
    return ComoduleRep(hopf, dim, _coaction_in(doc, hopf, dim, context), name=name)


def yd_to_doc(y: YDModuleRep) -> dict:
    """The module's document under the YD object's name, with the coaction."""
    return dict(module_to_doc(y.module), name=y.name, coaction=y.field.table_to_doc(y.comodule.coaction))


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


def object_from_doc(doc: dict, resolve_hopf):
    """Parse any document; ``resolve_hopf`` maps a name reference to data.
    Nothing is checked here: the object's laws are computed when first read
    (``modules.require_laws``)."""
    kind = detect_kind(doc)
    if kind == "hopf":
        return hopf_from_doc(doc)
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
