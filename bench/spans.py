"""Span tracing and scalar counting for hopfcheck, from outside the package.

``Tracer.install`` replaces each public function of every ``hopfcheck``
module (plus the few private ones the per-layer metrics need, and the
methods in ``METHODS``) by a timing wrapper.  The wrapper is installed at
every binding site: the defining module, every module that imported the
name with ``from .x import name``, and the package namespace.
``Tracer.uninstall`` puts the originals back.

Each call is a span with an id, its parent's id, a key such as
``duality.verify_serre`` and a field tag ("Q" or "Fp", taken from the
arguments, else the result, else the parent span).  Spans are folded into
per-(key, tag) aggregates as they close -- calls, inclusive seconds and self
seconds (duration minus the time covered by child spans).  Full span records
are kept in memory only for the keys outside ``HOT``; the matrix-kernel keys
run hundreds of thousands of times per pass and are aggregated only.

Scalar arithmetic is not wrapped: a wrapper on ~10^6 ``Fraction`` calls
would swamp the timings.  ``scalar_counts`` counts those calls with the
standard-library profiler instead, in a separate pass.
"""

from __future__ import annotations

import cProfile
import fractions
import itertools
import sys
import time
import types
from collections import defaultdict

PACKAGE = "hopfcheck"

# private functions the per-layer metrics are defined on
PRIVATE = {
    "catalog": ("_catalog", "_register"),
    "semisimple": ("_operator_semisimplicity",),
}

METHODS = {
    "matrix": {
        "Matrix": ("__mul__", "__add__", "__sub__", "scale", "kron", "rref", "transpose", "power"),
        "EchelonSpan": ("add",),
    },
    "hopf": {
        "HopfAlgebraData": ("check_hopf_axioms", "is_involutory", "dual_algebra"),
        "AlgebraData": ("check_algebra_axioms",),
    },
    "duality": {"SplitMonoCertificate": ("verify",)},
}

HOT = frozenset(
    f"matrix.{cls}.{m}" for cls, names in METHODS["matrix"].items() for m in names
)

TENSOR_KEYS = ("modules.tensor_modules", "comodules.tensor_comodules", "yd.tensor_yd")
# N (x) N* is built inside these; tensor_in_category is the dispatch hop between
SQUARE_PARENTS = frozenset(
    {
        "duality.verify_coev_equivariance",
        "duality.verify_ev_equivariance",
        "duality.verify_coev_colinearity",
        "duality.verify_ev_colinearity",
        "duality.build_strong_dual_certificates",
    }
)
ORACLE_KEYS = (
    "semisimple.brute_force_semisimple",
    "semisimple.brute_force_cosemisimple",
    "semisimple.brute_force_yd_semisimple",
)

TAGS = ("Q", "Fp")


def _field_tag(field):
    char = getattr(field, "characteristic", None)
    if char is None:
        return None
    return "Q" if char == 0 else "Fp"


def tag_of(value):
    """"Q" / "Fp" for anything that carries a base field, else None."""
    if isinstance(value, dict):
        ref = value.get("hopf")
        if isinstance(ref, str) and "/" in ref:
            return "Q" if ref.split("/")[1] == "Q" else "Fp"
        spec = value.get("field")
        if spec == "Q":
            return "Q"
        if isinstance(spec, dict):
            return "Fp"
        return None
    if isinstance(value, (list, tuple, str, int)) or value is None:
        return None
    tag = _field_tag(value)
    if tag:
        return tag
    field = getattr(value, "field", None)
    if field is None:
        payload = getattr(value, "payload", None)
        field = getattr(payload, "field", None) if payload is not None else None
    return _field_tag(field) if field is not None else None


def _args_tag(args):
    for a in args:
        tag = tag_of(a)
        if tag:
            return tag
    return None


def _self_tag(args):
    return "Q" if args[0].field.characteristic == 0 else "Fp"


class Tracer:
    """Span wrappers around hopfcheck; aggregates live on the instance."""

    def __init__(self):
        self.stack: list = []
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (key, tag) -> calls, total, self
        self.extra: dict = defaultdict(float)  # (metric, tag) -> value
        self.spans: list = []  # (id, parent id, key, tag, start, duration) outside HOT
        self.merged_spans = 0  # span records kept by child processes
        self._ids = itertools.count(1)
        self._patches: list = []
        self._decided: set = set()
        self._hooks = {
            "matrix.Matrix.rref": self._hook_rref,
            "matrix.EchelonSpan.add": self._hook_echelon,
            "semisimple.spin_algebra": self._hook_spin,
            "semisimple._operator_semisimplicity": self._hook_decide,
            "documents.canonical_json": self._hook_emit,
        }
        for key in TENSOR_KEYS:
            self._hooks[key] = self._hook_tensor
        for key in ORACLE_KEYS:
            self._hooks[key] = self._hook_oracle

    # installation ---------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1 :]
            if not short:
                continue
            for name, value in list(vars(mod).items()):
                public = (
                    not name.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                )
                if (public or name in PRIVATE.get(short, ())) and id(value) not in wrappers:
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{name}", value, _args_tag))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                tagger = _self_tag if short == "matrix" else _args_tag
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original, tagger))
        # every binding site: defining module, importers, package namespace
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.stack.clear()

    def _wrap(self, key, fn, tagger):
        stack = self.stack
        ids = self._ids
        perf = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), key, tagger(args) if args else None, 0.0, parent]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, start, args, None, exc)
                raise
            close(frame, start, args, result, None)
            return result

        return wrapper

    def _close(self, frame, start, args, result, exc):
        duration = time.perf_counter() - start
        self.stack.pop()
        span_id, key, tag, child, parent = frame
        if tag is None:
            tag = tag_of(result) or (parent[2] if parent is not None else None) or "all"
            frame[2] = tag
        if parent is not None:
            parent[3] += duration
        acc = self.agg[(key, tag)]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - child
        if key not in HOT:
            self.spans.append((span_id, parent[0] if parent else 0, key, tag, start, duration))
        hook = self._hooks.get(key)
        if hook is not None:
            hook(frame, args, result, exc)

    # per-key counters -------------------------------------------------------------

    def _hook_rref(self, frame, args, result, exc):
        self.extra[("rref_cells", frame[2])] += args[0].rows * args[0].cols

    def _hook_echelon(self, frame, args, result, exc):
        if result:
            self.extra[("echelon_useful", frame[2])] += 1

    def _hook_spin(self, frame, args, result, exc):
        if result is not None:
            self.extra[("acting_dim_sum", frame[2])] += len(result)

    def _hook_decide(self, frame, args, result, exc):
        dim, operators = args[1], args[2]
        key = (frame[2], dim, tuple(tuple(x for row in m.entries for x in row) for m in operators))
        if key in self._decided:
            self.extra[("decide_repeats", frame[2])] += 1
        self._decided.add(key)

    def _hook_emit(self, frame, args, result, exc):
        if result is not None:
            self.extra[("bytes_out", frame[2])] += len(result.encode("utf-8"))

    def _hook_tensor(self, frame, args, result, exc):
        tag = frame[2]
        if result is not None:
            self.extra[(f"{frame[1].split('.')[0]}.tensor_dim_sum", tag)] += result.dim
        parent = frame[4]
        if parent is not None and parent[1] == "duality.tensor_in_category":
            parent = parent[4]
        if parent is not None and parent[1] in SQUARE_PARENTS:
            self.extra[("square_builds", tag)] += 1

    def _hook_oracle(self, frame, args, result, exc):
        if exc is not None and type(exc).__name__ == "BoundExceededError":
            self.extra[("oracle_skipped", frame[2])] += 1

    # export / merge ---------------------------------------------------------------

    def calls(self, key) -> int:
        return sum(v[0] for (k, _), v in self.agg.items() if k == key)

    def export(self) -> dict:
        return {
            "agg": [[k, t, *v] for (k, t), v in self.agg.items()],
            "extra": [[m, t, v] for (m, t), v in self.extra.items()],
            "spans": len(self.spans),
        }

    def merge(self, exported: dict):
        for key, tag, calls, total, self_s in exported["agg"]:
            acc = self.agg[(key, tag)]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for metric, tag, value in exported["extra"]:
            self.extra[(metric, tag)] += value
        self.merged_spans += exported["spans"]


# scalar counts from the profiler --------------------------------------------------

_Q_ARITHMETIC = frozenset({"_add", "_sub", "_mul", "_div", "__neg__"})


def scalar_counts(fn):
    """Run ``fn()`` under cProfile; return (result, counts of scalar calls)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, counts_from_profile(prof)


def counts_from_profile(prof) -> dict:
    from hopfcheck import fields

    q_invert = fields.Rationals.invert.__code__
    p_invert = fields.PrimeField.invert.__code__
    frac_file = fractions.__file__
    counts = {"q_ops": 0, "q_objects": 0, "invert_calls.Q": 0, "invert_calls.Fp": 0}
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        if code is q_invert:
            counts["invert_calls.Q"] += entry.callcount
        elif code is p_invert:
            counts["invert_calls.Fp"] += entry.callcount
        elif code.co_filename == frac_file:
            if code.co_name in _Q_ARITHMETIC:
                counts["q_ops"] += entry.callcount
            elif code.co_name == "__new__":
                counts["q_objects"] += entry.callcount
    return counts


# per-layer metrics ------------------------------------------------------------------

# (layer.metric, unit) reported once per field tag, as "<name>.Q" and "<name>.Fp"
SPLIT_METRICS = [
    ("hopf.axioms_s", "s"),
    ("hopf.axiom_checks", "count"),
    ("fields.invert_calls", "count"),
    ("matrix.mul_calls", "count"),
    ("matrix.mul_s", "s"),
    ("matrix.kron_s", "s"),
    ("matrix.add_s", "s"),
    ("matrix.rref_calls", "count"),
    ("matrix.rref_s", "s"),
    ("matrix.rref_cells", "count"),
    ("matrix.echelon_adds", "count"),
    ("matrix.echelon_s", "s"),
    ("matrix.echelon_useful_ratio", "ratio"),
]
for _layer, _tensor, _dual, _hom, _axioms, _extra in (
    ("modules", "tensor_modules", "dual_module", "hom_space", "check_module_axioms", None),
    ("comodules", "tensor_comodules", "dual_comodule", "colinear_hom_space", "check_comodule_axioms", "to_module_s"),
    ("yd", "tensor_yd", "dual_yd", "yd_hom_space", "check_yd_compat", "compat_s"),
):
    SPLIT_METRICS += [
        (f"{_layer}.tensor_calls", "count"),
        (f"{_layer}.tensor_s", "s"),
        (f"{_layer}.tensor_dim_sum", "count"),
        (f"{_layer}.dual_s", "s"),
        (f"{_layer}.hom_s", "s"),
        (f"{_layer}.axioms_s", "s"),
    ]
    if _extra:
        SPLIT_METRICS.append((f"{_layer}.{_extra}", "s"))
SPLIT_METRICS += [
    ("semisimple.decide_calls", "count"),
    ("semisimple.decide_s", "s"),
    ("semisimple.decide_repeat_ratio", "ratio"),
    ("semisimple.spin_s", "s"),
    ("semisimple.acting_dim_sum", "count"),
    ("semisimple.charpoly_calls", "count"),
    ("semisimple.oracle_calls", "count"),
    ("semisimple.oracle_s", "s"),
    ("semisimple.oracle_skipped", "count"),
    ("duality.serre_s", "s"),
    ("duality.cert_calls", "count"),
    ("duality.cert_s", "s"),
    ("duality.equivariance_s", "s"),
    ("duality.square_builds_per_object", "ratio"),
    ("documents.load_s", "s"),
    ("documents.emit_s", "s"),
    ("documents.bytes_out", "bytes"),
]

UNSPLIT_METRICS = [
    ("catalog.build_s", "s"),
    ("catalog.entries_built", "count"),
    ("fields.q_ops", "count"),
    ("fields.q_objects", "count"),
    ("campaign.self_s", "s"),
    ("cli.interpreter_start_ms", "ms"),
    ("cli.import_s", "s"),
    ("cli.catalog_s", "s"),
    ("cli.command_s", "s"),
    ("trace.overhead_s", "s"),
]


def metric_units() -> dict:
    units = {f"{name}.{tag}": unit for name, unit in SPLIT_METRICS for tag in TAGS}
    units.update(dict(UNSPLIT_METRICS))
    return units


def layer_metrics(tracer: Tracer, counts: dict, cli: dict, overhead_s: float) -> dict:
    """Every per-layer metric by name; layers a workload does not touch read 0."""
    agg, extra = tracer.agg, tracer.extra

    def calls(keys, tag):
        return sum(agg[(k, tag)][0] for k in keys if (k, tag) in agg)

    def total(keys, tag):
        return sum(agg[(k, tag)][1] for k in keys if (k, tag) in agg)

    def self_s(keys, tag):
        return sum(agg[(k, tag)][2] for k in keys if (k, tag) in agg)

    def ratio(num, den):
        return num / den if den else 0.0

    def everywhere(stat, keys):
        return sum(stat(keys, tag) for tag in TAGS + ("all",))

    out = {}
    for tag in TAGS:
        x = lambda metric: extra.get((metric, tag), 0)  # noqa: E731
        m = {
            "hopf.axioms_s": total(["hopf.HopfAlgebraData.check_hopf_axioms"], tag),
            "hopf.axiom_checks": calls(["hopf.HopfAlgebraData.check_hopf_axioms"], tag),
            "fields.invert_calls": counts.get(f"invert_calls.{tag}", 0),
            "matrix.mul_calls": calls(["matrix.Matrix.__mul__"], tag),
            "matrix.mul_s": total(["matrix.Matrix.__mul__"], tag),
            "matrix.kron_s": total(["matrix.Matrix.kron"], tag),
            "matrix.add_s": total(["matrix.Matrix.__add__", "matrix.Matrix.__sub__", "matrix.Matrix.scale"], tag),
            "matrix.rref_calls": calls(["matrix.Matrix.rref"], tag),
            "matrix.rref_s": total(["matrix.Matrix.rref"], tag),
            "matrix.rref_cells": x("rref_cells"),
            "matrix.echelon_adds": calls(["matrix.EchelonSpan.add"], tag),
            "matrix.echelon_s": total(["matrix.EchelonSpan.add"], tag),
            "matrix.echelon_useful_ratio": ratio(x("echelon_useful"), calls(["matrix.EchelonSpan.add"], tag)),
        }
        for layer, tensor, dual, hom, axioms, extra_metric, extra_key in (
            ("modules", "tensor_modules", "dual_module", "hom_space", "check_module_axioms", None, None),
            ("comodules", "tensor_comodules", "dual_comodule", "colinear_hom_space", "check_comodule_axioms",
             "to_module_s", "comodule_to_dual_module"),
            ("yd", "tensor_yd", "dual_yd", "yd_hom_space", "check_yd_compat", "compat_s", "check_yd_compat"),
        ):
            m[f"{layer}.tensor_calls"] = calls([f"{layer}.{tensor}"], tag)
            m[f"{layer}.tensor_s"] = total([f"{layer}.{tensor}"], tag)
            m[f"{layer}.tensor_dim_sum"] = x(f"{layer}.tensor_dim_sum")
            m[f"{layer}.dual_s"] = total([f"{layer}.{dual}"], tag)
            m[f"{layer}.hom_s"] = total([f"{layer}.{hom}"], tag)
            m[f"{layer}.axioms_s"] = total([f"{layer}.{axioms}"], tag)
            if extra_metric == "to_module_s":
                m[f"{layer}.to_module_s"] = total([f"{layer}.{extra_key}"], tag)
            elif extra_metric == "compat_s":
                # the compatibility loop itself: module/comodule sub-checks are child spans
                m[f"{layer}.compat_s"] = self_s([f"{layer}.{extra_key}"], tag)
        decide = ["semisimple._operator_semisimplicity"]
        cert = ["duality.build_strong_dual_certificates"]
        m.update(
            {
                "semisimple.decide_calls": calls(decide, tag),
                "semisimple.decide_s": self_s(decide, tag),
                "semisimple.decide_repeat_ratio": ratio(x("decide_repeats"), calls(decide, tag)),
                "semisimple.spin_s": total(["semisimple.spin_algebra"], tag),
                "semisimple.acting_dim_sum": x("acting_dim_sum"),
                "semisimple.charpoly_calls": calls(["semisimple.charpoly"], tag),
                "semisimple.oracle_calls": calls(ORACLE_KEYS, tag),
                "semisimple.oracle_s": total(ORACLE_KEYS, tag),
                "semisimple.oracle_skipped": x("oracle_skipped"),
                "duality.serre_s": total(["duality.verify_serre"], tag),
                "duality.cert_calls": calls(cert, tag),
                "duality.cert_s": total(cert, tag),
                "duality.equivariance_s": total(sorted(SQUARE_PARENTS - {cert[0]}), tag),
                "duality.square_builds_per_object": ratio(x("square_builds"), calls(cert, tag)),
                "documents.load_s": total(["documents.object_from_doc", "documents.load_document"], tag),
                "documents.emit_s": total(["documents.object_to_doc", "documents.canonical_json"], tag),
                "documents.bytes_out": x("bytes_out"),
            }
        )
        out.update({f"{name}.{tag}": value for name, value in m.items()})
    out.update(
        {
            "catalog.build_s": everywhere(total, ["catalog._catalog"]),
            "catalog.entries_built": everywhere(calls, ["catalog._register"]),
            "fields.q_ops": counts.get("q_ops", 0),
            "fields.q_objects": counts.get("q_objects", 0),
            "campaign.self_s": everywhere(self_s, ["campaign.run_campaign"]),
            "cli.interpreter_start_ms": cli.get("interpreter_start_ms", 0.0),
            "cli.import_s": cli.get("import_s", 0.0),
            "cli.catalog_s": cli.get("catalog_s", 0.0),
            "cli.command_s": cli.get("command_s", 0.0),
            "trace.overhead_s": overhead_s,
        }
    )
    return out
