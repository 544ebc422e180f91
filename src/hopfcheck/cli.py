"""Command-line interface.

Exit codes: 0 = all checks consistent, 1 = axiom or theorem failure,
2 = usage or parse error.

The machine-readable report is the contract; the table is a view of it.

Each command imports the modules that only it runs (``documents``,
``semisimple``, ``duality``, ``campaign``) when it is called, so a request
compiles and loads no more: ``check`` of a catalog id loads neither the
document codec nor any decision code.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .catalog import CATEGORIES, catalog_entries, lookup
from .errors import DEFAULT_ORACLE_BOUND, MAX_HOPF_DIM, AxiomError, BoundExceededError, HopfMismatchError, ParseError
from .fields import field_by_name, field_name
from .hopf import HopfAlgebraData
from .modules import axioms_in_category

# the largest product ``tensor`` builds: its action holds (dim M dim N)^2
# entries per basis element of H, so memory grows as the fourth power of the
# factors' dimension; MAX_HOPF_DIM^2 still squares the regular module of the
# largest Hopf document accepted
MAX_TENSOR_DIM = MAX_HOPF_DIM**2


def _resolve_hopf(ref: str) -> HopfAlgebraData:
    entry = lookup(ref)
    if entry.kind != "hopf":
        raise ParseError(f"{ref!r} names a {entry.kind}, not a Hopf algebra")
    return entry.payload


def _load_target(target: str, unchecked: bool = False):
    """A catalog id or a path to a JSON document; unless ``unchecked``, an
    object failing its axioms, a tagged negative fixture among them, is
    refused with an ``AxiomError``."""
    if target.endswith(".json"):
        from .documents import load_document, object_from_doc

        obj, entry = object_from_doc(load_document(target), _resolve_hopf, unchecked=unchecked), None
    else:
        try:
            entry = lookup(target)
        except KeyError as exc:
            raise ParseError(str(exc)) from None
        obj = entry.payload
    # the report reads the laws the object computed when first checked: a
    # Hopf algebra's in its constructor, a catalog entry's when built
    if not unchecked:
        report = axioms_in_category(obj)
        if not report.ok:
            raise AxiomError(report)
    return obj, entry


def _write_or_print(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # a usage error, not a failed law: exit status 2
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _write_document(obj, out: str | None):
    from .documents import canonical_json, object_to_doc

    _write_or_print(canonical_json(object_to_doc(obj)), out)


def _cmd_check(args) -> int:
    obj, entry = _load_target(args.target, unchecked=True)
    report = axioms_in_category(obj)
    line = f"{obj.kind} axioms: {'PASS' if report.ok else 'FAIL'}"
    if obj.kind == "hopf":
        witness = obj.involution_violation
        line += ", involutory: " + ("yes" if witness is None else f"NO (S^2 != id on basis element {witness})")
    print(line)
    if not report.ok:
        failed = {c.name for c in report.failures()}
        for check in report.failures():
            print(f"  {check.describe()}")
        # only a Hopf algebra's table holds these two laws
        if failed & {"associativity", "unit"}:
            print("  (the antipode laws are read on the regular module: not meaningful until associativity and unit pass)")
        if entry is not None and entry.expected_failure in failed:
            print(f"  (tagged negative fixture: expected to fail {entry.expected_failure})")
            return 0
        return 1
    return 0


def _cmd_semisimple(args) -> int:
    from .duality import category_of
    from .semisimple import brute_force_semisimple, is_semisimple

    obj, _ = _load_target(args.target)
    category_of(obj)  # a Hopf algebra is not an object to decide
    report = is_semisimple(obj)
    line = f"{str(report.verdict).lower()} (radical dim {report.radical_dim}, method {report.method})"
    if args.oracle:
        try:
            agreement = brute_force_semisimple(obj, args.bound or DEFAULT_ORACLE_BOUND) == report.verdict
            line += ", oracle: agrees" if agreement else ", oracle: DISAGREES"
            if not agreement:
                print(line)
                return 1
        except BoundExceededError as exc:
            line += f", oracle: skipped ({exc})"
    print(line)
    return 0


def _cmd_dual(args) -> int:
    from .duality import dual_in_category

    obj, _ = _load_target(args.target)
    _write_document(dual_in_category(obj), args.out)
    return 0


def _cmd_tensor(args) -> int:
    from .duality import tensor_in_category

    a, _ = _load_target(args.left)
    b, _ = _load_target(args.right)
    if a.dim * b.dim > MAX_TENSOR_DIM:
        raise ValueError(f"a tensor product of dimension {a.dim} x {b.dim} exceeds the limit of {MAX_TENSOR_DIM}")
    _write_document(tensor_in_category(a, b), args.out)
    return 0


def _cmd_export(args) -> int:
    obj, _ = _load_target(args.target)
    _write_document(obj, args.out)
    return 0


def _cmd_list(args) -> int:
    for entry in catalog_entries():
        if args.kind and entry.kind != args.kind:
            continue
        tag = f"  [negative: {entry.expected_failure}]" if entry.expected_failure else ""
        print(f"{entry.kind:9s} {entry.id}{tag}")
    return 0


def _render_table(report) -> str:
    lines = []
    lines.append(f"{'tool version':28s} {report.tool_version}")
    lines.append(f"{'fields':28s} {', '.join(report.field_list)}")
    lines.append(f"{'categories':28s} {', '.join(report.categories)}")
    lines.append(f"{'entries checked':28s} {report.entries_checked}")
    lines.append(f"{'tensor pairs checked':28s} {report.pairs_checked}")
    lines.append(f"{'axiom failures':28s} {len(report.axiom_failures)}")
    lines.append(f"{'pairing identity instances':28s} {report.eq_pairing['instances']}")
    lines.append(f"{'pairing identity failures':28s} {len(report.eq_pairing['failures'])}")
    dich = report.equivariance_dichotomy
    lines.append(f"{'coevaluation failures':28s} {len(dich['coevaluation_failures'])}")
    lines.append(f"{'evaluation passes':28s} {dich['evaluation_passes']}")
    lines.append(
        f"{'evaluation fails (invol.)':28s} {len(dich['evaluation_failures_involutory'])}"
    )
    lines.append(
        f"{'evaluation fails (non-inv.)':28s} {len(dich['evaluation_failures_noninvolutory'])}"
    )
    certs = report.certificates
    lines.append(f"{'certificates verified':28s} {certs['built_and_verified']}")
    lines.append(f"{'rank-not-invertible refusals':28s} {len(certs['rank_not_invertible'])}")
    lines.append(f"{'non-involutory refusals':28s} {len(certs['not_involutory'])}")
    if report.oracle.get("enabled"):
        lines.append(f"{'oracle agreements':28s} {report.oracle['checked']}")
        lines.append(f"{'oracle skipped (bound)':28s} {len(report.oracle['skipped_bound_exceeded'])}")
    chev = report.chevalley_observation
    lines.append(
        f"{'both factors semisimple':28s} {chev['pairs_with_both_factors_semisimple']}"
        f" (tensor semisimple in {chev['of_those_tensor_semisimple']};"
        f" {chev['label']})"
    )
    lines.append(f"{'counterexamples':28s} {len(report.counterexamples)}")
    for ce in report.counterexamples:
        lines.append(f"  !! {ce}")
    lines.append(f"{'wall time (s)':28s} {report.wall_time:.2f}")
    lines.append(f"{'result':28s} {'CONSISTENT' if report.ok else 'FAILED'}")
    return "\n".join(lines) + "\n"


def _cmd_campaign(args) -> int:
    from .campaign import run_campaign
    from .documents import canonical_json

    categories = CATEGORIES if args.category == "all" else (args.category,)
    fields = None
    if args.field:
        fields = [field_name(field_by_name(f)) for f in args.field]
    report = run_campaign(
        categories=categories,
        fields=fields,
        oracle=args.oracle,
        bound=args.bound or DEFAULT_ORACLE_BOUND,
    )
    if args.format == "machine":
        text = canonical_json(report.to_doc())
    else:
        text = _render_table(report)
    _write_or_print(text, args.out)
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="Exact checks for Hopf-algebra modules, comodules and YD modules",
    )
    parser.add_argument("--version", action="version", version=f"hopfcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checker on a catalog id or JSON document")
    p.add_argument("target", help="catalog id (e.g. kC2/Q/regular) or path to a .json document")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("semisimple", help="decide (co)semisimplicity of an object")
    p.add_argument("target")
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle")
    p.add_argument(
        "--bound",
        type=_positive_int,
        help=f"oracle cap on p^dim (its graph has (p^dim-1)/(p-1) lines; it spins one per sink component; default {DEFAULT_ORACLE_BOUND})",
    )
    p.set_defaults(func=_cmd_semisimple)

    p = sub.add_parser("dual", help="construct the dual object and emit its document")
    p.add_argument("target")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("tensor", help="construct a tensor product and emit its document")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("export", help="emit the document of a catalog entry")
    p.add_argument("target")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("list", help="list catalog entries")
    p.add_argument("--kind", choices=("hopf",) + CATEGORIES)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("campaign", help="run the full verification campaign")
    p.add_argument("--category", choices=("all",) + CATEGORIES, default="all")
    p.add_argument("--field", action="append", help="restrict to a base field (repeatable): Q, F2, ...")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.add_argument("--out")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--bound", type=_positive_int)
    p.set_defaults(func=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "bound", None) is not None and not args.oracle:
            # the bound caps only the oracle: ignoring it would hide a mistyped request
            parser.error("--bound applies only with --oracle")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        for check in exc.report.failures():
            print(f"  {check.describe()}", file=sys.stderr)
        return 1
    except (HopfMismatchError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
