"""Command-line surface.

Exit codes: 0 success, 1 violated invariant (a false order in
``compare-ideals`` or ``bott-check``, or input that breaks a structural
invariant), 2 malformed input, 3 refusal on mathematical grounds.
``verify-order`` prints its verdict, true or false, and exits 0.
Output is deterministic: same inputs, same bytes.  ``--format json``
swaps the ASCII tables for a single JSON document with stable key
order.

Repeated ``main`` calls in one process reuse what does not depend on
the arguments: the argument parser, built on the first call, and the
complexes loaded from ``-c`` / ``-p`` files.  Every call reads its
file afresh; the validated ``ChainComplex`` is then looked up by
(input kind, file text) in an LRU of ``COMPLEX_CACHE_SIZE`` entries,
so identical bytes give the same object (with the facts memoised on it:
Betti vectors and jump data) and edited bytes are parsed
and validated anew.  Input errors are never cached.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import (
    all_jump_points,
    classify,
    jump_points,
    select_prime,
    zero_bounds,
)
from .complexes import (
    ChainComplex,
    _json_int,
    betti,
    dominates,
    euler_characteristic,
    specialization_order_check,
)
from .deformation import (
    BottComponentData,
    GroupRingPresentation,
    bott_inequality_check,
    build_deformation,
    mapping_torus,
    trefoil_model_complex,
    trefoil_surgery_example,
)
from .errors import (
    DomainRefusal,
    FormzerosError,
    InputError,
    InvariantViolation,
    SchemaError,
)
from .fields import AlgebraicNumberSpec, FieldTarget, PrimeField, Rationals
from .poly import Poly

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_REFUSAL = 3

# Distinct complex files kept loaded, enough for a sweep that cycles
# through a dozen inputs.
COMPLEX_CACHE_SIZE = 16


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_complex(args) -> ChainComplex:
    if getattr(args, "complex", None):
        return _complex_from_text("complex", _read_file(args.complex))
    return _complex_from_text("presentation", _read_file(args.presentation))


@functools.lru_cache(maxsize=COMPLEX_CACHE_SIZE)
def _complex_from_text(kind: str, text: str) -> ChainComplex:
    """The validated complex of a file's text; a raised error leaves
    no entry behind."""
    if kind == "complex":
        return ChainComplex.from_json(text)
    return build_deformation(GroupRingPresentation.from_json(text))


def _parse_target(spec: str) -> FieldTarget:
    """Target syntax for ``betti --at``: where the variable goes.

    zero | zero:p, or a number spec (transcendental | root:POLY |
    rat:p/q | int:n) that the variable is sent to
    """
    spec = spec.strip()
    if spec == "zero":
        return Rationals()
    if spec.startswith("zero:"):
        try:
            p = int(spec[5:])
        except ValueError:
            raise SchemaError(f"bad prime in target {spec!r}") from None
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise DomainRefusal(str(exc)) from None
    if spec == "transcendental" or spec.startswith(("root:", "rat:", "int:")):
        return AlgebraicNumberSpec.parse(spec).field_target()
    raise SchemaError(
        f"unrecognised target {spec!r} (expected transcendental, root:POLY, "
        "rat:p/q, int:n, zero, or zero:p)"
    )


def _parse_coeff_list(text: str) -> Poly:
    try:
        coeffs = [int(x.strip()) for x in text.split(",")]
    except ValueError:
        raise SchemaError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None
    return Poly(coeffs)


def _emit(args, table_lines, json_doc) -> None:
    if args.format == "json":
        print(json.dumps(json_doc, indent=2))
    else:
        for line in table_lines:
            print(line)


def _classification_phrase(cls) -> str:
    if not cls.is_algebraic:
        return "transcendental"
    if cls.is_dirichlet_unit:
        return "Dirichlet unit"
    if cls.is_algebraic_integer:
        return "algebraic integer, not a unit"
    return "algebraic, not an algebraic integer"


# -- commands --------------------------------------------------------


def cmd_betti(args) -> int:
    cx = _load_complex(args)
    target = _parse_target(args.at)
    bv = betti(cx, target)
    euler = euler_characteristic(cx, target)
    _emit(
        args,
        [
            f"target: {bv.target}",
            " ".join(f"b{i}={b}" for i, b in enumerate(bv.entries)),
            f"euler = {euler}",
        ],
        {"target": bv.target, "betti": list(bv.entries), "euler": euler},
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    cx = _load_complex(args)
    a = AlgebraicNumberSpec.parse(args.a)
    report = zero_bounds(cx, a, args.dim_e, args.prime)
    cls = report.classification
    # for an algebraic integer the prime divides the free term of a's
    # own minimal polynomial, not of the reciprocal's
    ideal = (
        f"({cls.primitive_minpoly.format()})"
        if cls.is_algebraic_integer
        else report.ideal_at_inverse
    )
    lines = [
        f"a: {report.a}",
        f"classification: {_classification_phrase(cls)}",
        f"dim E: {report.dim_e}",
        f"target: {report.target}",
        "betti: (" + ", ".join(str(b) for b in report.betti) + ")",
        f"prime: {report.prime} ({report.prime_reason})",
        f"ideals: {ideal} inside {report.boundary_ideal}",
        "weak bounds (exact): "
        + ", ".join(f"c_{j} >= {w}" for j, w in enumerate(report.weak)),
        "ceilings (integer sharpening): "
        + ", ".join(f"c_{j} >= {c}" for j, c in enumerate(report.ceilings)),
        "strong alternating bounds: "
        + ", ".join(f"S_{j} >= {s}" for j, s in enumerate(report.strong)),
    ]
    _emit(args, lines, report.to_json_dict())
    return EXIT_OK


def _jump_lines(reports) -> list:
    lines = []
    for rep in reports:
        lines.append(
            f"degree {rep.degree}: generic b = {rep.generic}, "
            f"candidate = {rep.candidate.format()}"
        )
        if not rep.factors:
            lines.append("  (no jump factors)")
        for f in rep.factors:
            tail = f"b = {f.value}" if f.value is not None else "not certified"
            lines.append(f"  {f.factor.format()}  [{f.status}]  {tail}")
    return lines


def cmd_jumps(args) -> int:
    if args.max_factor_degree < 0:
        raise SchemaError("--max-factor-degree must be nonnegative")
    cx = _load_complex(args)
    if args.degree is not None:
        reports = [jump_points(cx, args.degree, args.max_factor_degree)]
    else:
        reports = all_jump_points(cx, args.max_factor_degree)
    _emit(args, _jump_lines(reports), {"reports": [r.to_json_dict() for r in reports]})
    return EXIT_OK


def cmd_unit_check(args) -> int:
    a = AlgebraicNumberSpec.parse(args.number)
    cls = classify(a)
    yn = lambda v: "yes" if v else "no"
    lines = [
        f"input: {a.describe()}",
        f"algebraic: {yn(cls.is_algebraic)}",
        f"algebraic integer: {yn(cls.is_algebraic_integer)}",
        f"Dirichlet unit: {yn(cls.is_dirichlet_unit)}",
    ]
    doc = {"input": a.describe()}
    doc.update(cls.to_json_dict())
    _emit(args, lines, doc)
    return EXIT_OK


def cmd_verify_order(args) -> int:
    lhs = _parse_coeff_list(args.lhs)
    rhs = _parse_coeff_list(args.rhs)
    holds, witness = dominates(lhs, rhs)
    if holds:
        lines = [f"dominates: true, T = {witness.format()}"]
    else:
        lines = ["dominates: false"]
    _emit(
        args,
        lines,
        {
            "dominates": holds,
            "witness": list(witness.coeffs) if witness is not None else None,
        },
    )
    return EXIT_OK


def cmd_compare_ideals(args) -> int:
    cx = _load_complex(args)
    a = AlgebraicNumberSpec.parse(args.a)
    p = args.prime if args.prime is not None else select_prime(a).p
    rep = specialization_order_check(cx, a, p)
    lines = [
        f"ideal {rep.ideal_at_inverse} inside {rep.boundary_ideal}: containment ok",
        f"P at {rep.boundary_ideal}: {rep.poincare_modp.format()}",
        f"P at {rep.ideal_at_inverse}: {rep.poincare_at_inverse.format()}",
    ]
    if rep.holds:
        lines.append(f"dominates: true, T = {rep.witness.format()}")
    else:
        lines.append("dominates: false  (this indicates a bug)")
    _emit(args, lines, rep.to_json_dict())
    return EXIT_OK if rep.holds else EXIT_INVARIANT


def _load_components(text: str):
    if text.lstrip().startswith("["):
        raw = text
    else:
        raw = _read_file(text)
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or too many digits
        raise SchemaError(f"bad components JSON: {exc}") from None
    comps = []
    if not isinstance(data, list):
        raise SchemaError("components must be a JSON list")
    for item in data:
        try:
            comps.append(BottComponentData(
                _json_int(item["index"], "a component index"),
                tuple(_json_int(d, "a component dimension") for d in item["dims"]),
            ))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad component entry {item!r}: {exc}") from None
    return comps


def cmd_bott_check(args) -> int:
    comps = _load_components(args.components)
    rhs = _parse_coeff_list(args.rhs)
    rep = bott_inequality_check(comps, rhs, args.prime)
    lines = [
        f"lhs = {rep.lhs.format()}",
        f"rhs = {rep.rhs.format()}",
    ]
    if rep.prime is not None:
        lines.append(f"prime: {rep.prime}")
    if rep.holds:
        lines.append(f"dominates: true, T = {rep.witness.format()}")
    else:
        lines.append("dominates: false")
    _emit(args, lines, rep.to_json_dict())
    return EXIT_OK if rep.holds else EXIT_INVARIANT


def cmd_example(args) -> int:
    if args.kind == "trefoil":
        a = AlgebraicNumberSpec.parse(args.a)
        rep = trefoil_surgery_example(args.n, a)
        lines = [
            f"trefoil surgery model: N={rep.n}, a = {rep.a}",
            f"dim H1(X;F) = {rep.h1_X_F}",
            f"h1_M_generic = {rep.h1_M_generic}",
            f"h1_M_twisted = {rep.h1_M_twisted}",
        ]
        doc = rep.to_json_dict()
        if not a.is_algebraic and rep.h1_M_generic == 0:
            lines.append("note: all Novikov numbers vanish")
            doc["note"] = "all Novikov numbers vanish"
        if args.emit_complex:
            cx = trefoil_model_complex(args.n)
            with open(args.emit_complex, "w", encoding="utf-8") as fh:
                fh.write(cx.to_json() + "\n")
            lines.append(f"model complex written to {args.emit_complex}")
            doc["complex_file"] = args.emit_complex
        _emit(args, lines, doc)
        return EXIT_OK
    # mapping torus
    try:
        rows = json.loads(args.matrix)
    except ValueError as exc:  # JSONDecodeError, or too many digits
        raise SchemaError(f"bad matrix JSON: {exc}") from None
    cx = mapping_torus(rows)
    reports = all_jump_points(cx)
    cx_doc = cx.to_json_dict()
    lines = []
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(cx.to_json() + "\n")
        lines.append(f"complex written to {args.output}")
    else:
        lines.append(cx.to_json())
    lines.append("jump report:")
    lines += _jump_lines(reports)
    _emit(
        args,
        lines,
        {"complex": cx_doc, "jumps": [r.to_json_dict() for r in reports]},
    )
    return EXIT_OK


# -- wiring ----------------------------------------------------------


def _add_input_args(sub) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("-c", "--complex", help="chain-complex JSON file")
    grp.add_argument("-p", "--presentation", help="presentation JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formzeros",
        description="Exact homological lower bounds for zeros of closed one-forms.",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output style (default: table)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("betti", help="Betti numbers of a specialised complex")
    _add_input_args(sp)
    sp.add_argument("--at", required=True, help="specialisation target")
    sp.set_defaults(func=cmd_betti)

    sp = subs.add_parser("bounds", help="zero-count lower bounds")
    _add_input_args(sp)
    sp.add_argument("--a", required=True, help="twist number spec")
    sp.add_argument("--dim-e", type=int, default=1, help="rank of the bundle E")
    sp.add_argument("--prime", type=int, default=None, help="override the prime")
    sp.set_defaults(func=cmd_bounds)

    sp = subs.add_parser("jumps", help="where Betti numbers exceed generic")
    _add_input_args(sp)
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--max-factor-degree", type=int, default=8)
    sp.set_defaults(func=cmd_jumps)

    sp = subs.add_parser("unit-check", help="classify an algebraic number")
    sp.add_argument("number", help="root:POLY | rat:p/q | int:n | transcendental")
    sp.set_defaults(func=cmd_unit_check)

    sp = subs.add_parser("verify-order", help="divisibility order on count vectors")
    sp.add_argument("--lhs", required=True, help="comma-separated coefficients")
    sp.add_argument("--rhs", required=True, help="comma-separated coefficients")
    sp.set_defaults(func=cmd_verify_order)

    sp = subs.add_parser(
        "compare-ideals",
        help="check mod-p Betti data dominates the number-field data",
    )
    _add_input_args(sp)
    sp.add_argument("--a", required=True, help="twist number spec")
    sp.add_argument("--prime", type=int, default=None)
    sp.set_defaults(func=cmd_compare_ideals)

    sp = subs.add_parser("bott-check", help="component-sum counting inequality")
    sp.add_argument(
        "--components", required=True,
        help="JSON list (inline or a file path) of {index, dims}",
    )
    sp.add_argument("--rhs", required=True, help="comma-separated Betti numbers")
    sp.add_argument("--prime", type=int, default=None)
    sp.set_defaults(func=cmd_bott_check)

    sp = subs.add_parser("example", help="built-in worked examples")
    kinds = sp.add_subparsers(dest="kind", required=True)
    tr = kinds.add_parser("trefoil", help="surgered trefoil model")
    tr.add_argument("--n", type=int, required=True, help="number of blocks")
    tr.add_argument("--a", default="rat:1/2", help="twist number spec")
    tr.add_argument("--emit-complex", default=None, help="write the model complex here")
    tr.set_defaults(func=cmd_example)
    mt = kinds.add_parser("mapping-torus", help="fiberwise-twist complex")
    mt.add_argument("--matrix", required=True, help="integer matrix as JSON rows")
    mt.add_argument("-o", "--output", default=None, help="write the complex here")
    mt.set_defaults(func=cmd_example)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` on the first call, the same parser after."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FormzerosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
