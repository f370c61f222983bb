"""Command-line interface.

Matrix-producing verbs (``gen``, ``kron``, ``invert``) emit the matrix
JSON wire format so they compose under shell pipes; check verbs emit a
report object with ``status``, the echoed inputs, and named findings.
Exit status is 0 when every finding passes, 1 when some finding fails,
and 2 on usage or I/O errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import cones, digraph, families, perron, serialize
from .linalg import (
    COMPLEX,
    RATIONAL,
    Matrix,
    ModeMismatchError,
    SingularMatrixError,
    Tolerance,
    Vector,
    inverse,
    kron,
)
from .verification import DEFAULT_SEED, run_verification_suite


# Largest order `gen` builds: `gen hadamard 11` (order 1024) is the largest
# Hadamard matrix, and `gen dft`/`gen cycle` stop at 1024.
MAX_GEN_ORDER = 1024


class CliError(Exception):
    """Usage or I/O failure; maps to exit status 2."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_matrix(path: str) -> Matrix:
    try:
        return serialize.matrix_from_json(_read_text(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid matrix file {path}: {exc}") from exc


def _load_vector(path: str) -> Vector:
    try:
        return serialize.vector_from_json(_read_text(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid vector file {path}: {exc}") from exc


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit_report(
    verb: str, inputs: Dict[str, object], findings: Dict[str, object], args
) -> int:
    status = "pass" if all(
        v for v in findings.values() if isinstance(v, bool)
    ) else "fail"
    report = {
        "verb": verb,
        "status": status,
        "inputs": _jsonable(inputs),
        "findings": _jsonable(findings),
    }
    if args.format == "json":
        _write_text(args.output, json.dumps(report, indent=2))
    else:
        lines = [f"{verb}: {status}"]
        width = max(len(k) for k in findings) if findings else 0
        for name, value in report["findings"].items():
            lines.append(f"  {name:<{width}}  {value}")
        _write_text(args.output, "\n".join(lines))
    return 0 if status == "pass" else 1


def _emit_matrix(A: Matrix, args) -> int:
    _write_text(args.output, serialize.matrix_to_json(A))
    return 0


def _check_gen_order(order: int) -> None:
    if order > MAX_GEN_ORDER:
        raise CliError(f"gen builds orders up to {MAX_GEN_ORDER}, not {order}")


def _cmd_gen(args) -> int:
    family = args.family
    if family == "hadamard":
        depth = int(args.arg)
        # Order 2**(depth - 1) exceeds the limit iff depth - 1 reaches the
        # limit's bit length, so a huge depth never builds the power.
        if depth - 1 >= MAX_GEN_ORDER.bit_length():
            raise CliError(
                f"gen builds orders up to {MAX_GEN_ORDER}, not 2**{depth - 1}"
            )
        A = families.hadamard_like(depth)
    elif family in ("dft", "cycle"):
        order = int(args.arg)
        _check_gen_order(order)
        build = families.dft if family == "dft" else families.cycle_companion
        A = build(order)
    elif family == "circulant":
        parts = args.arg.split(",")
        _check_gen_order(len(parts))
        A = families.circulant(Vector.rational([Fraction(part) for part in parts]))
    elif family == "counterexample":
        h2, t = families.counterexample_factors()
        A = kron(h2, t)
    else:
        raise CliError(f"unknown family {family!r}")
    return _emit_matrix(A, args)


def _cmd_kron(args) -> int:
    return _emit_matrix(kron(_load_matrix(args.left), _load_matrix(args.right)), args)


def _cmd_invert(args) -> int:
    return _emit_matrix(inverse(_load_matrix(args.matrix)), args)


def _cmd_check_perron(args) -> int:
    S = _load_matrix(args.matrix)
    witness = perron.find_perron_witness(S, args.tolerance)
    findings = {"is_perron_similarity": witness is not None}
    if witness is not None:
        findings["witness_index"] = witness.index
        findings["witness_sign"] = witness.sign
    return _emit_report("check-perron", {"matrix": args.matrix}, findings, args)


def _cmd_check_ideal(args) -> int:
    S = _load_matrix(args.matrix)
    return _emit_report(
        "check-ideal",
        {"matrix": args.matrix},
        {"is_ideal": perron.is_ideal(S, args.tolerance)},
        args,
    )


def _cmd_check_strong(args) -> int:
    S = _load_matrix(args.matrix)
    x = _load_vector(args.spectrum)
    return _emit_report(
        "check-strong",
        {"matrix": args.matrix, "spectrum": args.spectrum},
        {"strong_certificate_valid": perron.verify_strong_certificate(S, x, args.tolerance)},
        args,
    )


def _cmd_cone_member(args) -> int:
    S = _load_matrix(args.matrix)
    x = _load_vector(args.vector)
    return _emit_report(
        "cone-member",
        {"matrix": args.matrix, "vector": args.vector},
        {"in_spectracone": perron.in_spectracone(S, x, args.tolerance)},
        args,
    )


def _cmd_tope_member(args) -> int:
    S = _load_matrix(args.matrix)
    x = _load_vector(args.vector)
    return _emit_report(
        "tope-member",
        {"matrix": args.matrix, "vector": args.vector},
        {"in_spectratope": perron.in_spectratope(S, x, args.tolerance)},
        args,
    )


def _hull_member(args, kind: str) -> int:
    G = cones.ConeGenerators.from_rows(_load_matrix(args.generators), kind)
    x = _load_vector(args.vector)
    if kind == "conical":
        member = cones.coni_member(G, x, args.tolerance)
        key = "in_conical_hull"
        verb = "coni-member"
    else:
        member = cones.conv_member(G, x, args.tolerance)
        key = "in_convex_hull"
        verb = "conv-member"
    return _emit_report(
        verb,
        {"generators": args.generators, "vector": args.vector},
        {key: member},
        args,
    )


def _cmd_irreducible(args) -> int:
    A = _load_matrix(args.matrix)
    return _emit_report(
        "irreducible",
        {"matrix": args.matrix},
        {"is_irreducible": digraph.is_irreducible(A, args.tolerance)},
        args,
    )


def _cmd_period(args) -> int:
    A = _load_matrix(args.matrix)
    try:
        index = digraph.imprimitivity_index(A, args.tolerance)
    except digraph.NotIrreducibleError as exc:
        raise CliError(str(exc)) from exc
    return _emit_report(
        "period",
        {"matrix": args.matrix},
        {"imprimitivity_index": index},
        args,
    )


def _cmd_kron_irreducible(args) -> int:
    A = _load_matrix(args.left)
    B = _load_matrix(args.right)
    try:
        predicted = digraph.kron_irreducibility_predicate(A, B, args.tolerance)
    except digraph.NotIrreducibleError as exc:
        raise CliError(str(exc)) from exc
    return _emit_report(
        "kron-irreducible",
        {"left": args.left, "right": args.right},
        {"kron_is_irreducible": predicted},
        args,
    )


def _cmd_strict_containment(args) -> int:
    S = _load_matrix(args.left)
    T = _load_matrix(args.right)
    zp, evidence = perron.strict_cone_containment_certificate(S, T, args.tolerance)
    findings = {
        "member_of_product_cone": evidence.member,
        "factorization_absent": evidence.factorization_absent,
        "certificate": serialize.vector_to_dict(zp),
        "shift": evidence.shift,
    }
    return _emit_report(
        "strict-containment", {"left": args.left, "right": args.right}, findings, args
    )


def _cmd_verify_paper(args) -> int:
    report = run_verification_suite(args.seed, args.tolerance)
    if args.format == "json":
        _write_text(args.output, json.dumps(_jsonable(report), indent=2))
    else:
        lines = [f"verify-paper: {report['status']}"]
        width = max(len(k) for k in report["findings"])
        for name, value in report["findings"].items():
            lines.append(f"  {name:<{width}}  {value}")
        _write_text(args.output, "\n".join(lines))
    return 0 if report["status"] == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perronkron",
        description="Exact toolkit for Kronecker products of Perron similarities.",
    )
    parser.add_argument(
        "--tol", type=float, default=1e-9,
        help="comparison tolerance for complex mode (default 1e-9)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for sampling-based checks (default 42)",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report rendering (default json)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="output file; '-' or omitted for stdout",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a named matrix family member")
    p.add_argument("family", choices=("hadamard", "dft", "cycle", "circulant", "counterexample"))
    p.add_argument("arg", nargs="?", default="",
                   help="order / depth, or comma-separated first row for circulant")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("kron", help="Kronecker product of two matrix files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_kron)

    p = sub.add_parser("invert", help="invert a matrix file")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("check-perron", help="search for a Perron witness")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_check_perron)

    p = sub.add_parser("check-ideal", help="ideal Perron similarity criterion")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_check_ideal)

    p = sub.add_parser("check-strong", help="verify a strong certificate spectrum")
    p.add_argument("matrix")
    p.add_argument("spectrum")
    p.set_defaults(func=_cmd_check_strong)

    p = sub.add_parser("cone-member", help="spectracone membership")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.set_defaults(func=_cmd_cone_member)

    p = sub.add_parser("tope-member", help="spectratope membership")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.set_defaults(func=_cmd_tope_member)

    p = sub.add_parser("coni-member", help="conical hull membership")
    p.add_argument("generators", help="matrix file whose rows generate the hull")
    p.add_argument("vector")
    p.set_defaults(func=lambda args: _hull_member(args, "conical"))

    p = sub.add_parser("conv-member", help="convex hull membership")
    p.add_argument("generators", help="matrix file whose rows generate the hull")
    p.add_argument("vector")
    p.set_defaults(func=lambda args: _hull_member(args, "convex"))

    p = sub.add_parser("irreducible", help="strong connectivity of the digraph")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_irreducible)

    p = sub.add_parser("period", help="index of imprimitivity")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("kron-irreducible", help="irreducibility of a Kronecker product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_kron_irreducible)

    p = sub.add_parser("strict-containment", help="strict cone containment certificate")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_strict_containment)

    p = sub.add_parser("verify-paper", help="run the complete verification suite")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.tolerance = Tolerance(args.tol)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModeMismatchError, SingularMatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
