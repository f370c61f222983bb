"""Command-line interface.

Matrix-producing verbs (``gen``, ``kron``, ``invert``) emit the matrix
JSON wire format so they compose under shell pipes; check verbs emit a
report object with ``status``, the echoed inputs, and named findings.
``verification.report`` builds every report and ``_emit_report`` renders
every report; every check verb is a row of ``_CHECKS``, and
``_cmd_check`` runs them all.
Exit status is 0 when every finding passes, 1 when some finding fails,
and 2 on usage or I/O errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import cones, digraph, families, perron, serialize
from .linalg import Matrix, Tolerance, Vector, check_exponent, inverse, kron
from .verification import DEFAULT_SEED, report, run_verification_suite


# Largest order `gen` builds: `gen hadamard 11` (order 1024) is the largest
# Hadamard matrix, and `gen dft`/`gen cycle` stop at 1024.  `kron` forms no
# product with more rows or columns.
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


@contextmanager
def _invalid_file(kind: str, path: str):
    # A document nested too deep for the JSON parser is malformed too.
    try:
        yield
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"invalid {kind} file {path}: {exc}") from exc


def _load_matrix(path: str) -> Matrix:
    with _invalid_file("matrix", path):
        return serialize.matrix_from_json(_read_text(path))


def _load_vector(path: str) -> Vector:
    with _invalid_file("vector", path):
        return serialize.vector_from_json(_read_text(path))


def _emit_report(report: Dict[str, object], args) -> int:
    """Write a report built by ``verification.report`` as JSON or text.

    Returns the exit status: 0 when the report passes, 1 when it fails.
    """
    findings = report["findings"]
    if args.format == "json":
        _write_text(args.output, json.dumps(report, indent=2))
    else:
        lines = [f"{report['verb']}: {report['status']}"]
        width = max(map(len, findings), default=0)
        for name, value in findings.items():
            lines.append(f"  {name:<{width}}  {value}")
        _write_text(args.output, "\n".join(lines))
    return 0 if report["status"] == "pass" else 1


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
        for part in parts:
            check_exponent(part)
        try:
            first_row = [Fraction(part) for part in parts]
        except ZeroDivisionError as exc:
            raise CliError(f"circulant entries need nonzero denominators: {exc}") from exc
        A = families.circulant(Vector.rational(first_row))
    else:  # counterexample; argparse refuses any other family
        h2, t = families.counterexample_factors()
        A = kron(h2, t)
    return _emit_matrix(A, args)


def _cmd_kron(args) -> int:
    # The headers give the product's shape: refuse it before decoding entries.
    docs = []
    for path in (args.left, args.right):
        with _invalid_file("matrix", path):
            doc = json.loads(_read_text(path))
            docs.append((path, doc, serialize.document_sizes(doc, "rows", "cols")))
    (_, _, (m, n)), (_, _, (p, q)) = docs
    rows, cols = m * p, n * q
    if max(rows, cols) > MAX_GEN_ORDER:
        raise CliError(
            f"kron builds products of up to {MAX_GEN_ORDER} rows and columns, "
            f"not {rows}x{cols}"
        )
    factors = []
    for path, doc, _ in docs:
        with _invalid_file("matrix", path):
            factors.append(serialize.matrix_from_dict(doc))
    return _emit_matrix(kron(*factors), args)


def _cmd_invert(args) -> int:
    return _emit_matrix(inverse(_load_matrix(args.matrix)), args)


def _cmd_verify_paper(args) -> int:
    return _emit_report(run_verification_suite(args.seed, args.tolerance), args)


class _Operand(NamedTuple):
    name: str
    load: Callable[[str], object]
    help: Optional[str] = None


class _Check(NamedTuple):
    """A verb whose report holds the findings ``check(*operands, tol)``."""

    help: str
    operands: Tuple[_Operand, ...]
    check: Callable[..., Dict[str, object]]


def _generators(kind: str) -> _Operand:
    return _Operand(
        "generators",
        lambda path: cones.ConeGenerators.from_rows(_load_matrix(path), kind),
        "matrix file whose rows generate the hull",
    )


def _witness_findings(witness: Optional[perron.PerronWitness]) -> Dict[str, object]:
    findings: Dict[str, object] = {"is_perron_similarity": witness is not None}
    if witness is not None:
        findings.update(witness_index=witness.index, witness_sign=witness.sign)
    return findings


def _containment_findings(
    zp: Vector, evidence: perron.StrictConeEvidence
) -> Dict[str, object]:
    return {
        "member_of_product_cone": evidence.member,
        "factorization_absent": evidence.factorization_absent,
        "certificate": serialize.vector_to_dict(zp),
        "shift": serialize.vector_to_dict(Vector([evidence.shift], zp.mode))["data"][0],
    }


_MATRIX = _Operand("matrix", _load_matrix)
_VECTOR = _Operand("vector", _load_vector)
_PAIR = (_Operand("left", _load_matrix), _Operand("right", _load_matrix))

# Each check looks its library function up on the module when it runs, so a
# wrapper patched onto the module binding (as the bench tracer does) sees
# the call; a function object stored here would bypass it.
_CHECKS: Dict[str, _Check] = {
    "check-perron": _Check(
        "search for a Perron witness", (_MATRIX,),
        lambda S, tol: _witness_findings(perron.find_perron_witness(S, tol))),
    "check-ideal": _Check(
        "ideal Perron similarity criterion", (_MATRIX,),
        lambda S, tol: {"is_ideal": perron.is_ideal(S, tol)}),
    "check-strong": _Check(
        "verify a strong certificate spectrum", (_MATRIX, _Operand("spectrum", _load_vector)),
        lambda S, x, tol: {
            "strong_certificate_valid": perron.verify_strong_certificate(S, x, tol)}),
    "cone-member": _Check(
        "spectracone membership", (_MATRIX, _VECTOR),
        lambda S, x, tol: {"in_spectracone": perron.in_spectracone(S, x, tol)}),
    "tope-member": _Check(
        "spectratope membership", (_MATRIX, _VECTOR),
        lambda S, x, tol: {"in_spectratope": perron.in_spectratope(S, x, tol)}),
    "coni-member": _Check(
        "conical hull membership", (_generators("conical"), _VECTOR),
        lambda G, x, tol: {"in_conical_hull": cones.coni_member(G, x, tol)}),
    "conv-member": _Check(
        "convex hull membership", (_generators("convex"), _VECTOR),
        lambda G, x, tol: {"in_convex_hull": cones.conv_member(G, x, tol)}),
    "irreducible": _Check(
        "strong connectivity of the digraph", (_MATRIX,),
        lambda A, tol: {"is_irreducible": digraph.is_irreducible(A, tol)}),
    "period": _Check(
        "index of imprimitivity", (_MATRIX,),
        lambda A, tol: {"imprimitivity_index": digraph.imprimitivity_index(A, tol)}),
    "kron-irreducible": _Check(
        "irreducibility of a Kronecker product", _PAIR,
        lambda A, B, tol: {
            "kron_is_irreducible": digraph.kron_irreducibility_predicate(A, B, tol)}),
    "strict-containment": _Check(
        "strict cone containment certificate", _PAIR,
        lambda S, T, tol: _containment_findings(
            *perron.strict_cone_containment_certificate(S, T, tol))),
}


def _cmd_check(args) -> int:
    row = _CHECKS[args.verb]
    inputs = {operand.name: getattr(args, operand.name) for operand in row.operands}
    values = [operand.load(inputs[operand.name]) for operand in row.operands]
    return _emit_report(report(args.verb, inputs, row.check(*values, args.tolerance)), args)


def _add_verb(sub, verb: str, help: str, func, operands: Tuple[_Operand, ...] = ()):
    p = sub.add_parser(verb, help=help)
    for operand in operands:
        p.add_argument(operand.name, help=operand.help)
    p.set_defaults(func=func)
    return p


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

    p = _add_verb(sub, "gen", "generate a named matrix family member", _cmd_gen)
    p.add_argument("family", choices=("hadamard", "dft", "cycle", "circulant", "counterexample"))
    p.add_argument("arg", nargs="?", default="",
                   help="order / depth, or comma-separated first row for circulant")
    _add_verb(sub, "kron", "Kronecker product of two matrix files", _cmd_kron, _PAIR)
    _add_verb(sub, "invert", "invert a matrix file", _cmd_invert, (_MATRIX,))
    for verb, row in _CHECKS.items():
        _add_verb(sub, verb, row.help, _cmd_check, row.operands)
    _add_verb(sub, "verify-paper", "run the complete verification suite", _cmd_verify_paper)
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
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
