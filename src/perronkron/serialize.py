"""JSON wire format for matrices and vectors.

Matrices serialize as ``{"mode": "rational"|"complex", "rows": m,
"cols": n, "data": [...]}`` with row-major flat data.  Rational entries
are ``"p/q"`` strings in lowest terms with positive q, so round trips are
bit-exact; complex entries are ``[re, im]`` pairs.  Vectors use the same
entry encoding with ``{"mode", "dim", "data"}``.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict

from .linalg import COMPLEX, RATIONAL, Matrix, Vector


def _encode_entry(value, mode: str):
    if mode == RATIONAL:
        return f"{value.numerator}/{value.denominator}"
    return [value.real, value.imag]


def _decode_entry(raw, mode: str):
    if mode == RATIONAL:
        if not isinstance(raw, str):
            raise ValueError(f"rational entries must be 'p/q' strings, got {raw!r}")
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"rational entry {raw!r} has a zero denominator") from None
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ValueError(f"complex entries must be [re, im] pairs, got {raw!r}")
    return complex(raw[0], raw[1])


def matrix_to_dict(A: Matrix) -> Dict[str, Any]:
    return {
        "mode": A.mode,
        "rows": A.nrows,
        "cols": A.ncols,
        "data": [_encode_entry(v, A.mode) for row in A.entries for v in row],
    }


def matrix_from_dict(obj: Dict[str, Any]) -> Matrix:
    mode = obj["mode"]
    if mode not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown mode {mode!r}")
    m, n = obj["rows"], obj["cols"]
    data = obj["data"]
    if len(data) != m * n:
        raise ValueError(f"expected {m * n} entries, got {len(data)}")
    entries = [_decode_entry(v, mode) for v in data]
    return Matrix([entries[i * n : (i + 1) * n] for i in range(m)], mode)


def vector_to_dict(x: Vector) -> Dict[str, Any]:
    return {
        "mode": x.mode,
        "dim": x.dim,
        "data": [_encode_entry(v, x.mode) for v in x.entries],
    }


def vector_from_dict(obj: Dict[str, Any]) -> Vector:
    mode = obj["mode"]
    if mode not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown mode {mode!r}")
    data = obj["data"]
    if len(data) != obj["dim"]:
        raise ValueError(f"expected {obj['dim']} entries, got {len(data)}")
    return Vector([_decode_entry(v, mode) for v in data], mode)


def matrix_to_json(A: Matrix) -> str:
    return json.dumps(matrix_to_dict(A))


def matrix_from_json(text: str) -> Matrix:
    return matrix_from_dict(json.loads(text))


def vector_to_json(x: Vector) -> str:
    return json.dumps(vector_to_dict(x))


def vector_from_json(text: str) -> Vector:
    return vector_from_dict(json.loads(text))
