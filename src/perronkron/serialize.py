"""JSON wire format for matrices and vectors.

Matrices serialize as ``{"mode": "rational"|"complex", "rows": m,
"cols": n, "data": [...]}`` with row-major flat data.  Rational entries
are ``"p/q"`` strings in lowest terms with positive q, so round trips are
bit-exact; complex entries are ``[re, im]`` pairs.  Vectors use the same
entry encoding with ``{"mode", "dim", "data"}``.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any, Dict, Tuple

from .linalg import COMPLEX, RATIONAL, Matrix, Vector

# Exactly what _encode_entry writes: ASCII digits, no sign on 0, q >= 1.
_RATIONAL_ENTRY = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _encode_entry(value, mode: str):
    if mode == RATIONAL:
        return f"{value.numerator}/{value.denominator}"
    return [value.real, value.imag]


def _decode_entry(raw, mode: str):
    """Inverse of ``_encode_entry``; anything it would not write is rejected."""
    if mode == RATIONAL:
        match = _RATIONAL_ENTRY.fullmatch(raw) if isinstance(raw, str) else None
        if match is None:
            raise ValueError(
                f"rational entries must be 'p/q' strings with q > 0, got {raw!r}"
            )
        p, q = int(match[1]), int(match[2])
        if math.gcd(p, q) != 1:
            raise ValueError(f"rational entry {raw!r} is not in lowest terms")
        return Fraction(p, q)
    if not (
        isinstance(raw, (list, tuple))
        and len(raw) == 2
        and all(type(part) in (int, float) for part in raw)
    ):
        raise ValueError(f"complex entries must be [re, im] number pairs, got {raw!r}")
    try:
        return complex(raw[0], raw[1])
    except OverflowError:
        raise ValueError(f"complex entry {raw!r} is out of range") from None


def _size(obj: Dict[str, Any], key: str) -> int:
    value = obj[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def document_sizes(obj: Dict[str, Any], *keys: str) -> Tuple[int, ...]:
    """Sizes under ``keys`` of a document with a valid header; no entry is decoded."""
    mode = obj["mode"]
    if mode not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown mode {mode!r}")
    sizes = tuple(_size(obj, key) for key in keys)
    data, expected = obj["data"], math.prod(sizes)
    if not isinstance(data, list):
        raise ValueError(f"'data' must be a list, got {type(data).__name__}")
    if len(data) != expected:
        raise ValueError(f"expected {expected} entries, got {len(data)}")
    return sizes


def matrix_to_dict(A: Matrix) -> Dict[str, Any]:
    return {
        "mode": A.mode,
        "rows": A.nrows,
        "cols": A.ncols,
        "data": [_encode_entry(v, A.mode) for row in A.entries for v in row],
    }


def matrix_from_dict(obj: Dict[str, Any]) -> Matrix:
    m, n = document_sizes(obj, "rows", "cols")
    mode = obj["mode"]
    entries = [_decode_entry(v, mode) for v in obj["data"]]
    return Matrix([entries[i * n : (i + 1) * n] for i in range(m)], mode)


def vector_to_dict(x: Vector) -> Dict[str, Any]:
    return {
        "mode": x.mode,
        "dim": x.dim,
        "data": [_encode_entry(v, x.mode) for v in x.entries],
    }


def vector_from_dict(obj: Dict[str, Any]) -> Vector:
    document_sizes(obj, "dim")
    mode = obj["mode"]
    return Vector([_decode_entry(v, mode) for v in obj["data"]], mode)


def matrix_to_json(A: Matrix) -> str:
    return json.dumps(matrix_to_dict(A))


def matrix_from_json(text: str) -> Matrix:
    return matrix_from_dict(json.loads(text))


def vector_to_json(x: Vector) -> str:
    return json.dumps(vector_to_dict(x))


def vector_from_json(text: str) -> Vector:
    return vector_from_dict(json.loads(text))
