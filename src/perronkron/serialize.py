"""JSON wire format for matrices and vectors.

Matrices serialize as ``{"mode": "rational"|"complex", "rows": m,
"cols": n, "data": [...]}`` with row-major flat data.  Rational entries
are ``"p/q"`` strings in lowest terms with positive q, so round trips are
bit-exact; complex entries are ``[re, im]`` pairs.  Vectors use the same
entry encoding with ``{"mode", "dim", "data"}``.

Both directions run on the array state.  ``_decode_entry`` validates each
entry and returns its pair of numbers, ``(p, q)`` or ``(re, im)``, and
``from_pairs`` builds the state from them at once; the encoder reads the
pairs back from ``to_pairs``.  No entry becomes a ``Fraction``.
"""
from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, Tuple

from .linalg import COMPLEX, RATIONAL, Matrix, Vector

# Exactly what the encoder writes: ASCII digits, no sign on 0, q >= 1.
_RATIONAL_ENTRY = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _encode(a) -> list:
    """The wire entries of a vector or matrix, row-major."""
    if a.mode == RATIONAL:
        return [f"{p}/{q}" for p, q in a.to_pairs()]
    return [[re, im] for re, im in a.to_pairs()]


def _decode_entry(raw, mode: str) -> Tuple:
    """The pair of numbers of one wire entry: ``(p, q)`` ints in rational
    mode, ``(re, im)`` floats in complex mode.  Anything the encoder would
    not write is rejected."""
    if mode == RATIONAL:
        match = _RATIONAL_ENTRY.fullmatch(raw) if isinstance(raw, str) else None
        if match is None:
            raise ValueError(
                f"rational entries must be 'p/q' strings with q > 0, got {raw!r}"
            )
        p, q = int(match[1]), int(match[2])
        if math.gcd(p, q) != 1:
            raise ValueError(f"rational entry {raw!r} is not in lowest terms")
        return p, q
    if not (
        isinstance(raw, (list, tuple))
        and len(raw) == 2
        and all(type(part) in (int, float) for part in raw)
    ):
        raise ValueError(f"complex entries must be [re, im] number pairs, got {raw!r}")
    try:
        return float(raw[0]), float(raw[1])
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


def _decode(cls, obj: Dict[str, Any], *keys: str):
    shape = document_sizes(obj, *keys)
    mode = obj["mode"]
    return cls.from_pairs([_decode_entry(v, mode) for v in obj["data"]], shape, mode)


def matrix_to_dict(A: Matrix) -> Dict[str, Any]:
    return {"mode": A.mode, "rows": A.nrows, "cols": A.ncols, "data": _encode(A)}


def matrix_from_dict(obj: Dict[str, Any]) -> Matrix:
    return _decode(Matrix, obj, "rows", "cols")


def vector_to_dict(x: Vector) -> Dict[str, Any]:
    return {"mode": x.mode, "dim": x.dim, "data": _encode(x)}


def vector_from_dict(obj: Dict[str, Any]) -> Vector:
    return _decode(Vector, obj, "dim")


def matrix_to_json(A: Matrix) -> str:
    return json.dumps(matrix_to_dict(A))


def matrix_from_json(text: str) -> Matrix:
    return matrix_from_dict(json.loads(text))


def vector_to_json(x: Vector) -> str:
    return json.dumps(vector_to_dict(x))


def vector_from_json(text: str) -> Vector:
    return vector_from_dict(json.loads(text))
