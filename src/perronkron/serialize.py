"""JSON wire format for matrices and vectors.

Matrices serialize as ``{"mode": "rational"|"complex", "rows": m,
"cols": n, "data": [...]}`` with row-major flat data.  Rational entries
are ``"p/q"`` strings in lowest terms with positive q, so round trips are
bit-exact; complex entries are ``[re, im]`` pairs.  Vectors use the same
entry encoding with ``{"mode", "dim", "data"}``.

Both directions run on the array state.  ``_decode_entry`` validates an
entry and returns its pair of numbers, ``(p, q)`` or ``(re, im)``, and
``from_pairs`` builds the state from them at once.  A rational document is
decoded and encoded one distinct entry at a time, on one path whether or
not entries repeat: each distinct entry text is decoded once, in order of
first appearance, and ``from_pairs`` gathers the entries from the distinct
pairs by one index per entry; the encoder formats each distinct pair of
``distinct_pairs`` once and gathers the texts by its index.  A Sylvester
Hadamard matrix of order 1024 is a million entries but two distinct texts.
Complex entries are decoded and encoded one by one.  No entry becomes a
``Fraction``.
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
    """The wire entries of a vector or matrix, row-major; each distinct
    rational entry is formatted once."""
    if a.mode == RATIONAL:
        pairs, index = a.distinct_pairs()
        texts = [f"{p}/{q}" for p, q in pairs]
        return [texts[k] for k in index]
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
    """The array of a document.  Each distinct rational entry text is decoded
    once, in order of first appearance, so the first invalid entry in data
    order still raises first; complex entries are decoded one by one."""
    shape = document_sizes(obj, *keys)
    mode, data = obj["mode"], obj["data"]
    if mode == COMPLEX:
        return cls.from_pairs([_decode_entry(v, mode) for v in data], shape, mode)
    try:
        texts = dict.fromkeys(data)
    except TypeError:
        # An unhashable entry is never a valid one, so decoding entry by
        # entry raises at the first invalid entry.
        texts = data
    pairs = [_decode_entry(v, mode) for v in texts]
    position = {text: k for k, text in enumerate(texts)}
    return cls.from_pairs(pairs, shape, mode, map(position.__getitem__, data))


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


def vector_from_json(text: str) -> Vector:
    return vector_from_dict(json.loads(text))
