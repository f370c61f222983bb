"""Differential tests of the wire format against the Fraction codec it replaced.

The oracle below is the codec as it was before decoding and encoding moved
onto the array state: every rational entry went through a ``Fraction``, and
the encoder read the ``entries`` view.  It lives here, not in the library.
Rational states are compared with their numerator dtype, complex states bit
for bit, and encoded documents as JSON text, so a lost ``-0.0`` shows.
"""
import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perronkron import serialize
from perronkron.cli import main
from perronkron.families import circulant, cycle_companion, dft, hadamard_like
from perronkron.linalg import COMPLEX, RATIONAL, Matrix, Vector, inverse, kron
from perronkron.serialize import (
    document_sizes,
    matrix_from_dict,
    matrix_to_dict,
    matrix_to_json,
    vector_from_dict,
    vector_to_dict,
)

# --- the oracle: the Fraction codec -------------------------------------------

_ORACLE_ENTRY = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _oracle_encode_entry(value, mode):
    if mode == RATIONAL:
        return f"{value.numerator}/{value.denominator}"
    return [value.real, value.imag]


def _oracle_decode_entry(raw, mode):
    if mode == RATIONAL:
        match = _ORACLE_ENTRY.fullmatch(raw) if isinstance(raw, str) else None
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


def oracle_matrix_to_dict(A):
    return {
        "mode": A.mode,
        "rows": A.nrows,
        "cols": A.ncols,
        "data": [_oracle_encode_entry(v, A.mode) for row in A.entries for v in row],
    }


def oracle_matrix_from_dict(obj):
    m, n = document_sizes(obj, "rows", "cols")
    mode = obj["mode"]
    entries = [_oracle_decode_entry(v, mode) for v in obj["data"]]
    return Matrix([entries[i * n : (i + 1) * n] for i in range(m)], mode)


def oracle_vector_to_dict(x):
    return {
        "mode": x.mode,
        "dim": x.dim,
        "data": [_oracle_encode_entry(v, x.mode) for v in x.entries],
    }


def oracle_vector_from_dict(obj):
    document_sizes(obj, "dim")
    mode = obj["mode"]
    return Vector([_oracle_decode_entry(v, mode) for v in obj["data"]], mode)


# --- helpers -------------------------------------------------------------------


def _assert_same_state(A, B):
    """Same type and mode; equal numerators, dtype, denominator and bound in
    rational mode, equal bits in complex mode."""
    assert (type(A), A.mode) == (type(B), B.mode)
    a, b = A.array_form(), B.array_form()
    if A.mode == COMPLEX:
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()
    else:
        assert (a.den, a.bound, a.num.dtype, a.num.shape) == (
            b.den, b.bound, b.num.dtype, b.num.shape
        )
        assert np.array_equal(a.num, b.num)


def _assert_same_codec(A):
    """Encoding agrees with the oracle as JSON text, and decoding the
    oracle's document gives the oracle's state and A back."""
    to_dict, from_dict, oracle_to, oracle_from = (
        (matrix_to_dict, matrix_from_dict, oracle_matrix_to_dict, oracle_matrix_from_dict)
        if isinstance(A, Matrix)
        else (vector_to_dict, vector_from_dict, oracle_vector_to_dict, oracle_vector_from_dict)
    )
    doc = oracle_to(A)
    assert json.dumps(to_dict(A)) == json.dumps(doc)
    decoded = from_dict(json.loads(json.dumps(doc)))
    _assert_same_state(decoded, oracle_from(json.loads(json.dumps(doc))))
    _assert_same_state(decoded, A)


_BIG = 2**62


def _rational(rng):
    """A Fraction: often 0 or an integer, sometimes with a numerator or a
    denominator past 2**62."""
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    if kind == 3:
        sign = rng.choice([-1, 1])
        return Fraction(sign * rng.randint(_BIG - 5, 4 * _BIG), rng.randint(1, 7))
    if kind == 4:
        return Fraction(rng.randint(-5, 5), rng.randint(_BIG - 5, 4 * _BIG))
    return Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**70))


def _rational_cases():
    rng = random.Random(2024)
    for k in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        # Some arrays draw only small entries, so the int64 path is covered.
        draw = _rational if k % 3 else (lambda r: Fraction(r.randint(-9, 9), r.randint(1, 9)))
        A = Matrix.rational([[draw(rng) for _ in range(n)] for _ in range(m)])
        yield f"matrix-{k}", A
        yield f"row-{k}", A.row(0)
    yield "big-denominator", Vector.rational([Fraction(1, 2**70), Fraction(-3, 2**70), 0])
    yield "big-integers", Matrix.rational([[2**70, -1], [0, -(2**63)]])
    yield "zeros", Matrix.rational([[0, 0], [0, 0]])
    yield "zero-vector", Vector.rational([0])
    yield "negatives", Matrix.rational([[-1, Fraction(-3, 7)], [Fraction(-(2**90), 11), -5]])
    yield "hadamard-inverse", inverse(hadamard_like(5))
    yield "product", Matrix.rational([[Fraction(1, 3), 2]]) @ Matrix.rational(
        [[Fraction(2**80, 5)], [Fraction(-1, 2**70)]]
    )


_RATIONAL_CASES = list(_rational_cases())


@pytest.mark.parametrize("A", [pytest.param(A, id=name) for name, A in _RATIONAL_CASES])
def test_rational_codec_matches_the_fraction_codec(A):
    _assert_same_codec(A)


def test_rational_cases_cover_both_paths_and_big_denominators():
    forms = [A.array_form() for _, A in _RATIONAL_CASES]
    assert {f.num.dtype for f in forms} == {np.dtype(np.int64), np.dtype(object)}
    assert any(f.den >= _BIG for f in forms if f.num.dtype == np.int64)
    assert any(f.bound >= _BIG and f.den == 1 for f in forms)


def _complex_cases():
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1e-310, 0.1, 1 / 3]
    rng = random.Random(7)
    for k in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [
            [complex(rng.choice(specials + [rng.uniform(-9, 9)]),
                     rng.choice(specials + [rng.uniform(-9, 9)])) for _ in range(n)]
            for _ in range(m)
        ]
        A = Matrix.complex_(rows)
        yield f"matrix-{k}", A
        yield f"row-{k}", A.row(m - 1)
    yield "negative-zeros", Vector.complex_([complex(-0.0, -0.0), complex(0.0, -0.0)])


@pytest.mark.parametrize("A", [pytest.param(A, id=name) for name, A in _complex_cases()])
def test_complex_codec_matches_the_fraction_codec(A):
    _assert_same_codec(A)


@pytest.mark.parametrize("data", [
    [[3, -2], [0, 0], [-0.0, 0], [0, -0.0]],
    [[2**53 + 1, 1], [-(10**300), 10**20], [5e-324, -5e-324], [1e308, -1.7976931348623157e308]],
])
def test_complex_documents_with_int_parts_decode_as_the_oracle(data):
    doc = {"mode": "complex", "dim": len(data), "data": data}
    x = vector_from_dict(doc)
    _assert_same_state(x, oracle_vector_from_dict(doc))
    assert json.dumps(vector_to_dict(x)) == json.dumps(oracle_vector_to_dict(x))


# --- every `gen` family, byte for byte -----------------------------------------
# The families themselves are checked against their entrywise constructions
# in test_families.py.


def _gen_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *argv]) == 0
    return out.getvalue()


def _oracle_text(A):
    return json.dumps(oracle_matrix_to_dict(A)) + "\n"


@pytest.mark.parametrize("depth", range(2, 8))
def test_gen_hadamard_is_byte_identical_to_the_oracle(depth):
    assert _gen_stdout(["hadamard", str(depth)]) == _oracle_text(hadamard_like(depth))


@pytest.mark.parametrize("n", range(1, 17))
def test_gen_dft_and_cycle_are_byte_identical_to_the_oracle(n):
    assert _gen_stdout(["dft", str(n)]) == _oracle_text(dft(n))
    assert _gen_stdout(["cycle", str(n)]) == _oracle_text(cycle_companion(n))


@pytest.mark.parametrize("row", ["1", "1/2,-3/4,0,5", "0,0,0", "7/3,-8", "1,2,3,4,5,6,7,8,9"])
def test_gen_circulant_is_byte_identical_to_the_oracle(row):
    c = Vector.rational([Fraction(v) for v in row.split(",")])
    assert _gen_stdout(["circulant", row]) == _oracle_text(circulant(c))


def test_gen_counterexample_is_byte_identical_to_the_oracle():
    expected = kron(Matrix.rational([[1, 1], [1, -1]]), Matrix.rational([[1, 2], [1, 1]]))
    assert _gen_stdout(["counterexample"]) == _oracle_text(expected)


def test_invert_round_trip_is_byte_identical_to_the_oracle():
    H = hadamard_like(6)
    assert matrix_to_json(inverse(H)) == json.dumps(oracle_matrix_to_dict(inverse(H)))


# --- malformed documents: the same first bad entry, the same message ------------


def _outcome(decode, doc):
    try:
        decode(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return None


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_rational_entries = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(-2, 20)),
    st.sampled_from(["1/1", "-1/2", "0/1", "-0/1", "2/4", " 1/2", "01/2", "1/02", "1"]),
    _json_scalars,
    st.lists(_json_scalars, max_size=2),
)
_complex_parts = (
    st.floats() | st.integers(-(10**310), 10**310) | st.booleans() | st.none()
    | st.text(max_size=2)
)
_complex_entries = st.one_of(
    st.lists(_complex_parts, min_size=2, max_size=2),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    st.lists(_complex_parts, max_size=3),
    _json_scalars,
)


@st.composite
def _documents(draw, kind):
    mode = draw(st.sampled_from([RATIONAL, COMPLEX]))
    entries = _rational_entries if mode == RATIONAL else _complex_entries
    dims = ("rows", "cols") if kind == "matrix" else ("dim",)
    shape = {key: draw(st.integers(1, 3)) for key in dims}
    count = math.prod(shape.values())
    data = draw(st.lists(entries, min_size=count, max_size=count))
    return {"mode": mode, **shape, "data": data}


_SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(_documents("matrix"))
def test_matrix_documents_fail_as_the_oracle_fails(doc):
    expected = _outcome(oracle_matrix_from_dict, doc)
    assert _outcome(matrix_from_dict, doc) == expected
    if expected is None:
        _assert_same_state(matrix_from_dict(doc), oracle_matrix_from_dict(doc))


@_SETTINGS
@given(_documents("vector"))
def test_vector_documents_fail_as_the_oracle_fails(doc):
    expected = _outcome(oracle_vector_from_dict, doc)
    assert _outcome(vector_from_dict, doc) == expected
    if expected is None:
        _assert_same_state(vector_from_dict(doc), oracle_vector_from_dict(doc))


@pytest.mark.parametrize("data, message", [
    (["1/2", "2/4", "x"], "rational entry '2/4' is not in lowest terms"),
    (["1/2", "x", "2/4"], "rational entries must be 'p/q' strings with q > 0, got 'x'"),
    # Every entry is decoded before the finiteness test of the array.
    ([[1.0, 0.0], [float("inf"), 0.0], [10**400, 0]],
     f"complex entry {[10**400, 0]!r} is out of range"),
    ([[1.0, 0.0], [float("inf"), 0.0], [float("nan"), 1.0]],
     "complex entries must be finite, got (inf+0j)"),
    ([[float("nan"), 1.0], [float("inf"), 0.0], [0.0, 0.0]],
     "complex entries must be finite, got (nan+1j)"),
])
def test_the_first_bad_entry_is_named(data, message):
    mode = RATIONAL if isinstance(data[0], str) else COMPLEX
    doc = {"mode": mode, "dim": len(data), "data": data}
    assert _outcome(vector_from_dict, doc) == ("ValueError", message)
    assert _outcome(oracle_vector_from_dict, doc) == ("ValueError", message)


def test_decode_entry_returns_the_pair():
    assert serialize._decode_entry("-3/7", RATIONAL) == (-3, 7)
    assert serialize._decode_entry([2, -0.0], COMPLEX) == (2.0, -0.0)
    assert math.copysign(1, serialize._decode_entry([2, -0.0], COMPLEX)[1]) == -1


# --- repeat-heavy documents: each distinct entry text is decoded once ----------
# The decoder decodes each distinct rational entry text once and the encoder
# formats each distinct entry once; these documents repeat a few texts many
# times, so a lookup that mixed up two texts, or that let a repeat hide the
# first bad entry, shows against the per-entry oracle.

_AROUND_INT64 = [
    f"{_BIG - 1}/1", f"-{_BIG}/1", f"{_BIG + 1}/3", f"{2**63}/7", "1/3", f"-{_BIG - 1}/5",
]
_ALPHABET = (
    ["1/1", "-1/2", "2/4", "-0/1", " 1/2", "0/1", "3/2", "-1/1", "1/2"]
    + _AROUND_INT64
    + [1, 1.0, True, None, [1, 2], ["1/1"], []]
)


@st.composite
def _repeat_heavy_documents(draw, kind):
    """Documents of up to 8x8 (or 64) entries drawn from at most four texts
    of a small alphabet, usually valid ones."""
    valid = [t for t in _ALPHABET if isinstance(t, str) and _ORACLE_ENTRY.fullmatch(t)]
    valid = [t for t in valid if math.gcd(*map(int, t.split("/"))) == 1]
    letters = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=3))
    if draw(st.booleans()):
        letters.append(draw(st.sampled_from(_ALPHABET)))
    dims = ("rows", "cols") if kind == "matrix" else ("dim",)
    shape = {key: draw(st.integers(1, 8)) for key in dims}
    count = math.prod(shape.values())
    data = draw(st.lists(st.sampled_from(letters), min_size=count, max_size=count))
    return {"mode": RATIONAL, **shape, "data": data}


def _assert_decodes_as_the_oracle(doc, decode, oracle_decode, oracle_encode, encode):
    expected = _outcome(oracle_decode, doc)
    assert _outcome(decode, doc) == expected
    if expected is None:
        got = decode(doc)
        _assert_same_state(got, oracle_decode(doc))
        assert json.dumps(encode(got)) == json.dumps(oracle_encode(got))


@_SETTINGS
@given(_repeat_heavy_documents("matrix"))
def test_repeat_heavy_matrix_documents_decode_as_the_oracle(doc):
    _assert_decodes_as_the_oracle(
        doc, matrix_from_dict, oracle_matrix_from_dict, oracle_matrix_to_dict, matrix_to_dict
    )


@_SETTINGS
@given(_repeat_heavy_documents("vector"))
def test_repeat_heavy_vector_documents_decode_as_the_oracle(doc):
    _assert_decodes_as_the_oracle(
        doc, vector_from_dict, oracle_vector_from_dict, oracle_vector_to_dict, vector_to_dict
    )


_NOT_P_Q = "rational entries must be 'p/q' strings with q > 0, got "


@pytest.mark.parametrize("data, message", [
    (["1/1"] * 40 + ["2/4"] + ["1/1"] * 10 + ["2/4", "x"],
     "rational entry '2/4' is not in lowest terms"),
    (["-1/2", "1/1"] * 20 + [" 1/2", "2/4", " 1/2"], _NOT_P_Q + "' 1/2'"),
    (["1/1"] * 30 + ["-0/1"] * 3, _NOT_P_Q + "'-0/1'"),
    # 1, 1.0 and True are equal dict keys; the first of them in data order is named.
    (["1/1"] * 20 + [True, 1, 1.0], _NOT_P_Q + "True"),
    (["1/1"] * 20 + [1.0, True], _NOT_P_Q + "1.0"),
    (["1/1"] * 20 + [None, "2/4"], _NOT_P_Q + "None"),
    # An unhashable entry is named after the bad texts that come before it.
    (["1/1"] * 20 + [[1, 2], "x"], _NOT_P_Q + "[1, 2]"),
    (["1/1"] * 20 + ["2/4", [1, 2]], "rational entry '2/4' is not in lowest terms"),
])
def test_a_repeated_document_names_its_first_bad_entry(data, message):
    doc = {"mode": RATIONAL, "dim": len(data), "data": data}
    assert _outcome(vector_from_dict, doc) == ("ValueError", message)
    assert _outcome(oracle_vector_from_dict, doc) == ("ValueError", message)


def test_each_distinct_entry_text_is_decoded_once(monkeypatch):
    calls = []
    decode = serialize._decode_entry
    monkeypatch.setattr(
        serialize, "_decode_entry", lambda raw, mode: calls.append(raw) or decode(raw, mode)
    )
    data = ["1/2", "-1/1", "1/2", "0/1", "-1/1", "1/2"] * 6
    doc = {"mode": RATIONAL, "rows": 6, "cols": 6, "data": data}
    _assert_same_state(matrix_from_dict(doc), oracle_matrix_from_dict(doc))
    assert calls == ["1/2", "-1/1", "0/1"]


@pytest.mark.parametrize("texts", [_AROUND_INT64, _AROUND_INT64[:2], ["1/3", f"{_BIG - 1}/1"]])
def test_repeated_numerators_around_int64_keep_the_oracle_dtype(texts):
    data = [texts[k % len(texts)] for k in range(64)]
    doc = {"mode": RATIONAL, "rows": 8, "cols": 8, "data": data}
    A = matrix_from_dict(doc)
    _assert_same_state(A, oracle_matrix_from_dict(doc))
    assert json.dumps(matrix_to_dict(A)) == json.dumps(oracle_matrix_to_dict(A))


def test_repeated_numerators_cover_both_dtypes():
    dtypes = set()
    for texts in (_AROUND_INT64[:1], ["1/3", f"{_BIG - 1}/1"], ["1/1", "-1/2"]):
        doc = {"mode": RATIONAL, "dim": 8, "data": texts * (8 // len(texts))}
        dtypes.add(vector_from_dict(doc).array_form().num.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_an_all_distinct_document_decodes_and_encodes_as_the_oracle():
    rng = random.Random(128)
    values = set()
    while len(values) < 128 * 128:
        values.add(Fraction(rng.randint(-(10**5), 10**5), rng.randint(1, 9)))
    data = [f"{v.numerator}/{v.denominator}" for v in values]
    doc = {"mode": RATIONAL, "rows": 128, "cols": 128, "data": data}
    A = matrix_from_dict(doc)
    _assert_same_state(A, oracle_matrix_from_dict(doc))
    assert matrix_to_dict(A)["data"] == data
    assert json.dumps(matrix_to_dict(A)) == json.dumps(oracle_matrix_to_dict(A))


@pytest.mark.parametrize("A", [
    Matrix.rational([[1, 2], [2, 1]]),
    Matrix.rational([[Fraction(1, 3), 0], [Fraction(-1, 3), Fraction(1, 3)]]),
    Matrix.rational([[2**70, -(2**70)], [Fraction(1, 2**64), 2**70]]),
    Vector.rational([Fraction(5, 7), Fraction(-2, 3), 4]),
])
def test_distinct_pairs_give_the_entries_back(A):
    pairs, index = A.distinct_pairs()
    pairs = list(pairs)
    if index is not None:
        assert [Fraction(*pq) for pq in pairs] == sorted({Fraction(*pq) for pq in pairs})
    entries = pairs if index is None else [pairs[k] for k in index]
    assert entries == list(A.to_pairs())
    assert entries == [(v.numerator, v.denominator) for v in np.ravel(A.entries)]
    assert type(A).from_pairs(pairs, A.array_form().num.shape, RATIONAL, index) == A



@pytest.mark.parametrize("A", [
    Matrix.rational([[1, 2], [3, Fraction(1, 2)]]),
    Vector.rational([Fraction(5, 7), Fraction(-2, 3), 4]),
    Matrix.rational([[2**70, 1], [Fraction(1, 2**64), -(2**70)]]),
])
def test_distinct_pairs_index_every_entry_when_nothing_repeats(A):
    pairs, index = A.distinct_pairs()
    assert type(index) is list
    assert sorted(index) == list(range(A.array_form().num.size))
    pairs = list(pairs)
    assert [pairs[k] for k in index] == list(A.to_pairs())


def test_an_all_distinct_document_is_gathered_through_the_index(monkeypatch):
    seen = []
    original = Matrix.from_pairs.__func__

    def spy(cls, pairs, shape, mode, index=None):
        seen.append(index is not None)
        return original(cls, pairs, shape, mode, index)

    monkeypatch.setattr(Matrix, "from_pairs", classmethod(spy))
    values = random.Random(16).sample(range(-(10**6), 10**6), 16 * 16)
    doc = {"mode": RATIONAL, "rows": 16, "cols": 16, "data": [f"{p}/1" for p in values]}
    A = matrix_from_dict(doc)
    assert seen == [True]
    _assert_same_state(A, oracle_matrix_from_dict(doc))
