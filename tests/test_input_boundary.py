"""Input boundary: the wire format decodes strictly, `gen` and `kron` refuse
oversized orders, and every malformed document exits 2 with one `error:` line."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perronkron.cli import MAX_GEN_ORDER, main
from perronkron.families import dft, hadamard_like
from perronkron import cli, linalg, serialize
from perronkron.linalg import Matrix, Vector
from perronkron.serialize import (
    matrix_from_dict,
    matrix_to_dict,
    matrix_to_json,
    vector_from_dict,
    vector_to_dict,
)


def _run(argv):
    """Exit status and stderr of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_one_line_error(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def _canonical(text) -> bool:
    """Whether text is exactly what the encoder writes for some rational."""
    if not isinstance(text, str):
        return False
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return text == f"{value.numerator}/{value.denominator}"


def _finite_pair(v) -> bool:
    """Whether v is a JSON pair of numbers naming a finite complex entry."""
    if not (isinstance(v, list) and len(v) == 2):
        return False
    if not all(type(p) in (int, float) for p in v):
        return False
    try:
        z = complex(v[0], v[1])
    except OverflowError:
        return False
    return math.isfinite(z.real) and math.isfinite(z.imag)


@pytest.mark.parametrize(
    "raw",
    ["2/4", " 1/2", "1/2 ", "1.5", "1e3", "1_000/3", "０/1", "1/２",
     "-0/1", "+1/2", "01/2", "1/02", "1/-2", "1", "1/0", "", "/", 1, None, ["1/1"]],
)
def test_rational_entries_outside_the_encoding_are_rejected(raw):
    doc = {"mode": "rational", "rows": 1, "cols": 1, "data": [raw]}
    with pytest.raises(ValueError):
        matrix_from_dict(doc)


@pytest.mark.parametrize(
    "raw",
    [[True, False], [1, True], [False, 0.5], ["1", 0], [None, 0], [1], [1, 2, 3],
     [10**400, 0], {"re": 1, "im": 0}, "1+2j", 3],
)
def test_complex_entries_must_be_number_pairs(raw):
    doc = {"mode": "complex", "dim": 1, "data": [raw]}
    with pytest.raises(ValueError):
        vector_from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("rows", True), ("rows", 0), ("rows", -1), ("rows", 1.0), ("rows", "1"),
    ("cols", [1]), ("data", {"1/1": 0}), ("data", "1/1"),
])
def test_malformed_shapes_are_rejected(key, value):
    doc = {"mode": "rational", "rows": 1, "cols": 1, "data": ["1/1"]}
    doc[key] = value
    with pytest.raises(ValueError):
        matrix_from_dict(doc)


def test_every_encoded_entry_decodes_to_itself():
    values = [Fraction(0), Fraction(-3, 7), Fraction(2**90 + 1, 3), Fraction(5)]
    A = Matrix.rational([values])
    assert matrix_from_dict(matrix_to_dict(A)) == A
    assert all(_canonical(v) for v in matrix_to_dict(A)["data"])
    B = Matrix.complex_([[1 + 2j, -0.5, 3j]])
    assert matrix_from_dict(matrix_to_dict(B)) == B


def test_strict_documents_exit_2_through_the_cli(tmp_path):
    bad = tmp_path / "bad.json"
    for data in (["2/4"], ["０/1"], [" 1/2"]):
        bad.write_text(json.dumps({"mode": "rational", "rows": 1, "cols": 1, "data": data}))
        _assert_one_line_error(*_run(["invert", str(bad)]))
    bad.write_text(json.dumps({"mode": "complex", "rows": 1, "cols": 1, "data": [[True, False]]}))
    _assert_one_line_error(*_run(["invert", str(bad)]))


# --- property: malformed documents -----------------------------------------

_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def _near_miss_rational(draw):
    """A string that Fraction() reads but the encoder never writes."""
    p, q, k = draw(st.integers(-99, 99)), draw(st.integers(1, 99)), draw(st.integers(2, 5))
    canonical = f"{Fraction(p, q).numerator}/{Fraction(p, q).denominator}"
    return draw(st.sampled_from([
        f"{p * k}/{q * k}", f" {canonical}", f"{canonical}\n", f"+{abs(p) + 1}/{q}",
        f"0{canonical}", f"{p}", f"{p}.5", f"{p}e1", f"1_0/{q}",
        canonical.translate(_FULLWIDTH), f"{canonical[:-1]}_{canonical[-1]}0",
    ]))


_bad_rational = (_near_miss_rational() | _json_values).filter(lambda v: not _canonical(v))
_bad_complex = (
    st.lists(st.booleans() | st.integers(10**309, 10**310) | st.floats(), min_size=2, max_size=2)
    | _json_values
).filter(lambda v: not _finite_pair(v))
_bad_size = _json_values.filter(lambda v: not (type(v) is int and v >= 1))


@st.composite
def _malformed(draw, kind):
    """A malformed matrix (kind "matrix") or vector (kind "vector") document."""
    mode = draw(st.sampled_from(["rational", "complex"]))
    dims = ("rows", "cols") if kind == "matrix" else ("dim",)
    shape = {key: draw(st.integers(1, 3)) for key in dims}
    count = 1
    for value in shape.values():
        count *= value
    good = "1/2" if mode == "rational" else [0.5, -1.0]
    doc = {"mode": mode, **shape, "data": [good] * count}
    fault = draw(st.sampled_from(["entry", "mode", "size", "count", "missing", "shape", "text"]))
    if fault == "entry":
        doc["data"][draw(st.integers(0, count - 1))] = draw(
            _bad_rational if mode == "rational" else _bad_complex
        )
    elif fault == "mode":
        doc["mode"] = draw(_json_values.filter(lambda v: v not in ("rational", "complex")))
    elif fault == "size":
        doc[draw(st.sampled_from(dims))] = draw(_bad_size)
    elif fault == "count":
        doc["data"] = doc["data"] + [good] * draw(st.integers(1, 3))
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "shape":
        return json.dumps(draw(_json_values.filter(lambda v: not isinstance(v, dict))))
    else:
        return draw(st.text(max_size=20).filter(lambda t: not _parses(t)))
    return json.dumps(doc)


def _parses(text) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(_malformed("matrix"))
def test_malformed_matrix_documents_exit_2(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_one_line_error(*_run(["invert", path]))


@_SETTINGS
@given(_malformed("vector"))
def test_malformed_vector_documents_exit_2(text):
    with tempfile.TemporaryDirectory() as workdir:
        matrix = os.path.join(workdir, "h.json")
        with open(matrix, "w", encoding="utf-8") as fh:
            fh.write(matrix_to_json(hadamard_like(2)))
        path = os.path.join(workdir, "x.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_one_line_error(*_run(["cone-member", matrix, path]))


@pytest.mark.parametrize("matrix, vector", [
    (hadamard_like(2), Vector.rational([1, 2, 3])),
    (dft(3), Vector.rational([3, 1])),
    (Matrix.rational([[1, 2], [2, 4]]), Vector.rational([3, 1])),
], ids=["dimension", "mode", "singular"])
def test_tope_member_rejects_malformed_operands(tmp_path, matrix, vector):
    """Operands that cone-member rejects are errors, not a failed norm test."""
    m, x = tmp_path / "m.json", tmp_path / "x.json"
    m.write_text(matrix_to_json(matrix))
    x.write_text(json.dumps(vector_to_dict(vector)))
    _assert_one_line_error(*_run(["tope-member", str(m), str(x)]))


# --- gen size guard ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["gen", "hadamard", "40"], ["gen", "hadamard", "12"], ["gen", "dft", "100000"],
     ["gen", "dft", str(MAX_GEN_ORDER + 1)], ["gen", "cycle", "100000"],
     ["gen", "circulant", ",".join(["1"] * (MAX_GEN_ORDER + 1))]],
)
def test_gen_rejects_orders_above_the_limit(argv):
    _assert_one_line_error(*_run(argv))


@pytest.mark.parametrize(
    "family, arg", [("hadamard", "11"), ("dft", str(MAX_GEN_ORDER)), ("cycle", "2")]
)
def test_gen_admits_orders_up_to_the_limit(monkeypatch, family, arg):
    """The largest admitted orders reach the family constructor (stubbed)."""
    built = []
    stub = lambda n: built.append(n) or hadamard_like(2)  # noqa: E731
    for name in ("hadamard_like", "dft", "cycle_companion"):
        monkeypatch.setattr(cli.families, name, stub)
    code, err = _run(["gen", family, arg])
    assert (code, err, built) == (0, "", [int(arg)])
    assert MAX_GEN_ORDER == 2 ** (11 - 1)


@pytest.mark.parametrize("row", ["1/0", "1,2/0,3"])
def test_gen_circulant_zero_denominator_exits_2(row):
    _assert_one_line_error(*_run(["gen", "circulant", row]))


def _recording_fraction(monkeypatch):
    """Replace the CLI's ``Fraction`` by one that records each entry it is
    handed, so a test that reaches it with a huge exponent cannot hang."""
    seen = []

    def record(part):
        seen.append(part)
        return Fraction(1)

    monkeypatch.setattr(cli, "Fraction", record)
    return seen


@pytest.mark.parametrize(
    "row", ["1e999999999", "2,1e-999999999", "0e4300", " 1.5E+4_300 ", "1e" + "9" * 5000]
)
def test_gen_circulant_refuses_huge_exponents_before_building_them(monkeypatch, row):
    seen = _recording_fraction(monkeypatch)
    code, err = _run(["gen", "circulant", row])
    _assert_one_line_error(code, err)
    assert "exponent" in err and seen == []


def test_gen_circulant_admits_exponents_below_the_digit_cap(monkeypatch):
    limit = sys.get_int_max_str_digits() or 4300
    row = f"1e{limit - 1},-2E-{limit - 1},3e0"
    seen = _recording_fraction(monkeypatch)
    assert _run(["gen", "circulant", row]) == (0, "")
    assert seen == row.split(",")


def _recording_linalg_fraction(monkeypatch):
    """Replace ``linalg``'s ``Fraction`` by a subclass, so ``_coerce``'s
    ``isinstance`` test still works, that records each text it is handed
    and builds 1 instead, so a call that reaches it cannot hang."""
    seen = []

    class Recorder(Fraction):
        def __new__(cls, value=0, denominator=None):
            seen.append(value)
            return Fraction(1)

    monkeypatch.setattr(linalg, "Fraction", Recorder)
    return seen


def test_rational_text_refuses_huge_exponents_before_building_them(monkeypatch):
    seen = _recording_linalg_fraction(monkeypatch)
    with pytest.raises(ValueError, match="exponent.*'e999999999'"):
        Vector.rational(["1e999999999"])
    assert seen == []
    # The entry before the huge one is built; the huge one never is.
    with pytest.raises(ValueError, match="exponent.*'E\\+4_300'"):
        Matrix.rational([["1", " 1.5E+4_300 "]])
    assert seen == ["1"]


def test_rational_text_admits_exponents_below_the_digit_cap(monkeypatch):
    limit = sys.get_int_max_str_digits() or 4300
    texts = [f"1e{limit - 1}", f"-2E-{limit - 1}", "3e0"]
    assert Vector.rational(texts) == Vector.rational(
        [10 ** (limit - 1), Fraction(-2, 10 ** (limit - 1)), 3]
    )
    seen = _recording_linalg_fraction(monkeypatch)
    Vector.rational(texts)
    assert seen == texts


def test_gen_circulant_reads_decimal_exponents():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", "circulant", "1e2,5E-1"]) == 0
    assert matrix_from_dict(json.loads(out.getvalue())).entries == [
        [100, Fraction(1, 2)], [Fraction(1, 2), 100]
    ]


# --- kron size guard ---------------------------------------------------------


def _ones(rows, cols):
    return Matrix.rational([[1] * cols for _ in range(rows)])


def _kron_files(tmp_path, left, right):
    paths = [str(tmp_path / "left.json"), str(tmp_path / "right.json")]
    for path, (rows, cols) in zip(paths, (left, right)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(matrix_to_json(_ones(rows, cols)))
    return paths


@pytest.mark.parametrize(
    "left, right",
    [((64, 64), (32, 32)), ((33, 1), (32, 1)), ((1, 32), (1, 33)),
     ((1025, 1), (1, 1)), ((1, 40), (2, 30))],
)
def test_kron_rejects_products_above_the_limit(tmp_path, monkeypatch, left, right):
    """No product array is formed: the guard runs on the operands' shapes."""
    def never(*args):
        raise AssertionError("kron formed an oversized product")

    monkeypatch.setattr(cli, "kron", never)
    code, err = _run(["kron", *_kron_files(tmp_path, left, right)])
    _assert_one_line_error(code, err)
    rows, cols = left[0] * right[0], left[1] * right[1]
    assert err == (
        f"error: kron builds products of up to {MAX_GEN_ORDER} rows and columns, "
        f"not {rows}x{cols}\n"
    )


def test_gen_cycle_products_over_the_limit_exit_2(tmp_path):
    """`gen cycle 64` (x) `gen cycle 32` has order 2048."""
    paths = []
    for n in (64, 32):
        paths.append(str(tmp_path / f"c{n}.json"))
        assert main(["--output", paths[-1], "gen", "cycle", str(n)]) == 0
    _assert_one_line_error(*_run(["kron", *paths]))


@pytest.mark.parametrize(
    "left, right", [((32, 32), (32, 32)), ((32, 1), (32, 1)), ((1, 1024), (1, 1))]
)
def test_kron_admits_products_up_to_the_limit(tmp_path, monkeypatch, left, right):
    """Products of exactly the limit reach ``kron`` (stubbed)."""
    shapes = []
    stub = lambda A, B: shapes.append((A.nrows, A.ncols, B.nrows, B.ncols)) or A  # noqa: E731
    monkeypatch.setattr(cli, "kron", stub)
    code, err = _run(["kron", *_kron_files(tmp_path, left, right)])
    assert (code, err, shapes) == (0, "", [left + right])


# --- complex overflow -------------------------------------------------------

_OVERFLOW_DOCS = {
    "diag.json": {"mode": "complex", "rows": 2, "cols": 2,
                  "data": [[1e300, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    "spectrum.json": {"mode": "complex", "dim": 2, "data": [[1e300, 0.0], [1.0, 0.0]]},
    "ideal.json": {"mode": "complex", "rows": 2, "cols": 2,
                   "data": [[1.0, 0.0], [1.0, 0.0], [1e300, 0.0], [-1e300, 0.0]]},
}


@pytest.mark.parametrize("argv", [
    ["cone-member", "diag.json", "spectrum.json"],
    ["--format", "text", "cone-member", "diag.json", "spectrum.json"],
    ["check-ideal", "ideal.json"],
    ["check-strong", "diag.json", "spectrum.json"],
    ["tope-member", "diag.json", "spectrum.json"],
    ["kron", "diag.json", "diag.json"],
])
def test_complex_overflow_exits_2_with_one_error_line(tmp_path, argv):
    """A complex image that overflows is an error in every verb, and numpy
    prints no warning; a subprocess sees what a user's stderr would."""
    for name, doc in _OVERFLOW_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in _OVERFLOW_DOCS else a for a in argv]
    result = subprocess.run(
        [sys.executable, "-m", "perronkron.cli", *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: complex entries must be finite, got (inf+0j)\n"


_HUGE_MODULUS_DOCS = {
    # Both parts are finite; the modulus 1.5e308 * sqrt(2) is not.
    "huge.json": {"mode": "complex", "rows": 2, "cols": 2,
                  "data": [[1.5e308, 1.5e308], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    "ones.json": {"mode": "complex", "dim": 2, "data": [[1.0, 0.0], [1.0, 0.0]]},
}


_HUGE_QUOTIENT_DOCS = {
    # The modulus 1.27e308 is finite, but Python's quotient of the pivot
    # by itself overflows inside; 8.98e307 would still divide.
    "huge.json": {"mode": "complex", "rows": 2, "cols": 2,
                  "data": [[8.99e307, 8.99e307], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    "ones.json": _HUGE_MODULUS_DOCS["ones.json"],
}

_PIVOT_VERBS = [
    ["invert", "huge.json"],
    ["check-perron", "huge.json"],
    ["check-ideal", "huge.json"],
    ["cone-member", "huge.json", "ones.json"],
    ["tope-member", "huge.json", "ones.json"],
    ["check-strong", "huge.json", "ones.json"],
    ["strict-containment", "huge.json", "huge.json"],
]


@pytest.mark.parametrize("argv, docs, message", [
    pytest.param(argv, docs, message, id=f"{name}{i}")
    for name, docs, message in [
        ("argv", _HUGE_MODULUS_DOCS, "the pivot modulus in column 1 exceeds the largest float"),
        ("quotient", _HUGE_QUOTIENT_DOCS, "the pivot in column 1 overflows complex division"),
    ]
    for i, argv in enumerate(_PIVOT_VERBS)
])
def test_pivot_modulus_overflow_exits_2_with_one_error_line(tmp_path, argv, docs, message):
    """A pivot whose modulus exceeds the largest float, or whose quotient
    by itself overflows, is refused by the complex inverse, which every one
    of these verbs runs."""
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    result = subprocess.run(
        [sys.executable, "-m", "perronkron.cli", *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {message}\n"


# --- documents nested past the recursion limit --------------------------------

_DEEP = "[" * 1500 + "]" * 1500


@pytest.mark.parametrize("argv", [["invert", "deep.json"], ["kron", "h.json", "deep.json"]])
def test_deeply_nested_matrix_document_exits_2(tmp_path, argv):
    (tmp_path / "deep.json").write_text(_DEEP)
    (tmp_path / "h.json").write_text(matrix_to_json(hadamard_like(2)))
    code, err = _run([str(tmp_path / a) if a.endswith(".json") else a for a in argv])
    _assert_one_line_error(code, err)
    assert err.startswith(f"error: invalid matrix file {tmp_path / 'deep.json'}: ")


def test_deeply_nested_vector_document_exits_2(tmp_path):
    (tmp_path / "deep.json").write_text(_DEEP)
    (tmp_path / "h.json").write_text(matrix_to_json(hadamard_like(2)))
    code, err = _run(["cone-member", str(tmp_path / "h.json"), str(tmp_path / "deep.json")])
    _assert_one_line_error(code, err)
    assert err.startswith(f"error: invalid vector file {tmp_path / 'deep.json'}: ")


def test_deeply_nested_stdin_exits_2():
    """What a user sees: one line, no traceback, exit 2."""
    result = subprocess.run(
        [sys.executable, "-m", "perronkron.cli", "invert", "-"],
        input=_DEEP, capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: invalid matrix file -: ")
    assert len(result.stderr.splitlines()) == 1


# --- kron decides its size from the headers -----------------------------------


def _counting_decoder(monkeypatch):
    calls = []
    decode = serialize._decode_entry
    monkeypatch.setattr(
        serialize, "_decode_entry", lambda raw, mode: calls.append(raw) or decode(raw, mode)
    )
    return calls


@pytest.mark.parametrize(
    "left, right", [((64, 64), (32, 32)), ((33, 1), (32, 1)), ((1, 1025), (1, 1))]
)
def test_kron_refuses_an_oversized_product_before_decoding(tmp_path, monkeypatch, left, right):
    paths = _kron_files(tmp_path, left, right)
    calls = _counting_decoder(monkeypatch)
    _assert_one_line_error(*_run(["kron", *paths]))
    assert calls == []


@pytest.mark.parametrize("left, right", [((32, 1), (32, 1)), ((1, 1024), (1, 1))])
def test_kron_decodes_products_at_the_limit(tmp_path, monkeypatch, left, right):
    paths = _kron_files(tmp_path, left, right)
    calls = _counting_decoder(monkeypatch)
    code, err = _run(["kron", *paths])
    assert (code, err) == (0, "")
    # One decode per distinct entry text of each operand, however many entries.
    assert calls == ["1/1", "1/1"]


@pytest.mark.parametrize("doc", [
    {"mode": "real", "rows": 64, "cols": 64, "data": []},
    {"mode": "rational", "rows": "64", "cols": 64, "data": []},
    {"mode": "rational", "rows": 64, "cols": 64, "data": ["1/1"]},
    {"mode": "rational", "rows": 64, "cols": 64},
])
def test_kron_reports_a_malformed_header_first(tmp_path, doc):
    """A bad header of either operand is an invalid file, even when the
    other header asks for an oversized product."""
    paths = _kron_files(tmp_path, (64, 64), (64, 64))
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    code, err = _run(["kron", *paths])
    _assert_one_line_error(code, err)
    assert err.startswith(f"error: invalid matrix file {paths[1]}: ")
