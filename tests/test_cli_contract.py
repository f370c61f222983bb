"""CLI contract: malformed input exits 2 with a one-line error, and the
verify-paper reports for seeds 42, 1 and 7 are byte-stable."""
import hashlib
import json

import pytest

from perronkron.cli import main
from perronkron.families import dft, hadamard_like
from perronkron.linalg import Matrix, Tolerance, Vector
from perronkron.serialize import matrix_to_json, vector_to_dict

# sha256 of the stdout of `perronkron --seed 42 verify-paper`.
VERIFY_PAPER_SEED_42_SHA256 = (
    "3e3304bbaf6b8ecab3ea5460571ab92c2bab9738a4102b66f17aecf7bc1c1ea8"
)
# sha256 of the stdout of `perronkron --seed N verify-paper` for other seeds.
VERIFY_PAPER_SHA256 = {
    1: "94f36e20cbcad70130cbca7b166f4e4b37f2722e71e64fd4b556edcbad279a7c",
    7: "b2c1b79fb18297182b13f6d7f21c4116e1c4230c4f3bcf4bbf30c5dee7be70a8",
}


def _assert_one_line_error(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_invert_rejects_zero_denominator(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"mode": "rational", "rows": 1, "cols": 1, "data": ["1/0"]})
    )
    code = main(["invert", str(bad)])
    _assert_one_line_error(code, capsys.readouterr().err)


def test_cone_member_rejects_zero_denominator(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"mode": "rational", "dim": 2, "data": ["1/1", "3/0"]}))
    code = main(["cone-member", str(h), str(x)])
    _assert_one_line_error(code, capsys.readouterr().err)


def test_verify_paper_seed_42_report_is_pinned(capsys):
    assert main(["--seed", "42", "verify-paper"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SEED_42_SHA256


@pytest.mark.parametrize("seed", sorted(VERIFY_PAPER_SHA256))
def test_verify_paper_report_is_pinned_for_other_seeds(seed, capsys):
    assert main(["--seed", str(seed), "verify-paper"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256[seed]


@pytest.mark.parametrize("eps", [-1.0, float("inf"), float("-inf"), float("nan")])
def test_tolerance_rejects_negative_and_non_finite(eps):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Tolerance(eps)


@pytest.mark.parametrize("tol", ["-1", "inf", "nan", "-inf"])
def test_bad_tol_exits_2_before_any_verb_runs(tmp_path, capsys, tol):
    F = dft(3)
    generators = tmp_path / "f3.json"
    generators.write_text(matrix_to_json(F))
    point = tmp_path / "x.json"
    point.write_text(json.dumps(vector_to_dict(F.row(1))))
    for verb in (
        ["verify-paper"],
        ["coni-member", str(generators), str(point)],
        ["conv-member", str(generators), str(point)],
        ["cone-member", str(generators), str(point)],
    ):
        code = main([f"--tol={tol}", *verb])
        captured = capsys.readouterr()
        _assert_one_line_error(code, captured.err)
        assert "tolerance" in captured.err
        assert captured.out == ""


def _assert_refused(argv, capsys, message):
    """The verb exits 2 with one stderr line naming the refusal, and writes
    nothing to stdout."""
    code = main(argv)
    out, err = capsys.readouterr()
    _assert_one_line_error(code, err)
    assert message in err
    assert out == ""


# Verbs whose second operand is a vector.
_SPECTRUM_VERBS = {"cone-member", "tope-member", "check-strong"}


@pytest.mark.parametrize(
    "verb, message",
    [
        ("invert", "only square matrices are invertible"),
        ("check-ideal", "only square matrices are invertible"),
        ("check-perron", "Perron witnesses require square matrices"),
        ("cone-member", "similarity images require square matrices"),
        ("tope-member", "similarity images require square matrices"),
        ("check-strong", "similarity images require square matrices"),
    ],
)
def test_a_non_square_matrix_is_refused(tmp_path, capsys, verb, message):
    wide = tmp_path / "wide.json"
    wide.write_text(matrix_to_json(Matrix.rational([[1, 2, 3], [4, 5, 6]])))
    operands = [str(wide)]
    if verb in _SPECTRUM_VERBS:
        # As long as the matrix is wide; S is refused as non-square first.
        spectrum = tmp_path / "x.json"
        spectrum.write_text(json.dumps(vector_to_dict(Vector.rational([1, 1, 1]))))
        operands.append(str(spectrum))
    _assert_refused([verb, *operands], capsys, message)


@pytest.mark.parametrize("family, order", [("dft", "0"), ("cycle", "-2")])
def test_gen_refuses_an_order_below_one(capsys, family, order):
    _assert_refused(["gen", family, order], capsys, f"order must be positive, got {order}")


def test_output_into_a_missing_directory_is_refused(tmp_path, capsys):
    target = tmp_path / "missing" / "c3.json"
    _assert_refused(["-o", str(target), "gen", "cycle", "3"], capsys, "cannot write")
    assert not target.parent.exists()


def test_strict_containment_refuses_order_one(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(matrix_to_json(Matrix.rational([[1]])))
    _assert_refused(
        ["strict-containment", str(one), str(one)],
        capsys,
        "strict containment requires orders at least 2",
    )
