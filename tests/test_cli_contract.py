"""CLI contract: malformed input exits 2 with a one-line error, and the
seed-42 verify-paper report is byte-stable."""
import hashlib
import json

from perronkron.cli import main
from perronkron.families import hadamard_like
from perronkron.serialize import matrix_to_json

# sha256 of the stdout of `perronkron --seed 42 verify-paper`.
VERIFY_PAPER_SEED_42_SHA256 = (
    "3e3304bbaf6b8ecab3ea5460571ab92c2bab9738a4102b66f17aecf7bc1c1ea8"
)


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
