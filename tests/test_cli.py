import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perronkron import perron
from perronkron.cli import main
from perronkron.families import cycle_companion, dft, hadamard_like
from perronkron.linalg import Matrix, Vector, kron
from perronkron.serialize import matrix_from_json, matrix_to_json
from test_linalg import vector_to_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_hadamard_writes_file(tmp_path, capsys):
    out = tmp_path / "h4.json"
    code, _, _ = run_cli(["-o", str(out), "gen", "hadamard", "3"], capsys)
    assert code == 0
    assert matrix_from_json(out.read_text()) == hadamard_like(3)


def test_gen_counterexample(capsys):
    code, stdout, _ = run_cli(["gen", "counterexample"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["rows"] == 4
    assert payload["data"][2] == "1/1"


def test_kron_and_invert_roundtrip(tmp_path, capsys):
    h = tmp_path / "h.json"
    c = tmp_path / "c.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    c.write_text(matrix_to_json(cycle_companion(3)))
    code, stdout, _ = run_cli(["kron", str(h), str(c)], capsys)
    assert code == 0
    assert matrix_from_json(stdout) == kron(hadamard_like(2), cycle_companion(3))

    # invert twice reproduces the original bit-exactly.
    once = tmp_path / "inv.json"
    code, stdout, _ = run_cli(["-o", str(once), "invert", str(h)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["invert", str(once)], capsys)
    assert code == 0
    assert matrix_from_json(stdout) == hadamard_like(2)


def test_check_perron_reports(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    code, stdout, _ = run_cli(["check-perron", str(h)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["status"] == "pass"
    assert report["findings"]["witness_index"] == 1
    assert report["findings"]["witness_sign"] == 1

    s = tmp_path / "s.json"
    code, _, _ = run_cli(["gen", "-o", str(s), "counterexample"], capsys)
    # Global flags live before the verb; -o after the verb is rejected.
    assert code == 2
    code, _, _ = run_cli(["-o", str(s), "gen", "counterexample"], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["check-perron", str(s)], capsys)
    assert code == 1
    report = json.loads(stdout)
    assert report["status"] == "fail"
    assert report["findings"]["is_perron_similarity"] is False


def test_check_ideal_and_strong(tmp_path, capsys):
    f3 = tmp_path / "f3.json"
    f3.write_text(matrix_to_json(dft(3)))
    code, stdout, _ = run_cli(["check-ideal", str(f3)], capsys)
    assert code == 0

    spectrum = tmp_path / "row2.json"
    spectrum.write_text(vector_to_json(dft(3).row(1)))
    code, stdout, _ = run_cli(["check-strong", str(f3), str(spectrum)], capsys)
    assert code == 0
    assert json.loads(stdout)["findings"]["strong_certificate_valid"] is True


def test_cone_and_tope_member(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    x = tmp_path / "x.json"
    x.write_text(vector_to_json(Vector.rational([1, -1])))
    code, stdout, _ = run_cli(["cone-member", str(h), str(x)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["tope-member", str(h), str(x)], capsys)
    assert code == 0
    y = tmp_path / "y.json"
    y.write_text(vector_to_json(Vector.rational([1, -2])))
    code, stdout, _ = run_cli(["cone-member", str(h), str(y)], capsys)
    assert code == 1


def test_hull_member_verbs(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    x = tmp_path / "x.json"
    x.write_text(vector_to_json(Vector.rational([1, 0])))
    code, stdout, _ = run_cli(["coni-member", str(h), str(x)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["conv-member", str(h), str(x)], capsys)
    assert code == 0
    z = tmp_path / "z.json"
    z.write_text(vector_to_json(Vector.rational([2, 0])))
    code, stdout, _ = run_cli(["conv-member", str(h), str(z)], capsys)
    assert code == 1


def test_hull_member_verbs_on_complex_dft_rows(tmp_path, capsys):
    """The rows of F8 sum to 8 e1 only up to rounding, so 8 e1 is in their
    conical hull at the default tolerance and not at tolerance 0."""
    f8 = tmp_path / "f8.json"
    code, _, _ = run_cli(["-o", str(f8), "gen", "dft", "8"], capsys)
    assert code == 0
    points = {}
    for name, first in (("e1", 1), ("8e1", 8), ("-8e1", -8)):
        points[name] = tmp_path / f"{name}.json"
        points[name].write_text(vector_to_json(Vector.complex_([first] + [0] * 7)))
    assert run_cli(["coni-member", str(f8), str(points["8e1"])], capsys)[0] == 0
    assert run_cli(["--tol", "0", "coni-member", str(f8), str(points["8e1"])], capsys)[0] == 1
    assert run_cli(["coni-member", str(f8), str(points["-8e1"])], capsys)[0] == 1
    assert run_cli(["conv-member", str(f8), str(points["e1"])], capsys)[0] == 0


def test_digraph_verbs(tmp_path, capsys):
    c3 = tmp_path / "c3.json"
    c3.write_text(matrix_to_json(cycle_companion(3)))
    code, stdout, _ = run_cli(["period", str(c3)], capsys)
    assert code == 0
    assert json.loads(stdout)["findings"]["imprimitivity_index"] == 3

    code, stdout, _ = run_cli(["irreducible", str(c3)], capsys)
    assert code == 0

    c2 = tmp_path / "c2.json"
    c2.write_text(matrix_to_json(cycle_companion(2)))
    code, stdout, _ = run_cli(["kron-irreducible", str(c2), str(c3)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["kron-irreducible", str(c2), str(c2)], capsys)
    assert code == 1


def test_strict_containment_verb(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    code, stdout, _ = run_cli(["strict-containment", str(h), str(h)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["findings"]["member_of_product_cone"] is True
    assert report["findings"]["factorization_absent"] is True
    assert report["findings"]["certificate"]["data"] == ["10/1", "7/1", "7/1", "5/1"]


def test_text_format(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    code, stdout, _ = run_cli(["--format", "text", "check-ideal", str(h)], capsys)
    assert code == 0
    assert stdout.startswith("check-ideal: pass")


def test_usage_and_io_errors(tmp_path, capsys):
    code, _, _ = run_cli(["no-such-verb"], capsys)
    assert code == 2
    code, _, err = run_cli(["invert", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["invert", str(bad)], capsys)
    assert code == 2
    singular = tmp_path / "singular.json"
    singular.write_text(
        json.dumps(
            {"mode": "rational", "rows": 2, "cols": 2, "data": ["1/1", "1/1", "1/1", "1/1"]}
        )
    )
    code, _, _ = run_cli(["invert", str(singular)], capsys)
    assert code == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    payload = matrix_to_json(hadamard_like(2))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, stdout, _ = run_cli(["invert", "-"], capsys)
    assert code == 0
    assert matrix_from_json(stdout) == hadamard_like(2).scale("1/2")


def test_gen_hadamard_9_piped_to_invert():
    """Order 256 through a real pipe: the inverse is H / 256."""
    cli = [sys.executable, "-m", "perronkron.cli"]
    gen = subprocess.Popen([*cli, "gen", "hadamard", "9"], stdout=subprocess.PIPE)
    inv = subprocess.run(
        [*cli, "invert", "-"], stdin=gen.stdout, capture_output=True, text=True, timeout=300
    )
    gen.stdout.close()
    assert gen.wait(timeout=300) == 0
    assert (inv.returncode, inv.stderr) == (0, "")
    assert matrix_from_json(inv.stdout) == hadamard_like(9).scale(Fraction(1, 256))


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "perronkron.cli", "gen", "cycle", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert matrix_from_json(result.stdout) == cycle_companion(4)


# Every verb in the order `perronkron --help` lists it.
VERBS = [
    "gen", "kron", "invert", "check-perron", "check-ideal", "check-strong", "cone-member",
    "tope-member", "coni-member", "conv-member", "irreducible", "period", "kron-irreducible",
    "strict-containment", "verify-paper",
]


def test_help_lists_every_verb_in_order(capsys):
    code, stdout, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "{" + ",".join(VERBS) + "}" in stdout


@pytest.mark.parametrize("verb, name, findings", [
    ("check-perron", "find_perron_witness", ["is_perron_similarity", "witness_index",
                                              "witness_sign"]),
    ("strict-containment", "strict_cone_containment_certificate",
     ["member_of_product_cone", "factorization_absent", "certificate", "shift"]),
])
def test_check_verbs_call_the_library_through_its_module(
    tmp_path, capsys, monkeypatch, verb, name, findings
):
    """A wrapper patched onto the module after import sees exactly one call."""
    calls = []
    original = getattr(perron, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(perron, name, spy)
    h = tmp_path / "h.json"
    h.write_text(matrix_to_json(hadamard_like(2)))
    operands = [str(h)] * (2 if verb == "strict-containment" else 1)
    code, stdout, _ = run_cli([verb] + operands, capsys)
    assert code == 0
    assert len(calls) == 1
    assert list(json.loads(stdout)["findings"]) == findings


def test_a_digraph_that_vertex_0_only_reaches_out_of_is_reducible(tmp_path, capsys):
    """0 -> 1 -> 2 -> 1: vertex 0 reaches every vertex, and no vertex reaches 0."""
    one_way = tmp_path / "one_way.json"
    one_way.write_text(matrix_to_json(Matrix.rational([[0, 1, 0], [0, 0, 1], [0, 1, 0]])))
    code, stdout, _ = run_cli(["irreducible", str(one_way)], capsys)
    assert code == 1
    assert json.loads(stdout)["findings"] == {"is_irreducible": False}
    code, stdout, err = run_cli(["period", str(one_way)], capsys)
    assert (code, stdout, err) == (2, "", "error: imprimitivity index requires irreducibility\n")
