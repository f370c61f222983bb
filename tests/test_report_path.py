"""One report path: ``verification.report`` builds every report and
``cli._emit_report`` renders it, for verify-paper and every check verb."""
import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from perronkron import cones, digraph, perron
from perronkron.cli import main
from perronkron.families import cycle_companion, dft, hadamard_like
from perronkron.linalg import Matrix, Vector
from perronkron.serialize import matrix_to_json
from perronkron.verification import report
from test_linalg import vector_to_json

# sha256 of the stdout of `perronkron --format text --seed 42 verify-paper`.
VERIFY_PAPER_TEXT_SEED_42_SHA256 = (
    "d7cd90ea923e12d0c1cb75ceb9209f1c753941f641d1ee0276af3829ddd15f74"
)


def _run(argv):
    """Exit status, stdout and stderr of an in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.fixture
def files(tmp_path):
    paths = {
        "h2": (tmp_path / "h2.json", matrix_to_json(hadamard_like(2))),
        "c2": (tmp_path / "c2.json", matrix_to_json(cycle_companion(2))),
        "reducible": (
            tmp_path / "reducible.json",
            matrix_to_json(Matrix.rational([[1, 1], [0, 1]])),
        ),
        "x": (tmp_path / "x.json", vector_to_json(Vector.rational([1, -1]))),
    }
    for path, text in paths.values():
        path.write_text(text)
    return {name: str(path) for name, (path, _) in paths.items()}


def test_status_reads_only_boolean_findings():
    assert report("v", {}, {})["status"] == "pass"
    assert report("v", {}, {"a": True, "index": 0, "shift": Fraction(0)})["status"] == "pass"
    assert report("v", {}, {"a": True, "b": False, "index": 3})["status"] == "fail"
    assert report("v", {"m": "f"}, {"a": True}) == {
        "verb": "v", "status": "pass", "inputs": {"m": "f"}, "findings": {"a": True},
    }


def test_verify_paper_text_seed_42_is_pinned():
    code, out, err = _run(["--format", "text", "--seed", "42", "verify-paper"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_TEXT_SEED_42_SHA256


def test_strict_containment_text_renders_non_boolean_findings(files):
    code, out, err = _run(["--format", "text", "strict-containment", files["h2"], files["h2"]])
    assert (code, err) == (0, "")
    assert out == (
        "strict-containment: pass\n"
        "  member_of_product_cone  True\n"
        "  factorization_absent    True\n"
        "  certificate             {'mode': 'rational', 'dim': 4, "
        "'data': ['10/1', '7/1', '7/1', '5/1']}\n"
        "  shift                   1/1\n"
    )


@pytest.mark.parametrize("n", [2, 3])
def test_complex_strict_containment_writes_the_shift_as_a_wire_entry(tmp_path, n):
    path = tmp_path / f"f{n}.json"
    path.write_text(matrix_to_json(dft(n)))
    code, out, err = _run(["strict-containment", str(path), str(path)])
    assert (code, err) == (0, "")
    assert '"shift": [\n      1.0,\n      0.0\n    ]' in out
    assert json.loads(out)["findings"]["shift"] == [1.0, 0.0]
    code, out, err = _run(["--format", "text", "strict-containment", *[str(path)] * 2])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "  shift                   [1.0, 0.0]"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "verb, operands",
    [("period", ["reducible"]), ("kron-irreducible", ["reducible", "c2"]),
     ("kron-irreducible", ["c2", "reducible"])],
)
def test_reducible_operands_exit_2(files, fmt, verb, operands):
    code, out, err = _run(["--format", fmt, verb, *(files[o] for o in operands)])
    _assert_one_line_error(code, out, err)
    assert "irreducib" in err


@pytest.mark.parametrize(
    "verb, module, attr, operands, key",
    [
        ("check-ideal", perron, "is_ideal", ["h2"], "is_ideal"),
        ("check-strong", perron, "verify_strong_certificate", ["h2", "x"],
         "strong_certificate_valid"),
        ("cone-member", perron, "in_spectracone", ["h2", "x"], "in_spectracone"),
        ("tope-member", perron, "in_spectratope", ["h2", "x"], "in_spectratope"),
        ("coni-member", cones, "coni_member", ["h2", "x"], "in_conical_hull"),
        ("conv-member", cones, "conv_member", ["h2", "x"], "in_convex_hull"),
        ("irreducible", digraph, "is_irreducible", ["h2"], "is_irreducible"),
        ("period", digraph, "imprimitivity_index", ["c2"], "imprimitivity_index"),
        ("kron-irreducible", digraph, "kron_irreducibility_predicate", ["c2", "c2"],
         "kron_is_irreducible"),
    ],
)
def test_check_verbs_look_up_the_library_at_call_time(
    monkeypatch, files, verb, module, attr, operands, key
):
    """A function patched onto its module after import answers the verb, as
    the bench tracer's wrappers must."""
    calls = []
    monkeypatch.setattr(module, attr, lambda *args: calls.append(args) or 7)
    code, out, err = _run([verb, *(files[o] for o in operands)])
    assert (code, err) == (0, "")
    assert json.loads(out)["findings"] == {key: 7}
    assert len(calls) == 1 and len(calls[0]) == len(operands) + 1
